"""Boxicity lower bounds from interval supergraph deficiency.

Every interval supergraph of g must retain all of g's edges, so each of
the k graphs in an optimal intersection misses at most as many pairs as
the sparsest interval supergraph allows.  Counting missing pairs both
ways gives

    boxicity(g) >= nonedges(g) / nonedges(I_min)

and, through the prefix-boundary identity for canonical supergraphs, the
weaker but cheaper-to-specialize

    boxicity(g) >= nonedges(g) / sum_k max_strong_boundary(k, complement(g)).

Closed forms for particular families (regular complements, complements
of sparse cycles, and so on) are instances of the second inequality.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PROFILE_MAX_VERTICES
from .graphs import Graph, complement, degree_summary, is_complete, is_connected
from .isoperimetry import complement_profile, iso_profile, max_strong_boundary
from .intervals import min_interval_supergraph
from .reports import BoundReport, bound_report, not_applicable

MIN_SUPERGRAPH = "min_supergraph"
STRONG_BOUNDARY = "strong_boundary"
REGULAR_COMPLEMENT = "regular_complement"
FAMILY = "family"
DEGREE_RATIO = "degree_ratio"

FAMILY_KINDS = ("coplanar", "c4free", "complement_cycle")


def min_supergraph_bound(g: Graph) -> BoundReport:
    """nonedges(g) / nonedges(I_min), exact via the supergraph DP."""
    if is_complete(g):
        return not_applicable(MIN_SUPERGRAPH, "complete_graph")
    pairs = g.n * (g.n - 1) // 2
    result = min_interval_supergraph(g)
    denominator = pairs - result.edge_count
    value = Fraction(pairs - g.edge_count, denominator)
    cert = {"ordering": result.ordering, "supergraph_edges": result.edge_count}
    return bound_report(MIN_SUPERGRAPH, value, cert)


def strong_boundary_bound(g: Graph) -> BoundReport:
    """nonedges(g) divided by the summed strong-boundary profile of the
    complement.  Weaker than min_supergraph_bound but the profile is the
    quantity closed-form family bounds estimate, so it is reported with
    its full certificate.  The complement's profile comes from g's own
    (complement_profile), so this bound and min_supergraph_bound share
    g's boundary table."""
    if is_complete(g):
        return not_applicable(STRONG_BOUNDARY, "complete_graph")
    profile = complement_profile(iso_profile(g))
    total = sum(profile.max_strong_boundary)
    value = Fraction(complement(g).edge_count, total)
    cert = {"complement_profile": profile, "profile_sum": total}
    return bound_report(STRONG_BOUNDARY, value, cert)


def regular_complement_bound(n: int, k: int, g: Graph | None = None) -> BoundReport:
    """n / 2k for graphs whose complement is k-regular.

    When the graph is supplied, the degree condition is checked instead
    of trusted.
    """
    if n < 1 or k < 1:
        return not_applicable(REGULAR_COMPLEMENT, "bad_parameters")
    verified = None
    if g is not None:
        if g.n != n:
            return not_applicable(REGULAR_COMPLEMENT, "size_mismatch")
        summary = degree_summary(g)
        if not (summary.is_regular and summary.min_degree == n - k - 1):
            return not_applicable(REGULAR_COMPLEMENT, "regularity_mismatch")
        verified = True
    value = Fraction(n, 2 * k)
    return bound_report(REGULAR_COMPLEMENT, value, {"n": n, "k": k, "verified": verified})


def _complement_is_cycle(g: Graph) -> bool:
    co = complement(g)
    summary = degree_summary(co)
    return summary.is_regular and summary.min_degree == 2 and is_connected(co)


def family_bound(n: int, family: str, k: int | None = None,
                 g: Graph | None = None) -> BoundReport:
    """Closed-form profile bounds for asserted structure.

    coplanar: complement is (planar and k-regular); trusted, planarity is
        not checked here, so the report carries a warning note.
    c4free: complement is k-regular with no 4-cycle; verified via
        max_strong_boundary(2) <= 1 when the graph is given.
    complement_cycle: complement is a cycle, n >= 5; verified
        structurally when the graph is given.  (At n = 4 the profile of
        the 4-cycle is larger and the n/3 form is unsound, so it is
        rejected.)
    """
    if family not in FAMILY_KINDS:
        return not_applicable(FAMILY, "unknown_family")
    notes: tuple[str, ...] = ()
    verified = None
    if family == "coplanar":
        value = Fraction(n, 8)
        notes = ("coplanarity asserted by caller, not verified",)
        if g is not None:
            summary = degree_summary(complement(g))
            if not (summary.is_regular and summary.min_degree >= 1):
                return not_applicable(FAMILY, "regularity_mismatch")
            if k is not None and summary.min_degree != k:
                return not_applicable(FAMILY, "regularity_mismatch")
    elif family == "c4free":
        value = Fraction(n, 4)
        if g is not None:
            co = complement(g)
            summary = degree_summary(co)
            # the n/4 form needs a regular complement: the profile tail
            # vanishes above the degree, and the edge count is nk/2
            if not summary.is_regular:
                return not_applicable(FAMILY, "regularity_mismatch")
            if k is not None and summary.min_degree != k:
                return not_applicable(FAMILY, "regularity_mismatch")
            if co.n >= 2 and max_strong_boundary(co, 2)[0] > 1:
                return not_applicable(FAMILY, "family_refuted")
            verified = True
    else:
        if n < 5:
            return not_applicable(FAMILY, "cycle_too_short")
        value = Fraction(n, 3)
        if g is not None:
            if not _complement_is_cycle(g):
                return not_applicable(FAMILY, "family_refuted")
            verified = True
    cert = {"family": family, "n": n, "k": k, "verified": verified}
    if g is not None and g.n <= PROFILE_MAX_VERTICES and not is_complete(g):
        cert["generic_value"] = strong_boundary_bound(g).value
    return bound_report(FAMILY, value, cert, notes)


def detect_family_bound(g: Graph) -> BoundReport:
    """family_bound with the family detected from the complement.

    Tries complement_cycle (n/3) first, then regular C4-free complement
    (n/4).  Coplanarity is not detectable here, so the n/8 form never
    fires automatically.
    """
    if is_complete(g):
        return not_applicable(FAMILY, "complete_graph")
    if g.n >= 5 and _complement_is_cycle(g):
        return family_bound(g.n, "complement_cycle", g=g)
    co = complement(g)
    summary = degree_summary(co)
    if summary.is_regular and max_strong_boundary(co, 2)[0] <= 1:
        return family_bound(g.n, "c4free", k=summary.min_degree, g=g)
    return not_applicable(FAMILY, "no_family_detected")


def degree_ratio_bound(g: Graph) -> BoundReport:
    """n * min_degree(complement) / (2 * max_degree(complement)^2).

    Vacuously 0 when the complement has an isolated vertex; still
    reported, a zero bound is an answer.
    """
    if is_complete(g):
        return not_applicable(DEGREE_RATIO, "complete_graph")
    summary = degree_summary(complement(g))
    value = Fraction(g.n * summary.min_degree, 2 * summary.max_degree ** 2)
    cert = {"complement_min_degree": summary.min_degree,
            "complement_max_degree": summary.max_degree}
    return bound_report(DEGREE_RATIO, value, cert)
