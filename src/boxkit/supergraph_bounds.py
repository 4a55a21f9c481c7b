"""Boxicity lower bounds from interval supergraph deficiency.

Every interval supergraph of g must retain all of g's edges, so each of
the k graphs in an optimal intersection misses at most as many pairs as
the sparsest interval supergraph allows.  Counting missing pairs both
ways gives

    boxicity(g) >= nonedges(g) / nonedges(I_min)

and, through the prefix-boundary identity for canonical supergraphs, the
weaker but cheaper-to-specialize bound over s_k, the largest strong
boundary of a k-set,

    boxicity(g) >= nonedges(g) / sum_k s_k(complement(g)).

Closed forms for complements of cycles and regular square-free
complements are instances of the second inequality; for a k-regular
complement, universal_bound (expansion_bounds) gives n/2k.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PROFILE_MAX_VERTICES
from .graphs import Graph, is_complete, is_connected
from .reports import BoundReport, bound_report, not_applicable
from .tables import GraphTables, tables_of

MIN_SUPERGRAPH = "min_supergraph"
STRONG_BOUNDARY = "strong_boundary"
FAMILY = "family"
DEGREE_RATIO = "degree_ratio"


def min_supergraph_bound(g: Graph | GraphTables) -> BoundReport:
    """nonedges(g) / nonedges(I_min), exact via the supergraph DP."""
    tables = tables_of(g)
    g = tables.graph
    if is_complete(g):
        return not_applicable(MIN_SUPERGRAPH, "complete_graph")
    pairs = g.n * (g.n - 1) // 2
    result = tables.supergraph
    denominator = pairs - result.edge_count
    value = Fraction(pairs - g.edge_count, denominator)
    cert = {"ordering": result.ordering, "supergraph_edges": result.edge_count}
    return bound_report(MIN_SUPERGRAPH, value, cert)


def strong_boundary_bound(g: Graph | GraphTables) -> BoundReport:
    """nonedges(g) divided by the summed strong-boundary profile of the
    complement.  Weaker than min_supergraph_bound but the profile is the
    quantity closed-form family bounds estimate, so it is reported with
    its full certificate: for each k = 1 .. n-1 the largest strong
    boundary s_k of a k-set in the complement, a k-set X_k reaching it,
    and the sum.  Outside X a vertex is a common complement neighbour of
    X exactly when it lies outside N[X] in g, so s_k is n minus the
    least union of k of g's closed neighbourhoods, and X_k its
    lexicographically smallest witness; the tables keep those unions,
    which the supergraph DP has folded when it ran."""
    tables = tables_of(g)
    g = tables.graph
    if is_complete(g):
        return not_applicable(STRONG_BOUNDARY, "complete_graph")
    unions = tables.unions(g.closed_rows).every()
    strong = tuple(g.n - value for value, _ in unions)
    total = sum(strong)
    value = Fraction(g.n * (g.n - 1) // 2 - g.edge_count, total)
    cert = {"max_strong_boundary": strong, "witnesses": tuple(mask for _, mask in unions),
            "profile_sum": total}
    return bound_report(STRONG_BOUNDARY, value, cert)


def detect_family_bound(g: Graph | GraphTables) -> BoundReport:
    """Closed-form profile bounds for structure found in the complement.

    complement_cycle: the complement is a cycle and n >= 5; n/3.  (At
        n = 4 the profile of the 4-cycle is larger and the n/3 form is
        unsound.)
    c4free: the complement is k-regular and no two vertices share two
        complement neighbours, s_2(complement) <= 1; n/4.  The
        form needs regularity: the profile tail vanishes above the
        degree, and the complement's edge count is nk/2.

    The cycle is tried first.  The complement's closed neighbourhoods
    miss exactly g's, so s_2 of the complement is n
    minus the least union of two of g's closed neighbourhoods, which the
    tables keep (the supergraph DP or strong_boundary_bound has already
    found it when they ran).  Up to the profile's cap the certificate
    also carries strong_boundary_bound's value, which each closed form
    never exceeds; it reads the same unions, all sizes at once.
    """
    tables = tables_of(g)
    g = tables.graph
    if is_complete(g):
        return not_applicable(FAMILY, "complete_graph")
    summary = tables.complement_degrees
    if not summary.is_regular:
        return not_applicable(FAMILY, "no_family_detected")
    if g.n >= 5 and summary.min_degree == 2 and is_connected(tables.complement):
        family, k, value = "complement_cycle", None, Fraction(g.n, 3)
    elif g.n - tables.unions(g.closed_rows).least(2)[0] <= 1:
        family, k, value = "c4free", summary.min_degree, Fraction(g.n, 4)
    else:
        return not_applicable(FAMILY, "no_family_detected")
    cert = {"family": family, "n": g.n, "k": k, "verified": True}
    if g.n <= PROFILE_MAX_VERTICES:
        cert["generic_value"] = strong_boundary_bound(tables).value
    return bound_report(FAMILY, value, cert)


def degree_ratio_bound(g: Graph | GraphTables) -> BoundReport:
    """n * min_degree(complement) / (2 * max_degree(complement)^2).

    Vacuously 0 when the complement has an isolated vertex; still
    reported, a zero bound is an answer.
    """
    tables = tables_of(g)
    g = tables.graph
    if is_complete(g):
        return not_applicable(DEGREE_RATIO, "complete_graph")
    summary = tables.complement_degrees
    value = Fraction(g.n * summary.min_degree, 2 * summary.max_degree ** 2)
    cert = {"complement_min_degree": summary.min_degree,
            "complement_max_degree": summary.max_degree}
    return bound_report(DEGREE_RATIO, value, cert)
