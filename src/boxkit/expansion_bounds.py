"""Boxicity lower bounds from neighborhood expansion.

The driving quantities, for vertex sets S1 and S2 covering the graph:

  cross expansion  beta_t = (min over t-subsets S of S1 of |N[S] & S2|) / |S2|
  co-expansion     m_j    = min over j-subsets S of S2 of |N'(S, complement) & S1|

If boxicity were some small b, the interval geometry of an optimal
intersection would force a large subset of S2 (size about
t_star(b) = |S2| (1 - 2b(1 - beta_t))) whose complement-neighborhood
inside S1 is nevertheless thin.  Whenever the measured m-table is too
big for that, b is impossible.  Scanning b upward and returning the
first value not refuted yields a certified lower bound together with a
per-b trace a verifier can replay against the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import floor

from .bitset import bits, full_mask, mask_of, members, popcount
from .graphs import (
    BipartiteGraph,
    Graph,
    bipartition,
    closed_neighborhood,
    induced_subgraph,
    is_complete,
    universal_vertices,
)
from .isoperimetry import LeastUnions
from .reports import BoundReport, bound_report, not_applicable
from .tables import GraphTables, tables_of

EXPANSION = "expansion"
UNIVERSAL = "universal"
BIPARTITE_UNIVERSAL = "bipartite_universal"


def cross_expansion(g: Graph | GraphTables, subset_side: int, target_side: int,
                    t: int) -> Fraction:
    """beta_t: worst closed-neighborhood coverage of the target side by
    any t vertices of the subset side."""
    if target_side == 0:
        raise ValueError("target side must be nonempty")
    tables = tables_of(g)
    rows = [tables.closed_rows[v] & target_side for v in bits(subset_side)]
    return Fraction(tables.unions(rows).least(t)[0], popcount(target_side))


def _co_rows(g: Graph, subset_side: int, target_side: int) -> list[int]:
    """The complement neighbourhood of each subset-side vertex, inside
    the target side: m_j is the least union of j of them."""
    return [g.vertices & ~(g.rows[v] | 1 << v) & target_side for v in bits(subset_side)]


def co_expansion_table(g: Graph, subset_side: int, target_side: int,
                       j_max: int) -> tuple[int, ...]:
    """m_j for j = 1 .. j_max: worst complement-neighborhood reach into
    the target side from any j vertices of the subset side."""
    size = popcount(subset_side)
    if not 1 <= j_max <= size:
        raise ValueError(f"j_max = {j_max} outside 1..{size}")
    unions = LeastUnions(_co_rows(g, subset_side, target_side))
    return tuple(unions.least(j)[0] for j in range(1, j_max + 1))


@dataclass(frozen=True)
class ScanEntry:
    """One step of the infeasibility scan."""

    b: int
    t_star: Fraction
    m_value: int | None
    infeasible: bool


@dataclass(frozen=True)
class ExpansionCertificate:
    s1: int
    s2: int
    t: int
    beta_t: Fraction
    trace: tuple[ScanEntry, ...]
    bound: int
    vertex_labels: tuple[int, ...] | None = None


def certify_expansion_bound(g: Graph | GraphTables, s1: int, s2: int,
                            t: int) -> tuple[BoundReport, ExpansionCertificate]:
    """Scan b = 1, 2, ... and return the first not refuted.

    b is refuted when floor(t_star(b)) >= 1 and 2(t-1) b < m at that
    floor (for t = 1 this degenerates to the m-value being positive).
    Graphs satisfying the preconditions always admit a feasible b at or
    below max(|s1|, |s2|) / 2 + 1, so the scan terminates.  The least
    unions behind beta_t and m_j are kept in g's tables, so calls for
    several t on the same tables scan each size once.
    """
    tables = tables_of(g)
    g = tables.graph
    if s1 | s2 != g.vertices:
        raise ValueError("s1 and s2 must cover all vertices")
    if s1 == 0 or s2 == 0:
        raise ValueError("s1 and s2 must be nonempty")
    n1, n2 = popcount(s1), popcount(s2)
    if not 1 <= t <= n1:
        raise ValueError(f"t = {t} outside 1..{n1}")
    for u in bits(s2):
        if closed_neighborhood(g, 1 << u) & s1 == s1:
            raise ValueError(f"vertex {u} of s2 dominates s1")

    beta = cross_expansion(tables, s1, s2, t)
    co_unions = tables.unions(_co_rows(g, s2, s1))
    cap = max(n1, n2) // 2 + 2
    trace = []
    b = 1
    while True:
        t_star = n2 * (1 - 2 * b * (1 - beta))
        floor_t = floor(t_star)
        if floor_t >= 1:
            m_value = co_unions.least(floor_t)[0]
            infeasible = 2 * (t - 1) * b < m_value
        else:
            m_value = None
            infeasible = False
        trace.append(ScanEntry(b, t_star, m_value, infeasible))
        if not infeasible:
            break
        b += 1
        if b > cap:
            raise AssertionError("scan passed its provable termination cap")

    cert = ExpansionCertificate(s1, s2, t, beta, tuple(trace), b)
    report = bound_report(EXPANSION, Fraction(b), cert)
    return report, cert


def universal_bound(g: Graph | GraphTables) -> BoundReport:
    """(n - universal_count) / (2 (n - min_degree - 1))."""
    tables = tables_of(g)
    g = tables.graph
    if is_complete(g):
        return not_applicable(UNIVERSAL, "complete_graph")
    summary = tables.degrees
    value = Fraction(g.n - summary.universal_count,
                     2 * (g.n - summary.min_degree - 1))
    cert = {"universal_count": summary.universal_count,
            "min_degree": summary.min_degree}
    return bound_report(UNIVERSAL, value, cert)


def bipartite_universal_bound(gb: BipartiteGraph) -> BoundReport:
    """(|B| - u_B) / (2 (|B| - min_degree_A)) with u_B the count of
    B-vertices adjacent to all of A.

    Complete bipartite graphs drive both numerator and denominator to
    zero; the bound degenerates to 0 rather than failing, since 0 is a
    sound (if empty) statement.
    """
    full_a = full_mask(gb.na)
    u_b = sum(1 for b in range(gb.nb) if gb.column(b) == full_a)
    delta_a = min(r.bit_count() for r in gb.rows)
    numerator = gb.nb - u_b
    if numerator == 0:
        return bound_report(BIPARTITE_UNIVERSAL, Fraction(0),
                            {"u_b": u_b, "min_degree_a": delta_a},
                            notes=("degenerate: every B-vertex dominates A",))
    value = Fraction(numerator, 2 * (gb.nb - delta_a))
    return bound_report(BIPARTITE_UNIVERSAL, value,
                        {"u_b": u_b, "min_degree_a": delta_a})


def _strip_universal(g: Graph) -> tuple[Graph, tuple[int, ...]] | None:
    """g without its universal vertices, with the kept vertices' labels:
    g itself when it has none, None when every vertex is universal."""
    universal = universal_vertices(g)
    if universal == 0:
        return g, tuple(range(g.n))
    keep = g.vertices & ~universal
    if keep == 0:
        return None
    return induced_subgraph(g, keep), members(keep)


def best_expansion_bound(g: Graph | GraphTables, t_max: int = 2) -> BoundReport:
    """Best scan bound over canonical (s1, s2) choices and t <= t_max.

    Choices: both sides equal to the graph minus its universal vertices,
    and for bipartite graphs each side against the other (dominating
    vertices dropped from the subset side).  Universal vertices never
    lower boxicity, so bounds for the stripped induced subgraph apply to
    the original graph.  A choice on all of g's vertices reads g's own
    tables; any other gets tables of its induced subgraph.
    """
    if t_max < 1:
        raise ValueError("t_max must be positive")
    tables = tables_of(g)
    g = tables.graph
    candidates: list[tuple[GraphTables, int, int, tuple[int, ...]]] = []
    stripped = _strip_universal(g)
    if stripped is not None:
        core, labels = stripped
        if not is_complete(core):
            core_tables = tables if core is g else GraphTables(core)
            candidates.append((core_tables, core.vertices, core.vertices, labels))
    sides = bipartition(g)
    if sides is not None:
        for s1, s2 in (sides, sides[::-1]):
            drop = 0
            for u in bits(s2):
                if closed_neighborhood(g, 1 << u) & s1 == s1:
                    drop |= 1 << u
            s2_kept = s2 & ~drop
            if s2_kept == 0:
                continue
            keep = s1 | s2_kept
            if keep == g.vertices:
                candidates.append((tables, s1, s2_kept, tuple(range(g.n))))
                continue
            labels = members(keep)
            sub = induced_subgraph(g, keep)
            relabel = {v: i for i, v in enumerate(labels)}
            sub_s1 = mask_of(relabel[v] for v in bits(s1))
            sub_s2 = mask_of(relabel[v] for v in bits(s2_kept))
            candidates.append((GraphTables(sub), sub_s1, sub_s2, labels))

    best: ExpansionCertificate | None = None
    for sub, s1, s2, labels in candidates:
        for t in range(1, min(t_max, popcount(s1)) + 1):
            _, cert = certify_expansion_bound(sub, s1, s2, t)
            if best is None or cert.bound > best.bound:
                best = replace(cert, vertex_labels=labels)
    if best is None:
        return not_applicable(EXPANSION, "no_valid_instantiation")
    return bound_report(EXPANSION, Fraction(best.bound), best)
