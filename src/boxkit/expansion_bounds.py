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
# The largest expansion parameter t tried when the caller names none.
DEFAULT_T_MAX = 2


def check_t_max(t_max: int) -> None:
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")


def cross_expansion(g: Graph | GraphTables, subset_side: int, target_side: int,
                    t: int) -> Fraction:
    """beta_t: worst closed-neighborhood coverage of the target side by
    any t vertices of the subset side."""
    if target_side == 0:
        raise ValueError("target side must be nonempty")
    tables = tables_of(g)
    rows = [tables.graph.closed_rows[v] & target_side for v in bits(subset_side)]
    return Fraction(tables.unions(rows).least(t)[0], popcount(target_side))


def _co_rows(g: Graph, subset_side: int, target_side: int) -> list[int]:
    """The complement neighbourhood of each subset-side vertex, inside
    the target side: m_j is the least union of j of them."""
    return [target_side & ~g.closed_rows[v] for v in bits(subset_side)]


def co_expansion_table(g: Graph, subset_side: int, target_side: int,
                       j_max: int) -> tuple[int, ...]:
    """m_j for j = 1 .. j_max: worst complement-neighborhood reach into
    the target side from any j vertices of the subset side."""
    size = popcount(subset_side)
    if not 1 <= j_max <= size:
        raise ValueError(f"j_max = {j_max} outside 1..{size}")
    unions = LeastUnions(_co_rows(g, subset_side, target_side))
    return tuple(unions.least(j)[0] for j in range(1, j_max + 1))


def _dominating(g: Graph, s1: int, s2: int) -> int:
    """The vertices of s2 whose closed neighbourhoods contain s1."""
    return mask_of(u for u in bits(s2) if g.closed_rows[u] & s1 == s1)


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
    if dominating := _dominating(g, s1, s2):
        raise ValueError(f"vertex {next(bits(dominating))} of s2 dominates s1")

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


def best_expansion_bound(g: Graph | GraphTables, t_max: int = DEFAULT_T_MAX) -> BoundReport:
    """Best scan bound over canonical (s1, s2) choices and t <= t_max.

    The choices, as vertex sets of g: both sides equal to the core, the
    vertices that are not universal; then, for bipartite graphs, each
    side against the other with the vertices dominating the subset side
    dropped.  Boxicity never rises on an induced subgraph, so a bound for
    G[s1 | s2] applies to g.  Every choice runs through one path: when
    s1 | s2 is all of g it reads g's own tables, and otherwise the tables
    of G[s1 | s2], both sides relabelled through members(s1 | s2), which
    the certificate keeps as vertex_labels.
    """
    check_t_max(t_max)
    tables = tables_of(g)
    g = tables.graph
    core = g.vertices & ~universal_vertices(g)
    choices = [(core, core)]
    if (sides := bipartition(g)) is not None:
        choices += [(s1, s2 & ~_dominating(g, s1, s2)) for s1, s2 in (sides, sides[::-1])]

    best: ExpansionCertificate | None = None
    for s1, s2 in choices:
        if not (s1 and s2):
            continue
        labels = members(s1 | s2)
        sub = tables
        if s1 | s2 != g.vertices:
            sub = GraphTables(induced_subgraph(g, s1 | s2))
            s1, s2 = (mask_of(i for i, v in enumerate(labels) if side >> v & 1)
                      for side in (s1, s2))
        for t in range(1, min(t_max, popcount(s1)) + 1):
            _, cert = certify_expansion_bound(sub, s1, s2, t)
            if best is None or cert.bound > best.bound:
                best = replace(cert, vertex_labels=labels)
    if best is None:
        return not_applicable(EXPANSION, "no_valid_instantiation")
    return bound_report(EXPANSION, Fraction(best.bound), best)
