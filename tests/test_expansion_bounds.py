"""Expansion coefficients, expander conditions, and the scan bound."""

from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings

from boxkit import expansion_bounds
from boxkit.bitset import full_mask, mask_of, popcount
from boxkit.errors import BudgetExceededError
from boxkit.graphs import (
    bipartite_from_edges,
    complement,
    complete_graph,
    cycle,
    empty_graph,
    from_edges,
)
from boxkit.expansion_bounds import (
    ScanEntry,
    best_expansion_bound,
    bipartite_universal_bound,
    certify_expansion_bound,
    co_expansion_table,
    cross_expansion,
    universal_bound,
)
from boxkit.families import (
    bipartite_tight_family,
    complete_multipartite,
    enumerate_graphs,
    petersen,
)
from boxkit.intervals import boxicity_exact
from boxkit.rng import Xoshiro256StarStar
from boxkit.supergraph_bounds import detect_family_bound

from .strategies import closed_unions, graphs


def _octahedron():
    return complete_multipartite(2, 3)


def _apollonian(n, seed):
    """Random maximal planar graph: K4 plus repeated face splits."""
    rng = Xoshiro256StarStar(seed)
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        a, b, c = faces.pop(rng.below(len(faces)))
        edges.extend([(a, v), (b, v), (c, v)])
        faces.extend([(a, b, v), (a, c, v), (b, c, v)])
    return from_edges(n, edges)


def _is_t_expander(g, t):
    """No t vertices share t common complement-neighbours, i.e. the
    complement has no t-by-t complete bipartite subgraph.  Outside X a
    vertex is a common complement-neighbour of X exactly when it lies
    outside N[X] in g."""
    return g.n - closed_unions(g).least(t)[0] < t


def _wheel():
    return from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0),
                          (4, 0), (4, 1), (4, 2), (4, 3)])


# --- expansion coefficients ------------------------------------------------

def test_cross_expansion_examples():
    v4 = full_mask(4)
    assert cross_expansion(cycle(4), v4, v4, 1) == Fraction(3, 4)
    assert cross_expansion(complete_graph(4), v4, v4, 1) == Fraction(1)


def test_cross_expansion_bipartite_sides():
    g = bipartite_tight_family(2, 2).graph
    side_a = mask_of(range(4))
    side_b = mask_of(range(4, 8))
    assert cross_expansion(g, side_a, side_b, 1) == Fraction(1, 2)


def test_cross_expansion_validation():
    v4 = full_mask(4)
    with pytest.raises(ValueError):
        cross_expansion(cycle(4), v4, v4, 0)
    with pytest.raises(ValueError):
        cross_expansion(cycle(4), v4, v4, 5)
    with pytest.raises(ValueError):
        cross_expansion(cycle(4), v4, 0, 1)


def test_co_expansion_table_examples():
    v4 = full_mask(4)
    assert co_expansion_table(cycle(4), v4, v4, 2) == (1, 2)
    # remove one edge from K4: the endpoints of the removed edge still
    # reach each other in the complement, but the other two reach nothing
    nearly = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert co_expansion_table(nearly, v4, v4, 1) == (0,)
    with pytest.raises(ValueError):
        co_expansion_table(cycle(4), v4, v4, 0)
    with pytest.raises(ValueError):
        co_expansion_table(cycle(4), v4, v4, 5)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=50, deadline=None)
def test_co_expansion_table_is_nondecreasing(g):
    table = co_expansion_table(g, g.vertices, g.vertices, g.n)
    assert all(a <= b for a, b in zip(table, table[1:]))


def test_expansion_profile_alpha():
    # beta_1 and the co-expansion rates m_j / j of C4 on its full vertex set
    v4 = full_mask(4)
    assert cross_expansion(cycle(4), v4, v4, 1) == Fraction(3, 4)
    table = co_expansion_table(cycle(4), v4, v4, 4)
    assert table == (1, 2, 3, 4)
    assert all(Fraction(m, j) == 1 for j, m in enumerate(table, start=1))


def test_regular_bipartite_alpha_floor_on_tight_family():
    # subsets drawn from side B, reach measured inside side A
    g = bipartite_tight_family(2, 3).graph
    side_a = mask_of(range(6))
    side_b = mask_of(range(6, 12))
    table = co_expansion_table(g, side_b, side_a, 6)
    for j, m in enumerate(table, start=1):
        assert Fraction(m, j) >= 1


# --- expander conditions ----------------------------------------------------

def test_is_t_expander_examples():
    assert not _is_t_expander(cycle(4), 1)
    assert _is_t_expander(cycle(4), 2)
    assert _is_t_expander(_octahedron(), 2)
    # the Petersen complement is the triangular graph, which has 4-cycles
    assert not _is_t_expander(petersen(), 2)


def test_is_t_expander_shortcut_and_validation():
    # 2t > n leaves no room for a t-by-t complement biclique: the strong
    # boundary lies outside the t chosen vertices, so it has n - t < t
    assert 3 - closed_unions(empty_graph(3)).least(2)[0] == 1
    assert _is_t_expander(empty_graph(3), 2)
    with pytest.raises(ValueError):
        _is_t_expander(cycle(4), 0)


def test_complement_of_planar_triangulation_is_3_expander():
    # a planar graph has no K_{3,3}: no three vertices share three neighbours
    for seed in (7, 8, 9):
        tri = _apollonian(10, seed)
        assert tri.edge_count == 3 * 10 - 6
        assert _is_t_expander(complement(tri), 3)


def test_is_bipartite_t_expander():
    """Every t vertices of side A leave fewer than t vertices of side B
    unreached, read off cross_expansion over the sides."""
    def is_expander(gb, t):
        side_a, side_b = full_mask(gb.na), full_mask(gb.nb) << gb.na
        reached = cross_expansion(gb.to_graph(), side_a, side_b, t) * gb.nb
        return gb.nb - reached < t

    hexagon = bipartite_from_edges(
        3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])
    assert not is_expander(hexagon, 1)
    assert is_expander(hexagon, 2)
    full = bipartite_from_edges(2, 2, [(a, b) for a in range(2) for b in range(2)])
    assert is_expander(full, 1)
    with pytest.raises(ValueError):
        is_expander(hexagon, 0)
    with pytest.raises(ValueError):
        is_expander(hexagon, 4)


# --- the certification scan -------------------------------------------------

def test_certify_four_cycle_trace():
    v4 = full_mask(4)
    report, cert = certify_expansion_bound(cycle(4), v4, v4, 1)
    assert report.value == Fraction(2)
    assert cert.bound == 2
    assert cert.beta_t == Fraction(3, 4)
    assert cert.trace == (
        ScanEntry(1, Fraction(2), 2, True),
        ScanEntry(2, Fraction(0), None, False),
    )


def test_certify_octahedron():
    g = _octahedron()
    v6 = full_mask(6)
    report, cert = certify_expansion_bound(g, v6, v6, 1)
    assert cert.bound == 3
    assert len(cert.trace) == 3
    assert [entry.infeasible for entry in cert.trace] == [True, True, False]


def test_certify_preconditions():
    v4 = full_mask(4)
    with pytest.raises(ValueError):
        certify_expansion_bound(cycle(4), 0b0111, 0b0011, 1)
    with pytest.raises(ValueError):
        certify_expansion_bound(cycle(4), v4, 0, 1)
    with pytest.raises(ValueError):
        certify_expansion_bound(cycle(4), v4, v4, 0)
    with pytest.raises(ValueError):
        certify_expansion_bound(cycle(4), v4, v4, 5)
    # in a complete graph every vertex dominates the other side
    with pytest.raises(ValueError):
        certify_expansion_bound(complete_graph(3), 0b111, 0b111, 1)


@pytest.mark.parametrize("g", [cycle(4), cycle(6), _octahedron(), petersen()])
def test_certify_trace_replays_against_tables(g):
    """Every trace entry must be recomputable from the published beta and
    the independently measured co-expansion table."""
    full = full_mask(g.n)
    _, cert = certify_expansion_bound(g, full, full, 1)
    n2 = g.n
    for entry in cert.trace:
        t_star = n2 * (1 - 2 * entry.b * (1 - cert.beta_t))
        assert entry.t_star == t_star
        if floor(t_star) >= 1:
            table = co_expansion_table(g, full, full, floor(t_star))
            assert entry.m_value == table[floor(t_star) - 1]
            assert entry.infeasible == (0 < entry.m_value)
        else:
            assert entry.m_value is None
            assert not entry.infeasible


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=60, deadline=None)
def test_certified_bound_is_sound(g):
    full = full_mask(g.n)
    try:
        report, cert = certify_expansion_bound(g, full, full, 1)
    except ValueError:
        return
    assert cert.bound <= boxicity_exact(g).value


# --- closed-form corollaries -------------------------------------------------

def test_universal_bound_examples():
    assert universal_bound(cycle(4)).value == Fraction(2)
    assert universal_bound(_octahedron()).value == Fraction(3)
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert universal_bound(star).value == Fraction(3, 4)
    assert universal_bound(complete_graph(4)).reason == "complete_graph"


def test_universal_bound_matches_singleton_scan():
    """ceil of the closed form equals the t = 1 scan on its core."""
    for g in (cycle(4), cycle(6), _octahedron()):
        closed = universal_bound(g)
        full = full_mask(g.n)
        _, cert = certify_expansion_bound(g, full, full, 1)
        assert cert.bound == -(-closed.value.numerator // closed.value.denominator)


def test_bipartite_universal_bound_values():
    two_two = bipartite_tight_family(2, 2)
    assert bipartite_universal_bound(two_two.bipartite).value == Fraction(1)
    two_three = bipartite_tight_family(2, 3)
    report = bipartite_universal_bound(two_three.bipartite)
    assert report.value == Fraction(3, 2)
    assert report.ceiling == 2


def test_bipartite_universal_bound_degenerate_star():
    star = bipartite_from_edges(1, 5, [(0, b) for b in range(5)])
    report = bipartite_universal_bound(star)
    assert report.applicable
    assert report.value == 0
    assert any("degenerate" in note for note in report.notes)


# The t-expander bound n (n - Delta - 1) / (2 (t-1) (2n - Delta - delta - 2))
# is n / 4 for a regular 2-expander, the square-free form of
# detect_family_bound; the tests below check it there.

def test_t_expander_bound_values():
    octahedron = detect_family_bound(_octahedron())
    assert octahedron.certificate["family"] == "c4free"
    assert octahedron.value == Fraction(3, 2)
    # C5 is a 2-expander too, but its complement is a cycle and the
    # cycle form n/3 is tried first and is larger than n/4
    assert _is_t_expander(cycle(5), 2)
    five = detect_family_bound(cycle(5))
    assert five.certificate["family"] == "complement_cycle"
    assert five.value == Fraction(5, 3) > Fraction(5, 4)


def test_t_expander_bound_reasons():
    assert detect_family_bound(complete_graph(5)).reason == "complete_graph"
    # a universal vertex is isolated in the complement, so it is not regular
    assert detect_family_bound(_wheel()).reason == "no_family_detected"
    assert not _is_t_expander(petersen(), 2)
    assert detect_family_bound(petersen()).reason == "no_family_detected"


def test_t_expander_bound_regular_specialization():
    # every regular 2-expander up to six vertices gets n/4, or n/3 when
    # its complement is a cycle
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            co = complement(g)
            rows = {popcount(row) for row in co.rows}
            if len(rows) > 1 or rows == {0} or not _is_t_expander(g, 2):
                continue
            report = detect_family_bound(g)
            if report.certificate["family"] == "c4free":
                assert report.value == Fraction(n, 4)
                assert report.certificate["k"] == rows.pop()
            else:
                assert report.value == Fraction(n, 3)


# --- the dispatcher -----------------------------------------------------------

def test_best_expansion_bound_examples():
    assert best_expansion_bound(cycle(4)).value == Fraction(2)
    assert best_expansion_bound(_octahedron()).value == Fraction(3)
    assert best_expansion_bound(empty_graph(2)).value == Fraction(1)
    assert best_expansion_bound(empty_graph(3)).value == Fraction(1)


def test_best_expansion_bound_on_complete_graphs():
    for n in (1, 2, 5):
        report = best_expansion_bound(complete_graph(n))
        assert report.reason == "no_valid_instantiation"


def test_best_expansion_bound_strips_universal_vertices():
    report = best_expansion_bound(_wheel())
    assert report.value == Fraction(2)
    assert report.certificate.vertex_labels == (0, 1, 2, 3)


def test_best_expansion_bound_uses_bipartition():
    """With t capped at 1 the whole-graph scan on a hexagon stalls at 1;
    splitting along the bipartition reaches the true boxicity."""
    report = best_expansion_bound(cycle(6), t_max=1)
    assert report.value == Fraction(2)
    cert = report.certificate
    assert popcount(cert.s1) == 3
    assert popcount(cert.s2) == 3


def test_best_expansion_bound_rejects_bad_t_max():
    with pytest.raises(ValueError):
        best_expansion_bound(cycle(4), t_max=0)


def test_best_expansion_bound_candidates_meet_the_scan_preconditions():
    # no core vertex dominates the core once universal vertices are
    # stripped, and the bipartite candidates drop their dominating
    # vertices, so every candidate is scanned for every t up to |s1|
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            best_expansion_bound(g, t_max=n)


def test_best_expansion_bound_raises_on_a_malformed_candidate(monkeypatch):
    def refuse(*args):
        raise ValueError("malformed candidate")

    monkeypatch.setattr(expansion_bounds, "certify_expansion_bound", refuse)
    with pytest.raises(ValueError, match="malformed candidate"):
        best_expansion_bound(cycle(5))


@given(graphs(min_n=1, max_n=6))
@settings(max_examples=50, deadline=None)
def test_best_expansion_bound_is_sound(g):
    report = best_expansion_bound(g)
    if report.applicable:
        assert report.ceiling <= boxicity_exact(g).value


def test_subset_budget_guard():
    full = full_mask(40)
    with pytest.raises(BudgetExceededError):
        cross_expansion(empty_graph(40), full, full, 20)
