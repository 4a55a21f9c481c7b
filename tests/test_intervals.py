from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, permutations
from operator import or_

import pytest
from hypothesis import given, settings

from boxkit.bitset import bits, popcount
from boxkit.errors import BudgetExceededError
from boxkit.graphs import (
    Graph,
    complete_graph,
    cycle,
    empty_graph,
    from_edges,
    path,
    vertex_boundary,
)
from boxkit.intervals import (
    BoxCertificate,
    IntervalRep,
    Ordering,
    boxicity_exact,
    boxicity_le,
    canonical_rep,
    induced_numbering,
    intersect_realized,
    min_interval_supergraph,
    verify_box_certificate,
)

from .strategies import closed_unions, graphs, graphs_with_ordering


def _realized(rep, n):
    return Graph(n, intersect_realized([rep], n))


def _rep(*pairs):
    return IntervalRep(tuple((Fraction(a), Fraction(b)) for a, b in pairs))


def test_interval_rep_validation():
    with pytest.raises(ValueError):
        _rep((1, 1))
    with pytest.raises(ValueError):
        _rep((0, 1), (1, 2))
    _rep((0, 1), (Fraction(1, 2), 2))


@pytest.mark.parametrize("endpoint", [0.5, 2.0, Decimal("0.5"), "1", None],
                         ids=["float", "integral-float", "decimal", "str", "none"])
def test_interval_rep_rejects_non_rational_endpoints(endpoint):
    with pytest.raises(ValueError, match="not an int or a Fraction"):
        IntervalRep(((Fraction(0), Fraction(1)), (endpoint, Fraction(3))))


def test_interval_rep_scales_endpoints_to_ints():
    # the least common multiple of the denominators 1, 2, 3 and 4 is 12
    pairs = ((0, Fraction(3, 2)), (Fraction(-1, 3), Fraction(5, 4)))
    rep = IntervalRep(pairs)
    assert rep.scaled == ((0, 18), (-4, 15))
    assert repr(rep) == f"IntervalRep(intervals={pairs!r})"
    assert rep == IntervalRep(pairs) and hash(rep) == hash(IntervalRep(pairs))
    assert induced_numbering(rep).sequence() == (1, 0)
    assert _realized(rep, 2).rows == complete_graph(2).rows


def test_realize_basic_overlaps():
    # chain of overlaps realizes a path, disjoint intervals stay apart
    rep = _rep((0, 10), (9, 12), (11, 14), (13, 16))
    assert _realized(rep, 4).rows == path(4).rows
    rep2 = _rep((0, 1), (2, 3), (4, 5))
    assert _realized(rep2, 3).rows == empty_graph(3).rows
    # containment is still an overlap
    rep3 = _rep((0, 10), (4, 5))
    assert _realized(rep3, 2).rows == complete_graph(2).rows


def test_ordering_round_trip():
    o = Ordering.from_sequence((2, 0, 1))
    assert o.ranks == (1, 2, 0)
    assert o.sequence() == (2, 0, 1)
    with pytest.raises(ValueError):
        Ordering((0, 0, 2))


@settings(max_examples=50)
@given(graphs_with_ordering(min_n=1, max_n=7))
def test_canonical_supergraph_contains_g_and_induces_eta(go):
    g, eta = go
    rep = canonical_rep(g, eta)
    supergraph = _realized(rep, g.n)
    for v in range(g.n):
        assert g.rows[v] & ~supergraph.rows[v] == 0
    assert induced_numbering(rep) == eta


@settings(max_examples=50)
@given(graphs_with_ordering(min_n=1, max_n=7))
def test_canonical_rep_matches_closed_neighborhood_minimum(go):
    # each reach is the least rank over N[v], each left end one Fraction
    g, eta = go
    n = g.n
    expected = tuple((Fraction(min(eta.ranks[w] for w in bits(g.rows[v] | 1 << v)))
                      - Fraction(v + 1, n + 1), Fraction(eta.ranks[v])) for v in range(n))
    assert canonical_rep(g, eta).intervals == expected


@settings(max_examples=50)
@given(graphs_with_ordering(min_n=2, max_n=7))
def test_canonical_edge_count_is_prefix_boundary_sum(go):
    g, eta = go
    prefixes = list(accumulate((1 << v for v in eta.sequence()), or_))
    boundary_sum = sum(popcount(vertex_boundary(g, s)) for s in prefixes[:-1])
    assert _realized(canonical_rep(g, eta), g.n).edge_count == boundary_sum


def test_canonical_supergraph_of_c4_identity_ordering():
    c4 = cycle(4)
    supergraph = _realized(canonical_rep(c4, Ordering((0, 1, 2, 3))), 4)
    expected = from_edges(4, c4.edges + [(1, 3)])
    assert supergraph.rows == expected.rows
    assert supergraph.edge_count == 5


def _brute_min_supergraph(g):
    """Minimum canonical-supergraph edges over every ordering, computed
    by the reach rule on ranks rather than the subset DP."""
    n = g.n
    closed = [g.rows[v] | (1 << v) for v in range(n)]
    best = None
    for seq in permutations(range(n)):
        ranks = [0] * n
        for pos, v in enumerate(seq):
            ranks[v] = pos
        reach = [min(ranks[w] for w in bits(closed[v])) for v in range(n)]
        count = 0
        for u in range(n):
            for v in range(n):
                if ranks[u] < ranks[v] and reach[v] <= ranks[u]:
                    count += 1
        if best is None or count < best:
            best = count
    return best


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_min_supergraph_dp_matches_brute_force(g):
    result = min_interval_supergraph(g)
    assert result.edge_count == _brute_min_supergraph(g)
    realized = _realized(canonical_rep(g, result.ordering), g.n)
    assert realized.edge_count == result.edge_count


@settings(max_examples=40)
@given(graphs_with_ordering(min_n=1, max_n=6))
def test_min_supergraph_dominates_every_ordering(go):
    g, eta = go
    assert (min_interval_supergraph(g).edge_count
            <= _realized(canonical_rep(g, eta), g.n).edge_count)


@settings(max_examples=40)
@given(graphs(min_n=2, max_n=7))
def test_min_supergraph_nonedges_below_profile_sum(g):
    # nonedges(I_min) never exceeds the summed strong-boundary profile
    # of the complement, n minus the least union of k of g's closed rows
    pairs = g.n * (g.n - 1) // 2
    nonedges_min = pairs - min_interval_supergraph(g).edge_count
    profile_sum = sum(g.n - value for value, _ in closed_unions(g).every())
    assert nonedges_min <= profile_sum


def test_boxicity_small_examples():
    assert boxicity_exact(complete_graph(4)).value == 0
    assert boxicity_exact(path(4)).value == 1
    assert boxicity_exact(cycle(4)).value == 2
    assert boxicity_exact(cycle(5)).value == 2
    assert boxicity_exact(empty_graph(3)).value == 1


def test_boxicity_le_and_certificates():
    c4 = cycle(4)
    assert boxicity_le(c4, 1) is None
    cert = boxicity_le(c4, 2)
    assert cert is not None and cert.k == 2
    assert verify_box_certificate(c4, cert)
    exact = boxicity_exact(c4)
    assert verify_box_certificate(c4, exact.certificate)
    # a certificate for the wrong graph fails verification
    assert not verify_box_certificate(cycle(5) if c4.n == 5 else path(4),
                                      exact.certificate)


def test_certificate_for_another_vertex_count_is_false():
    cert = boxicity_exact(cycle(5)).certificate
    assert not verify_box_certificate(path(4), cert)
    assert not verify_box_certificate(cycle(6), cert)
    # orderings of the graph's size beside representations of another
    c4 = boxicity_exact(cycle(4)).certificate
    mixed = BoxCertificate(2, c4.orderings, cert.reps)
    assert not verify_box_certificate(cycle(4), mixed)


def test_certificate_tampering_detected():
    g = cycle(4)
    cert = boxicity_exact(g).certificate
    wrong_k = BoxCertificate(cert.k + 1, cert.orderings, cert.reps)
    assert not verify_box_certificate(g, wrong_k)
    assert verify_box_certificate(complete_graph(3), BoxCertificate(0, (), ()))
    assert not verify_box_certificate(path(3), BoxCertificate(0, (), ()))


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=1, max_n=6))
def test_boxicity_at_most_half_n(g):
    result = boxicity_exact(g)
    assert result.value <= g.n // 2
    assert verify_box_certificate(g, result.certificate)


def test_boxicity_budget_guard():
    # one vertex past BOX_MAX_VERTICES = 9
    with pytest.raises(BudgetExceededError):
        boxicity_exact(cycle(10))
