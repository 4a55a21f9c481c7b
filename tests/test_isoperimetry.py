import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxkit import isoperimetry
from boxkit.bitset import mask_of, popcount
from math import comb

from boxkit.errors import PROFILE_MAX_VERTICES, SUBSET_BUDGET, BudgetExceededError
from boxkit.graphs import (
    complement,
    cycle,
    empty_graph,
    strong_vertex_boundary,
    vertex_boundary,
)
from boxkit.isoperimetry import LeastUnions, _least_union

from .strategies import boundary_profiles, closed_unions, graphs


def _brute_profiles(g):
    """Reference profiles straight from the definitions."""
    bv, cv, bw, cw = [], [], [], []
    for k in range(1, g.n):
        best_b, best_c = None, None
        wit_b, wit_c = None, None
        for combo in combinations(range(g.n), k):
            x = mask_of(combo)
            b = popcount(vertex_boundary(g, x))
            c = popcount(strong_vertex_boundary(g, x))
            if best_b is None or b < best_b:
                best_b, wit_b = b, x
            if best_c is None or c > best_c:
                best_c, wit_c = c, x
        bv.append(best_b)
        cv.append(best_c)
        bw.append(wit_b)
        cw.append(wit_c)
    return tuple(bv), tuple(cv), tuple(bw), tuple(cw)


@settings(max_examples=60)
@given(graphs(min_n=2, max_n=6))
def test_profile_matches_brute_force_including_witnesses(g):
    # combinations() scans in lexicographic order, so the first winner
    # is also the lexicographically smallest one
    assert boundary_profiles(g) == _brute_profiles(g)


@settings(max_examples=60)
@given(graphs(min_n=2, max_n=7))
def test_complementation_duality(g):
    boundary, strong, _, _ = boundary_profiles(g)
    co_boundary, co_strong, _, _ = boundary_profiles(complement(g))
    for k in range(1, g.n):
        assert co_strong[k - 1] == g.n - k - boundary[k - 1]
        assert strong[k - 1] == g.n - k - co_boundary[k - 1]


@settings(max_examples=60)
@given(graphs(min_n=3, max_n=7))
def test_strong_boundary_profile_is_nonincreasing(g):
    c = boundary_profiles(g)[1]
    assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))


def test_cycle4_profiles():
    boundary, strong, boundary_witness, strong_witness = boundary_profiles(cycle(4))
    assert boundary == (2, 2, 1)
    assert strong == (2, 2, 0)
    assert boundary_witness == (0b0001, 0b0011, 0b0111)
    # only the antipodal pairs have two common neighbors
    assert strong_witness == (0b0001, 0b0101, 0b0111)


def test_single_size_queries_match_profile():
    # one scan per size against one scan over all sizes, on g's closed
    # rows and on the complement's
    g = cycle(5)
    for h in (g, complement(g)):
        single = closed_unions(h)
        assert tuple(single.least(k) for k in range(1, g.n)) == closed_unions(h).every()


def test_subset_size_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        closed_unions(g).least(0)
    with pytest.raises(ValueError):
        closed_unions(complement(g)).least(5)


def test_budget_guards(monkeypatch):
    big = closed_unions(empty_graph(PROFILE_MAX_VERTICES + 1))
    wide = closed_unions(empty_graph(40))
    monkeypatch.setattr(isoperimetry, "np", _NoNumpy())
    with pytest.raises(BudgetExceededError):
        big.every()
    with pytest.raises(BudgetExceededError, match=r"C\(40,20\) subsets exceed"):
        wide.least(20)


def _loop_least_union(rows, k):
    """The least union of k rows and its first witness, scanning
    combinations in lexicographic order with strict improvements only."""
    best = None
    for combo in combinations(range(len(rows)), k):
        union = 0
        for x in combo:
            union |= rows[x]
        if best is None or popcount(union) < best[0]:
            best = (popcount(union), mask_of(combo))
    return best


def _random_rows(seed, count, width):
    rng = random.Random(seed)
    # ANDing two draws thins the rows, so unions tie more often
    return [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(count)]


@pytest.mark.parametrize("width", [5, 70, 130])
def test_least_union_matches_loop(width):
    # one, two and three 64-bit words per row
    for seed, count in enumerate((1, 2, 7, 11, 12)):
        rows = _random_rows(seed, count, width)
        for k in range(1, count + 1):
            assert _least_union(rows, k) == _loop_least_union(rows, k), (seed, k)


def test_least_union_witness_is_lexicographically_first():
    # every 2-subset of equal rows ties, and zero rows tie at 0
    assert _least_union([3, 3, 3, 3], 2) == (2, 0b0011)
    assert _least_union([7, 0, 5, 0, 0], 2) == (0, 0b01010)
    assert _least_union([0] * 9, 9) == (0, (1 << 9) - 1)


@pytest.mark.parametrize("entries", [1, 2, 7])
def test_least_union_matches_loop_across_chunks(monkeypatch, entries):
    # chunks of 1 to 7 words split the last stage at many places, and
    # rows of 130 bits hold three words each
    monkeypatch.setattr(isoperimetry, "_CHUNK_ENTRIES", entries)
    for width in (5, 70, 130):
        rows = _random_rows(width, 10, width)
        for k in range(1, 11):
            assert _least_union(rows, k) == _loop_least_union(rows, k), (width, k)


def test_least_union_last_stage_stays_within_the_chunk(monkeypatch):
    # C(60, 3) = 34220 sets in the last stage, against 1711 in the one
    # before; held whole, one stage array of 8-byte words is 267 KB
    monkeypatch.setattr(isoperimetry, "_CHUNK_ENTRIES", 1 << 10)
    rows = _random_rows(3, 60, 60)
    expected = _loop_least_union(rows, 3)
    tracemalloc.start()
    try:
        result = _least_union(rows, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak < 1 << 17


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used before the budget check")


def test_least_union_budget_raises_before_any_array(monkeypatch):
    monkeypatch.setattr(isoperimetry, "np", _NoNumpy())
    with pytest.raises(BudgetExceededError, match=r"C\(40,8\) subsets exceed"):
        _least_union([1 << v for v in range(40)], 8)


@st.composite
def _row_lists(draw):
    """1 to PROFILE_MAX_VERTICES rows of up to 32 bits, thinned so that
    unions tie, with empty and repeated rows mixed in."""
    width = draw(st.integers(1, 32))
    row = st.builds(lambda x, y: x & y, st.integers(0, (1 << width) - 1),
                    st.integers(0, (1 << width) - 1))
    return draw(st.lists(st.one_of(row, st.just(0), st.just((1 << width) - 1)),
                         min_size=1, max_size=PROFILE_MAX_VERTICES))


@settings(max_examples=80, deadline=None)
@given(_row_lists())
def test_routed_scan_matches_colex_scan(rows):
    # sizes past the budget raise on both paths; the cheap ones compare
    n = len(rows)
    unions = LeastUnions(rows)
    for k in range(1, n + 1):
        if comb(n, k) > SUBSET_BUDGET:
            with pytest.raises(BudgetExceededError):
                unions.least(k)
        elif comb(n, k) <= 20_000:
            assert unions.least(k) == _least_union(rows, k), k


def test_routed_scan_takes_the_colex_path_past_the_split_limits():
    # 29 rows, or rows wider than 32 bits, are not split into halves
    for rows in (_random_rows(5, PROFILE_MAX_VERTICES + 1, 20), _random_rows(6, 12, 40)):
        for k in (1, 2, 3, len(rows) - 1, len(rows)):
            assert LeastUnions(rows).least(k) == _loop_least_union(rows, k)


def test_routed_scan_handles_one_row_and_every_row():
    assert LeastUnions([0b101]).least(1) == (2, 1)
    rows = _random_rows(4, 9, 9)
    full = 0
    for row in rows:
        full |= row
    assert LeastUnions(rows).least(9) == (popcount(full), (1 << 9) - 1)


def test_routed_scan_validates_the_size():
    for k in (0, 4):
        with pytest.raises(ValueError):
            LeastUnions([1, 2, 4]).least(k)


@pytest.mark.parametrize("n, k", [(26, 13), (27, 11), (28, 10), (28, 14), (40, 8)])
def test_routed_scan_budget_raises_before_any_array(monkeypatch, n, k):
    # at 26 to 28 rows exactly the sizes past SUBSET_BUDGET overrun
    assert comb(n, k) > SUBSET_BUDGET
    monkeypatch.setattr(isoperimetry, "np", _NoNumpy())
    with pytest.raises(BudgetExceededError, match=rf"C\({n},{k}\) subsets exceed"):
        LeastUnions([1 << v for v in range(n)]).least(k)


@pytest.mark.parametrize("n", [26, 27, 28])
def test_routed_scan_overruns_only_past_the_budget(n):
    over = [k for k in range(1, n + 1) if comb(n, k) > SUBSET_BUDGET]
    unions = LeastUnions([1 << v for v in range(n)])
    for k in over:
        with pytest.raises(BudgetExceededError):
            unions.least(k)
    # the largest size still inside the budget runs
    k = min(over) - 1
    assert unions.least(k) == (k, (1 << k) - 1)


def test_every_refuses_rows_wider_than_32_bits_before_any_array(monkeypatch):
    rows = [1 << 40, 1, 2]
    # one size at a time, such rows take the prefix scan
    assert LeastUnions(rows).least(2) == (2, 0b011)
    monkeypatch.setattr(isoperimetry, "np", _NoNumpy())
    with pytest.raises(ValueError, match="rows of at most 32 bits"):
        LeastUnions(rows).every()
