from itertools import combinations

import pytest
from hypothesis import given, settings

from boxkit.bitset import mask_of, popcount
from boxkit.errors import PROFILE_MAX_VERTICES, BudgetExceededError
from boxkit.graphs import (
    complement,
    cycle,
    empty_graph,
    strong_vertex_boundary,
    vertex_boundary,
)
from boxkit.isoperimetry import (
    iso_profile,
    max_strong_boundary,
    min_boundary,
)

from .strategies import graphs


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
    prof = iso_profile(g)
    bv, cv, bw, cw = _brute_profiles(g)
    assert prof.min_boundary == bv
    assert prof.max_strong_boundary == cv
    # combinations() scans in lexicographic order, so the first winner
    # is also the lexicographically smallest one
    assert prof.min_boundary_witness == bw
    assert prof.max_strong_boundary_witness == cw


@settings(max_examples=60)
@given(graphs(min_n=2, max_n=7))
def test_complementation_duality(g):
    co = complement(g)
    prof = iso_profile(g)
    prof_co = iso_profile(co)
    for k in range(1, g.n):
        assert prof_co.max_strong_boundary[k - 1] == g.n - k - prof.min_boundary[k - 1]
        assert prof.max_strong_boundary[k - 1] == g.n - k - prof_co.min_boundary[k - 1]


@settings(max_examples=60)
@given(graphs(min_n=3, max_n=7))
def test_strong_boundary_profile_is_nonincreasing(g):
    prof = iso_profile(g)
    c = prof.max_strong_boundary
    assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))


def test_cycle4_profiles():
    prof = iso_profile(cycle(4))
    assert prof.min_boundary == (2, 2, 1)
    assert prof.max_strong_boundary == (2, 2, 0)
    assert prof.min_boundary_witness == (0b0001, 0b0011, 0b0111)
    # only the antipodal pairs have two common neighbors
    assert prof.max_strong_boundary_witness == (0b0001, 0b0101, 0b0111)


def test_single_size_queries_match_profile():
    g = cycle(5)
    prof = iso_profile(g)
    for k in range(1, g.n):
        b, bwit = min_boundary(g, k)
        c, cwit = max_strong_boundary(g, k)
        assert b == prof.min_boundary[k - 1]
        assert c == prof.max_strong_boundary[k - 1]
        assert bwit == prof.min_boundary_witness[k - 1]
        assert cwit == prof.max_strong_boundary_witness[k - 1]


def test_subset_size_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        min_boundary(g, 0)
    with pytest.raises(ValueError):
        max_strong_boundary(g, 5)


def test_budget_guards():
    with pytest.raises(BudgetExceededError):
        iso_profile(empty_graph(PROFILE_MAX_VERTICES + 1))
    with pytest.raises(BudgetExceededError):
        min_boundary(empty_graph(40), 20)
