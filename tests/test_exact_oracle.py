from fractions import Fraction
from itertools import permutations

import pytest

from boxkit import intervals
from boxkit.bitset import bits, popcount
from boxkit.errors import BudgetExceededError
from boxkit.families import RandomModelSpec, complete_multipartite, sample
from boxkit.graphs import complement, cycle, from_pair_mask
from boxkit.intervals import (
    _coverage_catalog,
    _nonedge_list,
    boxicity_exact,
    boxicity_le,
    verify_box_certificate,
)


def _brute_coverage_catalog(g):
    """The catalog by scanning every ordering: the first ordering in
    itertools order for each omitted mask, then the maximal masks by
    decreasing popcount and increasing mask."""
    n = g.n
    nonedges = _nonedge_list(g)
    closed = [g.rows[v] | (1 << v) for v in range(n)]
    seen = {}
    for seq in permutations(range(n)):
        ranks = [0] * n
        for pos, v in enumerate(seq):
            ranks[v] = pos
        reach = [min(ranks[w] for w in bits(closed[v])) for v in range(n)]
        killed = 0
        for i, (u, v) in enumerate(nonedges):
            if ranks[u] < ranks[v]:
                lo, hi = u, v
            else:
                lo, hi = v, u
            if reach[hi] > ranks[lo]:
                killed |= 1 << i
        if killed not in seen:
            seen[killed] = seq
    items = sorted(seen.items(), key=lambda kv: (-popcount(kv[0]), kv[0]))
    maximal = []
    for mask, seq in items:
        if any(mask | kept == kept for kept, _ in maximal):
            continue
        maximal.append((mask, seq))
    return maximal


def _gnp(n, seed, p=Fraction(1, 2)):
    return sample(RandomModelSpec("gnp", n, seed, p=p))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_catalog_matches_permutation_scan_on_every_labelled_graph(n):
    pairs = n * (n - 1) // 2
    for mask in range(1 << pairs):
        g = from_pair_mask(n, mask)
        assert list(_coverage_catalog(g)) == _brute_coverage_catalog(g), mask


@pytest.mark.parametrize("n", [6, 7])
def test_catalog_matches_permutation_scan_on_random_graphs(n):
    count = 12 if n == 6 else 4
    for seed in range(count):
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            g = _gnp(n, seed, p)
            assert list(_coverage_catalog(g)) == _brute_coverage_catalog(g), (seed, p)


@pytest.mark.parametrize("g", [
    complete_multipartite(2, 4),
    cycle(8),
    complement(cycle(8)),
    _gnp(8, 1),
    _gnp(8, 2),
], ids=["K2222", "C8", "co-C8", "gnp8-1", "gnp8-2"])
def test_catalog_matches_permutation_scan_at_n8(g):
    assert list(_coverage_catalog(g)) == _brute_coverage_catalog(g)


def test_boxicity_exact_builds_catalog_once(monkeypatch):
    builds = []

    def counting(g):
        builds.append(g)
        return _nonedge_list(g)

    monkeypatch.setattr(intervals, "_nonedge_list", counting)
    _coverage_catalog.cache_clear()
    g = complete_multipartite(2, 4)
    assert boxicity_exact(g).value == 4
    assert builds == [g]
    other = cycle(8)
    assert boxicity_exact(other).value == 2
    assert builds == [g, other]


def test_boxicity_le_argument_checks():
    with pytest.raises(BudgetExceededError):
        boxicity_le(cycle(9), -1)
    with pytest.raises(ValueError):
        boxicity_le(cycle(4), -1)


@pytest.mark.parametrize("g, value", [
    (complete_multipartite(2, 4), 4),
    (cycle(8), 2),
], ids=["K2222", "C8"])
def test_exact_certificates_verify(g, value):
    result = boxicity_exact(g)
    assert result.value == value
    assert verify_box_certificate(g, result.certificate)
