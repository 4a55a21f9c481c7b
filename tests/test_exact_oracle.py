from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from boxkit import intervals
from boxkit.bitset import bits, full_mask, popcount
from boxkit.errors import BudgetExceededError
from boxkit.families import RandomModelSpec, complete_multipartite, sample
from boxkit.graphs import BipartiteGraph, complement, cycle, empty_graph, from_pair_mask
from boxkit.intervals import (
    BOX_MAX_VERTICES,
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


def _dict_coverage_catalog(g):
    """The catalog by the prefix DP over placed sets with one dict of
    {omitted mask: first packed prefix} per placed set, extended one
    (set, vertex) pair at a time, then the same maximal filter as the
    scan above."""
    n = g.n
    closed = [g.rows[v] | (1 << v) for v in range(n)]
    pair_bit = [[0] * n for _ in range(n)]
    for i, (u, v) in enumerate(_nonedge_list(g)):
        pair_bit[u][v] = pair_bit[v][u] = 1 << i
    layer = {0: {0: 0}}
    for _ in range(n):
        nxt = {}
        while layer:
            placed, states = layer.popitem()
            untouched = [y for y in range(n) if not closed[y] & placed]
            for x in range(n):
                if placed >> x & 1:
                    continue
                term = 0
                for y in untouched:
                    term |= pair_bit[x][y]
                bucket = nxt.setdefault(placed | 1 << x, {})
                for mask, code in states.items():
                    mask |= term
                    code = code * n + x
                    kept = bucket.get(mask)
                    if kept is None or code < kept:
                        bucket[mask] = code
        layer = nxt
    seen = {}
    for mask, code in layer[full_mask(n)].items():
        seq = []
        for _ in range(n):
            code, v = divmod(code, n)
            seq.append(v)
        seen[mask] = tuple(reversed(seq))
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


_N8_MODELS = {
    "gnp-1/4": {"model": "gnp", "p": Fraction(1, 4)},
    "gnp-1/2": {"model": "gnp", "p": Fraction(1, 2)},
    "gnp-3/4": {"model": "gnp", "p": Fraction(3, 4)},
    "3-regular": {"model": "regular", "k": 3},
    "bipartite_gnp-1/2": {"model": "bipartite_gnp", "p": Fraction(1, 2)},
}


def _assert_plain_ints(catalog):
    # a numpy scalar would compare equal but print differently, and the
    # orderings end up in certificate bytes
    for mask, seq in catalog:
        assert type(mask) is int
        assert all(type(v) is int for v in seq)


@pytest.mark.parametrize("model", list(_N8_MODELS))
def test_catalog_matches_dict_dp_at_n8(model):
    for seed in range(8):
        drawn = sample(RandomModelSpec(n=8, seed=seed, **_N8_MODELS[model]))
        g = drawn.to_graph() if isinstance(drawn, BipartiteGraph) else drawn
        catalog = _coverage_catalog(g)
        assert list(catalog) == _dict_coverage_catalog(g), seed
        _assert_plain_ints(catalog)


@pytest.mark.parametrize("g", [cycle(9), _gnp(9, 1), _gnp(9, 2)], ids=["C9", "gnp9-1", "gnp9-2"])
def test_catalog_matches_dict_dp_at_n9(g):
    # past BOX_MAX_VERTICES, so sets, masks and codes are int64
    catalog = _coverage_catalog(g)
    assert list(catalog) == _dict_coverage_catalog(g)
    _assert_plain_ints(catalog)


def test_catalog_dtypes_have_headroom_at_the_exact_cap():
    n = BOX_MAX_VERTICES
    pairs = comb(n, 2)
    assert pairs <= 63, "omitted masks outgrow int64"
    assert n**n <= 2**63, "packed orderings outgrow int64"
    assert n + pairs <= 63, "(placed set, mask) keys outgrow int64"


def test_catalog_refuses_keys_wider_than_int64():
    _coverage_catalog.cache_clear()
    with pytest.raises(ValueError, match="n \\+ nonedges <= 63"):
        _coverage_catalog(empty_graph(11))


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
