import hashlib
import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest

from boxkit import intervals
from boxkit.bitset import bits, full_mask, popcount
from boxkit.errors import BudgetExceededError
from boxkit.families import (
    RandomModelSpec,
    cobipartite_tight_family,
    complete_multipartite,
    enumerate_graphs,
    sample,
)
from boxkit.graphs import (
    BipartiteGraph,
    complement,
    cycle,
    empty_graph,
    from_edges,
    from_pair_mask,
)
from boxkit.intervals import (
    BOX_MAX_VERTICES,
    _coverage_catalog,
    _nonedge_list,
    _unrank,
    boxicity_exact,
    boxicity_le,
    verify_box_certificate,
)

from .test_isoperimetry import _NoNumpy


def _decoded(catalog, n):
    """The catalog with each Lehmer rank decoded to its vertex sequence."""
    return [(mask, _unrank(n, rank).sequence()) for mask, rank in catalog]


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
        assert _decoded(_coverage_catalog(g), g.n) == _brute_coverage_catalog(g), mask


@pytest.mark.parametrize("n", [6, 7])
def test_catalog_matches_permutation_scan_on_random_graphs(n):
    count = 12 if n == 6 else 4
    for seed in range(count):
        for p in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
            g = _gnp(n, seed, p)
            assert _decoded(_coverage_catalog(g), g.n) == _brute_coverage_catalog(g), (seed, p)


@pytest.mark.parametrize("g", [
    complete_multipartite(2, 4),
    cycle(8),
    complement(cycle(8)),
    _gnp(8, 1),
    _gnp(8, 2),
], ids=["K2222", "C8", "co-C8", "gnp8-1", "gnp8-2"])
def test_catalog_matches_permutation_scan_at_n8(g):
    assert _decoded(_coverage_catalog(g), g.n) == _brute_coverage_catalog(g)


_N8_MODELS = {
    "gnp-1/4": {"model": "gnp", "p": Fraction(1, 4)},
    "gnp-1/2": {"model": "gnp", "p": Fraction(1, 2)},
    "gnp-3/4": {"model": "gnp", "p": Fraction(3, 4)},
    "3-regular": {"model": "regular", "k": 3},
    "bipartite_gnp-1/2": {"model": "bipartite_gnp", "p": Fraction(1, 2)},
}


def _assert_plain_ints(catalog):
    # a numpy scalar would compare equal but print differently, and the
    # orderings decoded from the ranks end up in certificate bytes
    for mask, rank in catalog:
        assert type(mask) is int and type(rank) is int


@pytest.mark.parametrize("model", list(_N8_MODELS))
def test_catalog_matches_dict_dp_at_n8(model):
    for seed in range(8):
        drawn = sample(RandomModelSpec(n=8, seed=seed, **_N8_MODELS[model]))
        g = drawn.to_graph() if isinstance(drawn, BipartiteGraph) else drawn
        catalog = _coverage_catalog(g)
        assert _decoded(catalog, g.n) == _dict_coverage_catalog(g), seed
        _assert_plain_ints(catalog)


@pytest.mark.parametrize("g", [cycle(9), _gnp(9, 1), _gnp(9, 2)], ids=["C9", "gnp9-1", "gnp9-2"])
def test_catalog_matches_dict_dp_at_n9(g):
    # past BOX_MAX_VERTICES; C9 needs 9 + 27 + 19 = 55 of the word's 64 bits
    catalog = _coverage_catalog(g)
    assert _decoded(catalog, g.n) == _dict_coverage_catalog(g)
    _assert_plain_ints(catalog)


def _word_bits(n, nonedges):
    return n + nonedges + (factorial(n) - 1).bit_length()


def test_catalog_dtypes_have_headroom_at_the_exact_cap():
    n = BOX_MAX_VERTICES
    assert _word_bits(n, comb(n, 2)) <= 64, "(placed set, mask, rank) words outgrow uint64"


def test_catalog_refuses_keys_wider_than_int64():
    with pytest.raises(ValueError, match=r"n \+ nonedges \+ bitlen\(n! - 1\) <= 64, got 92"):
        _coverage_catalog(empty_graph(11))


def test_catalog_fills_all_64_bits_at_n9():
    g = empty_graph(9)
    assert _word_bits(9, comb(9, 2)) == 64
    catalog = _coverage_catalog(g)
    assert _decoded(catalog, g.n) == _dict_coverage_catalog(g)
    _assert_plain_ints(catalog)


_C10_RING = [(v, (v + 1) % 10) for v in range(10)]


def test_catalog_at_n10_with_thirteen_edges_fills_the_word():
    g = from_edges(10, _C10_RING + [(0, 5), (2, 7), (4, 9)])
    assert _word_bits(10, comb(10, 2) - g.edge_count) == 64
    assert _decoded(_coverage_catalog(g), g.n) == _dict_coverage_catalog(g)


def test_catalog_width_rule_raises_before_any_array(monkeypatch):
    g = from_edges(10, _C10_RING + [(0, 5), (2, 7)])
    assert _word_bits(10, comb(10, 2) - g.edge_count) == 65
    monkeypatch.setattr(intervals, "np", _NoNumpy())
    with pytest.raises(ValueError, match=r"n \+ nonedges \+ bitlen\(n! - 1\) <= 64, got 65"):
        _coverage_catalog(g)


def test_catalog_peak_memory_at_n9():
    # one candidate word, its (P, mask) head and a keep flag per candidate
    # (about 2 MB); a dozen per-candidate arrays took over 6 MB
    g = cycle(9)
    tracemalloc.start()
    try:
        _coverage_catalog(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_boxicity_exact_builds_catalog_once(monkeypatch):
    builds = []

    def counting(g):
        builds.append(g)
        return _nonedge_list(g)

    monkeypatch.setattr(intervals, "_nonedge_list", counting)
    g = complete_multipartite(2, 4)
    assert boxicity_exact(g).value == 4
    assert builds == [g]
    other = cycle(8)
    assert boxicity_exact(other).value == 2
    assert builds == [g, other]


def test_boxicity_exact_runs_one_search_per_graph(monkeypatch):
    calls = []
    real = intervals.boxicity_le

    def counting(g, k):
        calls.append((g, k))
        return real(g, k)

    monkeypatch.setattr(intervals, "boxicity_le", counting)
    graphs = [complete_multipartite(2, 4), cycle(8), complement(cycle(8)), _gnp(8, 1)]
    assert [boxicity_exact(g).value for g in graphs] == [4, 2, 3, 2]
    assert calls == [(g, 4) for g in graphs]


def test_exact_search_node_budget_raises(monkeypatch):
    # the cover of K2222's four non-edges visits four nodes at depth 4
    monkeypatch.setattr(intervals, "BOX_SEARCH_NODE_BUDGET", 3)
    with pytest.raises(BudgetExceededError, match="node budget exhausted"):
        boxicity_exact(complete_multipartite(2, 4))


@pytest.mark.parametrize("n", range(1, 7))
def test_boxicity_le_returns_the_fewest_orderings(n):
    for g in enumerate_graphs(n):
        value = boxicity_exact(g).value
        for k in range(value, n // 2 + 2):
            cert = boxicity_le(g, k)
            assert cert.k == value, (g.rows, k)
            assert verify_box_certificate(g, cert)


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


def _certificate_text(g):
    result = boxicity_exact(g)
    cert = result.certificate
    return f"{result.value}|{[o.sequence for o in cert.orderings]!r}|{cert.reps!r}"


# sha256 of value, orderings and interval reps; any change to which
# lex-first ordering the catalog keeps shows here
EXACT_GOLDEN = [
    (lambda: complete_multipartite(2, 4),
     "6f6831d99b89a41d8940bba2daf33bcadf4a2ba6f77eafe71c31972512a23f73"),
    (lambda: cycle(8),
     "106bb879ef94e66fc1fcc90db1bbb7441a69af26ac91a9c95af5caefe217b795"),
    (lambda: complement(cycle(8)),
     "cf19858fc4689379f01acdb7c9559ee53c43651d52c2cd0b261b815d76d01e53"),
    (lambda: cobipartite_tight_family(2, 2).graph,
     "f8eaaf8ab4b1381f51d0a844567dd065d95c47b052f21be8bb4ef9e4c0b58fdc"),
    (lambda: _gnp(8, 1),
     "2a0bb7cab18b999cdf5b92835f6f9a3a03ce101d2cbb14584ab75407a3a73a4a"),
    (lambda: _gnp(8, 2),
     "5054228ecf79bb9f534965f30bcd10929880db9f39c41753417673391897c1d8"),
]


@pytest.mark.parametrize("build, digest", EXACT_GOLDEN,
                         ids=["K2222", "C8", "co-C8", "cobipartite-2-2", "gnp8-1", "gnp8-2"])
def test_exact_certificate_bytes_are_pinned(build, digest):
    text = _certificate_text(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
