"""The numpy supergraph DP, least-union scans, isoperimetric profile and
adjacency matrix against the loops and scans they replaced, kept here as
oracles.  The split-half supergraph DP is also checked against the
layered numpy DP it replaced, which reaches sizes the plain loop does
not, and the least closed unions it folds against the profile's scan.
Counting tests check which tables one graph's bounds build."""

import hashlib
from fractions import Fraction
from itertools import accumulate, combinations, pairwise
from math import comb

import numpy as np
import pytest

from boxkit.bitset import mask_of, members, popcount
from boxkit.cli import main
from boxkit.edgelist import write_edge_list
from boxkit.errors import (
    PROFILE_MAX_VERTICES,
    SUPERGRAPH_MAX_VERTICES,
    BudgetExceededError,
    check_subset_budget,
)
from boxkit.expansion_bounds import best_expansion_bound, co_expansion_table, cross_expansion
from boxkit.families import (
    RandomModelSpec,
    bipartite_tight_family,
    cobipartite_tight_family,
    complement_cycle,
    complete_multipartite,
    sample,
)
from boxkit.graphs import (
    BipartiteGraph,
    Graph,
    bipartition,
    complement,
    complete_graph,
    empty_graph,
    from_edges,
    from_pair_mask,
    open_neighborhood,
)
from boxkit import expansion_bounds, intervals, isoperimetry, tables
from boxkit.harness import run_bounds
from boxkit.intervals import (
    Ordering,
    _table_dtype,
    boxicity_exact,
    canonical_rep,
    intersect_realized,
    min_interval_supergraph,
)
from boxkit.isoperimetry import LeastUnions, _layers, _least_union
from boxkit.spectral import adjacency_matrix

from .strategies import boundary_profiles, closed_unions


def _python_min_supergraph(g):
    """The subset DP as a plain loop over masks: f(S) = |Gamma(S)| + min
    over v in S of f(S - v), v ascending, strict improvements only.
    |Gamma(S)| comes from the union of closed neighbourhoods, grown one
    lowest vertex at a time."""
    size = 1 << g.n
    f = [0] * size
    choice = [0] * size
    closed_union = [0] * size
    for s in range(1, size):
        low = s & -s
        v = low.bit_length() - 1
        closed_union[s] = closed_union[s ^ low] | g.rows[v] | low
        best = None
        best_v = -1
        rest = s
        while rest:
            low = rest & -rest
            val = f[s ^ low]
            if best is None or val < best:
                best = val
                best_v = low
            rest ^= low
        f[s] = best + popcount(closed_union[s] & ~s)
        choice[s] = best_v
    seq_rev = []
    s = size - 1
    while s:
        v_bit = choice[s]
        seq_rev.append(v_bit.bit_length() - 1)
        s ^= v_bit
    return f[size - 1], tuple(reversed(seq_rev))


def _layered_min_supergraph(g):
    """The subset DP one popcount layer at a time over a 2^n table: each
    layer is a slice of the size-then-lex layout, f(S) is stored at the
    bit-reversed mask of S, and the layer's boundary sizes come from one
    2^n union table in the same layout.  The ordering is walked back
    from f, removing the smallest v whose f(S - v) is least.  Its int16
    table starts every set at the int16 maximum."""
    n = g.n
    unfilled = np.iinfo(np.int16).max
    vertex_bits = tuple(1 << (n - 1 - v) for v in range(n))
    addresses = _layout_table(vertex_bits)
    starts = _layers(n)[1]
    closed = tuple(row | 1 << v for v, row in enumerate(g.rows))
    sizes = np.bitwise_count(_layout_table(closed)).astype(np.int16)
    f = np.full(1 << n, unfilled, dtype=np.int16)
    f[0] = 0
    for k, (a, b) in enumerate(pairwise(starts)):
        if k == 0:
            continue
        layer = addresses[a:b].astype(np.intp)
        best = np.full(b - a, unfilled, dtype=np.int16)
        for bit in vertex_bits:
            np.minimum(best, f[layer ^ bit], out=best)
        f[layer] = best + sizes[a:b] - k
    seq_rev = []
    s = (1 << n) - 1
    while s:
        v = min((v for v in range(n) if s & vertex_bits[v]),
                key=lambda v: f[s ^ vertex_bits[v]])
        seq_rev.append(v)
        s ^= vertex_bits[v]
    return int(f[-1]), tuple(reversed(seq_rev))


def _loop_min_reach(co, pool, target_side, j):
    """m_j by scanning every j-subset of the pool."""
    check_subset_budget(len(pool), j)
    best = None
    for combo in combinations(pool, j):
        reach = popcount(open_neighborhood(co, mask_of(combo)) & target_side)
        if best is None or reach < best:
            best = reach
    return best


def _loop_cross_expansion(g, pool, target_side, t):
    """beta_t by scanning every t-subset of the pool."""
    covered = min(popcount((mask_of(combo) | open_neighborhood(g, mask_of(combo))) & target_side)
                  for combo in combinations(pool, t))
    return Fraction(covered, popcount(target_side))


def _mask_order_table(rows, n, use_and):
    """OR (or AND) of rows[x] over x in X, indexed by the mask of X."""
    size = 1 << n
    if use_and:
        table = np.full(size, np.uint64((1 << n) - 1))
    else:
        table = np.zeros(size, dtype=np.uint64)
    for b in range(n - 1, -1, -1):
        step = 1 << (b + 1)
        half = 1 << b
        row = np.uint64(rows[b])
        if use_and:
            table[half::step] = table[0::step] & row
        else:
            table[half::step] = table[0::step] | row
    return table


def _layout_table(rows):
    """OR of rows[x] over x in X for every subset X of range(len(rows)),
    by plain doubling in mask order, gathered into the _layers order."""
    return _mask_order_table(rows, len(rows), use_and=False)[_layers(len(rows))[0]]


def _scan_profiles(g):
    """Both profiles by one boolean scan per size k over mask-indexed
    tables, with the lexicographically smallest extremal set as witness."""
    n = g.n
    idx = np.arange(1 << n, dtype=np.uint64)
    pop = np.bitwise_count(idx)
    boundary = np.bitwise_count(_mask_order_table(g.rows, n, use_and=False) & ~idx)
    strong = np.bitwise_count(_mask_order_table(g.rows, n, use_and=True) & ~idx)
    bv, cv, bw, cw = [], [], [], []
    for k in range(1, n):
        sel = pop == k
        masks_k = idx[sel]
        b_vals = boundary[sel]
        c_vals = strong[sel]
        bv.append(int(b_vals.min()))
        cv.append(int(c_vals.max()))
        bw.append(min((int(x) for x in masks_k[b_vals == bv[-1]]), key=members))
        cw.append(min((int(x) for x in masks_k[c_vals == cv[-1]]), key=members))
    return tuple(bv), tuple(cv), tuple(bw), tuple(cw)


def _full_table_profiles(g):
    """Both profiles from two 2^n subset tables in the size-then-lex
    layout, one union of the closed rows and one of the rows'
    complements (an intersection of rows has n less its size), with one
    extremum per layer slice: the first extremum of a slice is its
    smallest witness."""
    n = g.n
    masks, starts = _layers(n)
    closed = tuple(row | 1 << v for v, row in enumerate(g.rows))
    union = np.bitwise_count(_layout_table(closed))
    co_rows = tuple(((1 << n) - 1) & ~row for row in g.rows)
    strong = n - np.bitwise_count(_layout_table(co_rows)).astype(np.int64)
    bv, cv, bw, cw = [], [], [], []
    for k in range(1, n):
        a, b = starts[k], starts[k + 1]
        i = a + int(union[a:b].argmin())
        j = a + int(strong[a:b].argmax())
        bv.append(int(union[i]) - k)
        cv.append(int(strong[j]))
        bw.append(int(masks[i]))
        cw.append(int(masks[j]))
    return tuple(bv), tuple(cv), tuple(bw), tuple(cw)


def _as_graph(drawn):
    return drawn.to_graph() if isinstance(drawn, BipartiteGraph) else drawn


def _splits(g):
    """(pool, target) pairs as best_expansion_bound forms them: the whole
    vertex set against itself, and each side of a bipartition against
    the other."""
    out = [(g.vertices, g.vertices)]
    sides = bipartition(g)
    if sides is not None:
        out += [(sides[1], sides[0]), (sides[0], sides[1])]
    return out


def _closed_rows(g):
    return [row | 1 << v for v, row in enumerate(g.rows)]


def _assert_fold_matches_scan(g):
    """The DP's folded least closed unions are the profile scan's, values
    and witnesses."""
    assert min_interval_supergraph(g).closed_unions == LeastUnions(_closed_rows(g)).every()


def _assert_matches_oracles(g):
    result = min_interval_supergraph(g)
    assert (result.edge_count, result.ordering.sequence()) == _python_min_supergraph(g)
    _assert_fold_matches_scan(g)
    assert boundary_profiles(g) == _scan_profiles(g)
    co = complement(g)
    for pool_mask, target in _splits(g):
        pool = members(pool_mask)
        if not (pool and target):  # an edgeless graph's side B is empty
            continue
        assert co_expansion_table(g, pool_mask, target, len(pool)) == tuple(
            _loop_min_reach(co, pool, target, j) for j in range(1, len(pool) + 1))
        for t in range(1, min(2, len(pool)) + 1):
            assert cross_expansion(g, pool_mask, target, t) == _loop_cross_expansion(
                g, pool, target, t)
    # the single-size queries read the same extrema as the profile, on
    # g's closed rows and on the complement's
    for h in (g, co):
        single = closed_unions(h)
        assert tuple(single.least(k) for k in range(1, g.n)) == closed_unions(h).every()


def _drawn(n):
    half = Fraction(1, 2)
    specs = [RandomModelSpec("gnp", n, seed, p=p)
             for seed in (1, 2) for p in (Fraction(1, 4), half, Fraction(3, 4))]
    specs += [RandomModelSpec("regular", n, seed, k=3) for seed in (1, 2)]
    specs += [RandomModelSpec("bipartite_gnp", n, seed, p=half) for seed in (1, 2)]
    return [_as_graph(sample(spec)) for spec in specs]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_numpy_scans_match_loops_on_every_labelled_graph(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        _assert_matches_oracles(from_pair_mask(n, mask))


@pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
def test_numpy_scans_match_loops_on_drawn_graphs(n):
    for g in _drawn(n):
        _assert_matches_oracles(g)


@pytest.mark.parametrize("g", [
    complement_cycle(14),
    cobipartite_tight_family(3, 3).graph,
    complete_multipartite(2, 9),
    complement_cycle(18),
    bipartite_tight_family(3, 3).graph,
], ids=["co-C14", "cobipartite(3,3)", "K_2x9", "co-C18", "bipartite(3,3)"])
def test_numpy_scans_match_loops_on_named_graphs(g):
    _assert_matches_oracles(g)


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_profile_matches_scan_on_empty_and_complete_graphs(n):
    for g in (empty_graph(n), complete_graph(n)):
        assert boundary_profiles(g) == _scan_profiles(g)


@pytest.mark.parametrize("n", [1, 2, 8, 16, 23, 24])
def test_supergraph_dp_matches_loop_on_empty_and_complete_graphs(n):
    # Every ordering ties on an empty or a complete graph, so the walk
    # back from f must break ties as the loop does, removing the smallest
    # vertex first; on a complete graph f reaches C(n, 2).  The loop
    # confirms both up to n = 16; past it the DP must keep them, at the
    # top of the uint8 table (n = 23) and in the uint16 one (n = 24).
    for g, edges in ((empty_graph(n), 0), (complete_graph(n), comb(n, 2))):
        expected = (edges, tuple(reversed(range(n))))
        if n <= 16:
            assert _python_min_supergraph(g) == expected
        result = min_interval_supergraph(g)
        assert (result.edge_count, result.ordering.sequence()) == expected


def test_supergraph_dp_dtype_holds_every_value_below_its_maximum():
    # f(S) <= C(n, 2), and the dtype's maximum marks sets not yet filled,
    # so it must lie above every f at every n the DP accepts.
    for n in range(1, SUPERGRAPH_MAX_VERTICES + 1):
        assert np.iinfo(_table_dtype(n)).max > comb(n, 2)
    assert _table_dtype(23) == np.uint8 and _table_dtype(24) == np.uint16


@pytest.mark.parametrize("n", range(15))
def test_layers_follow_combinations_order(n):
    addresses, starts = _layers(n)
    expected = [mask_of(c) for k in range(n + 1) for c in combinations(range(n), k)]
    assert addresses.tolist() == expected
    assert starts == tuple(accumulate((comb(n, k) for k in range(n + 1)), initial=0))


def _dp_result(g):
    result = min_interval_supergraph(g)
    return result.edge_count, result.ordering.sequence()


def _bound_all_models(n):
    """One draw of each random model the bound-all benchmark draws."""
    half = Fraction(1, 2)
    specs = [RandomModelSpec("gnp", n, 1, p=half), RandomModelSpec("gnp", n, 1, p=Fraction(3, 4)),
             RandomModelSpec("gnm", n, 1, m=77), RandomModelSpec("regular", n, 1, k=3),
             RandomModelSpec("regular", n, 1, k=13), RandomModelSpec("bipartite_gnp", n, 1, p=half)]
    return [_as_graph(sample(spec)) for spec in specs]


@pytest.mark.parametrize("g", _bound_all_models(18) + [
    sample(RandomModelSpec("gnp", n, seed, p=p))
    for n in (20, 22) for seed, p in ((1, Fraction(1, 2)), (2, Fraction(1, 4)))
], ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_split_dp_matches_layered_dp(g):
    assert _dp_result(g) == _layered_min_supergraph(g)
    _assert_fold_matches_scan(g)


def _odd_drawn(n):
    specs = [RandomModelSpec("gnp", n, seed, p=p)
             for seed in (1, 2) for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
    specs += [RandomModelSpec("regular", n, 1, k=4), RandomModelSpec("gnm", n, 1, m=2 * n)]
    return [_as_graph(sample(spec)) for spec in specs]


@pytest.mark.parametrize("n", [9, 13, 15, 17])
def test_split_dp_matches_oracles_on_odd_sizes(n):
    # at n = 9 and 13 the low half is every vertex and f is one row; at
    # n = 15 and 17 the high half has one vertex more than the low half
    for g in _odd_drawn(n):
        expected = _layered_min_supergraph(g)
        assert _dp_result(g) == expected
        if n < 17:
            assert expected == _python_min_supergraph(g)


def test_split_dp_ordering_replays_at_the_vertex_cap():
    g = sample(RandomModelSpec("gnp", SUPERGRAPH_MAX_VERTICES, 1, p=Fraction(1, 2)))
    result = min_interval_supergraph(g)
    realized = intersect_realized([canonical_rep(g, result.ordering)], g.n)
    assert Graph(g.n, realized).edge_count == result.edge_count
    assert result.ordering == Ordering.from_sequence(result.ordering.sequence())


# sha256 of repr((edge_count, ordering.sequence(), closed_unions)) at the
# top of the DP's reach: gnp draws and complete graphs, whose f reaches
# C(n, 2), at n = 23 and at the vertex cap.
DP_DIGESTS = [
    (lambda: sample(RandomModelSpec("gnp", 23, 1, p=Fraction(1, 2))),
     "5e77b2ab4168eecd2f762fe2f2e80d776d6552cb0c0c0241e0b9ef18194f04aa"),
    (lambda: sample(RandomModelSpec("gnp", 24, 1, p=Fraction(1, 2))),
     "6c88e759d03ca30a194e8bafe46dbac5a17447d022a6d078b3a7997076581307"),
    (lambda: complete_graph(23),
     "23be467eda96fc177f64709d0950d291e11866295bd8de51d320200750c0aebc"),
    (lambda: complete_graph(24),
     "3790ad150c0f82074a35187d3e816f28022735dbaafd73eaac7b8118324018b9"),
    (lambda: complement(from_edges(24, [(0, 1)])),
     "ce3fbba0ae0ffedfdf58f2577b1182e33f1a7b3252e843b63881c67fafcfd9f4"),
]


@pytest.mark.parametrize("build,digest", DP_DIGESTS,
                         ids=["gnp23-seed1", "gnp24-seed1", "K_23", "K_24", "K_24-minus-01"])
def test_supergraph_dp_output_is_pinned_at_the_top_of_its_reach(build, digest):
    result = min_interval_supergraph(build())
    text = repr((result.edge_count, result.ordering.sequence(), result.closed_unions))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("g", [complement_cycle(14), empty_graph(9), complete_graph(9)]
                         + _drawn(12) + [from_pair_mask(6, m) for m in (0, 1, 4711, 32767)],
                         ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_complement_profile_matches_direct_profile(g):
    # the complement's largest strong boundary is n - k minus g's least
    # boundary, its least boundary n - k minus g's largest strong
    # boundary, with the same lexicographically smallest witnesses
    boundary, strong, boundary_witness, strong_witness = boundary_profiles(g)
    co_boundary, co_strong, co_boundary_witness, co_strong_witness = (
        boundary_profiles(complement(g)))
    sizes = range(1, g.n)
    assert co_strong == tuple(g.n - k - b for k, b in zip(sizes, boundary))
    assert co_boundary == tuple(g.n - k - s for k, s in zip(sizes, strong))
    assert co_strong_witness == boundary_witness
    assert co_boundary_witness == strong_witness


def test_min_reach_matches_loop_past_one_word():
    g = sample(RandomModelSpec("gnp", 70, 5, p=Fraction(1, 3)))
    co = complement(g)
    for pool_mask, target in [(g.vertices, g.vertices),
                              (mask_of(range(0, 70, 2)), mask_of(range(1, 70, 2))),
                              (mask_of(range(60, 70)), mask_of(range(64)))]:
        pool = members(pool_mask)
        reach = [co.rows[v] & target for v in pool]
        for j in (1, 2, len(pool) - 1, len(pool)):
            assert _least_union(reach, j)[0] == _loop_min_reach(co, pool, target, j)


def test_boxicity_exact_rejects_negative_cap():
    with pytest.raises(ValueError):
        boxicity_exact(complement_cycle(6), max_k=-1)
    with pytest.raises(ValueError):
        boxicity_exact(complete_multipartite(1, 3), max_k=-1)
    assert boxicity_exact(complete_multipartite(1, 3), max_k=0).value == 0


def _loop_adjacency_matrix(g):
    a = np.zeros((g.n, g.n))
    for v, row in enumerate(g.rows):
        for u in range(g.n):
            if row >> u & 1:
                a[v, u] = 1.0
    return a


@pytest.mark.parametrize("g", [
    complete_graph(1),
    complement_cycle(7),
    sample(RandomModelSpec("gnp", 8, 1, p=Fraction(1, 2))),
    sample(RandomModelSpec("gnp", 9, 2, p=Fraction(1, 2))),
    sample(RandomModelSpec("regular", 200, 1, k=3)),
    sample(RandomModelSpec("regular", 200, 2, k=5)),
    sample(RandomModelSpec("regular", 200, 3, k=8)),
], ids=["n1", "co-C7", "gnp8", "gnp9", "3-reg200", "5-reg200", "8-reg200"])
def test_adjacency_matrix_matches_loop(g):
    # n = 7 and 9 leave a partial last byte in each packed row
    a = adjacency_matrix(g)
    assert a.dtype == np.float64 and a.flags.c_contiguous
    assert np.array_equal(a, _loop_adjacency_matrix(g))


def _profile_drawn(n):
    specs = [RandomModelSpec("gnp", n, seed, p=p)
             for seed in (1, 2) for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
    specs += [RandomModelSpec("gnm", n, seed, m=n * (n - 1) // 4) for seed in (1, 2)]
    return [sample(spec) for spec in specs]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 13, 14, 15, 17, 18, 20, 21, 22])
def test_split_profile_matches_full_tables(n):
    # up to n = 14 the low half is every vertex and the high half empty;
    # from n = 15 the halves split n // 2, and odd n gives the high half
    # one vertex more than the low half
    for g in [empty_graph(n), complete_graph(n)] + _profile_drawn(n):
        assert boundary_profiles(g) == _full_table_profiles(g)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 19, 20])
def test_split_profile_witnesses_on_empty_and_complete_graphs(n):
    # every set of a size ties, so each witness is {0 .. k-1}
    first = tuple((1 << k) - 1 for k in range(1, n))
    for g in (empty_graph(n), complete_graph(n)):
        _, _, boundary_witness, strong_witness = boundary_profiles(g)
        assert boundary_witness == strong_witness == first


@pytest.mark.parametrize("entries", [1, 3 << 7, 100])
def test_split_profile_matches_full_tables_across_row_chunks(monkeypatch, entries):
    # each chunk holds some low subsets against one whole high layer: 1
    # puts one low subset in each chunk, 3 << 7 all 128 low subsets at
    # n = 15 against the empty high set and as few as three against the
    # widest high layer at n = 17, 100 a number that divides no layer
    monkeypatch.setattr(isoperimetry, "_CHUNK_ENTRIES", entries)
    for n in (15, 16, 17):
        for g in [empty_graph(n), complete_graph(n)] + _profile_drawn(n):
            assert boundary_profiles(g) == _full_table_profiles(g)


def test_profile_temporaries_stay_within_the_chunk(monkeypatch):
    # numpy reports its buffers to tracemalloc; with 2^12-entry chunks
    # the profile at n = 20 must never hold anything near a 2^20 table
    import tracemalloc
    monkeypatch.setattr(isoperimetry, "_CHUNK_ENTRIES", 1 << 12)
    first, second = _profile_drawn(20)[:2]
    boundary_profiles(first)  # builds the cached half layouts
    tracemalloc.start()
    try:
        boundary_profiles(second)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 17


def test_split_halves_fit_the_layout_cache():
    # every half of every split up to the cap has at most
    # PROFILE_MAX_VERTICES // 2 vertices, so the cache of one layout per
    # half size never evicts: a second pass over all sizes builds none
    isoperimetry._half_layout.cache_clear()
    for _ in range(2):
        for n in range(1, PROFILE_MAX_VERTICES + 1):
            low, high = isoperimetry._split_layouts(n)
            assert len(low.masks) * len(high.masks) == 1 << n
            assert max(len(low.masks), len(high.masks)) <= 1 << PROFILE_MAX_VERTICES // 2
    assert isoperimetry._half_layout.cache_info().misses == PROFILE_MAX_VERTICES // 2 + 1


def test_profile_tables_fit_their_dtypes():
    # uint32 rows hold every vertex up to the cap, and one chunk holds
    # every subset of a half, so also one low subset against any high layer
    assert PROFILE_MAX_VERTICES <= 32
    assert 1 << PROFILE_MAX_VERTICES // 2 <= isoperimetry._CHUNK_ENTRIES


@pytest.mark.parametrize("n", [1, 2, 9, 13, 18])
def test_dp_fold_matches_scan_on_empty_and_complete_graphs(n):
    # every set of a size ties, so each witness is {0 .. k-1}
    for g in (empty_graph(n), complete_graph(n)):
        _assert_fold_matches_scan(g)
        assert [mask for _, mask in min_interval_supergraph(g).closed_unions] == [
            (1 << k) - 1 for k in range(1, n)]


@pytest.mark.parametrize("n", [17, 19, 20])
def test_dp_fold_matches_scan_on_drawn_graphs(n):
    for g in _profile_drawn(n):
        _assert_fold_matches_scan(g)


def _tied_rows(n, width, seed):
    """Rows thinned by ANDing draws, so unions tie often, with some empty
    rows and some repeated ones."""
    rng = np.random.default_rng(seed)
    rows = [int(rng.integers(0, 1 << width)) & int(rng.integers(0, 1 << width))
            for _ in range(n)]
    for i in rng.choice(n, size=n // 4, replace=False):
        rows[i] = 0 if i % 2 else rows[0]
    return rows


@pytest.mark.parametrize("n", [18, 20, 22])
def test_routed_scan_matches_colex_on_every_size(n):
    rows = _tied_rows(n, n, n)
    unions = LeastUnions(rows)
    for k in range(1, n + 1):
        assert unions.least(k) == _least_union(rows, k), k


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


NAMED_18 = [complement_cycle(18), complete_multipartite(2, 9),
            cobipartite_tight_family(3, 3).graph, bipartite_tight_family(3, 3).graph]


@pytest.mark.parametrize("g", NAMED_18 + _bound_all_models(18)[:3],
                         ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_all_builds_the_closed_half_tables_once(monkeypatch, g):
    builds = _count_calls(monkeypatch, isoperimetry, "_half_tables")
    monkeypatch.setattr(intervals, "_half_tables", isoperimetry._half_tables)
    scans = _count_calls(monkeypatch, isoperimetry, "_least_unions")
    dps = _count_calls(monkeypatch, tables, "min_interval_supergraph")
    run_bounds(g, ["all"])
    assert len(dps) == 1
    built = [list(rows) for rows, in builds]
    assert built.count(_closed_rows(g)) == 1
    assert _closed_rows(complement(g)) not in built
    # the DP's fold serves every size of the profile, so no scan covers
    # all sizes, and none reads g's closed rows
    assert all(len(sizes) == 1 for rows, sizes, *_ in scans)
    assert all(list(rows) != _closed_rows(g) for rows, *_ in scans)


def test_strong_boundary_alone_runs_one_scan_and_no_dp(monkeypatch):
    dps = _count_calls(monkeypatch, tables, "min_interval_supergraph")
    scans = _count_calls(monkeypatch, isoperimetry, "_least_unions")
    for g in NAMED_18[:2]:
        scans.clear()
        run_bounds(g, ["strong_boundary"])
        assert [(list(rows), sizes) for rows, sizes, *_ in scans] == [
            (_closed_rows(g), range(1, g.n))]
    assert dps == []


def test_every_refuses_past_the_cap_before_building_a_table(monkeypatch, tmp_path, capsys):
    touched = [_count_calls(monkeypatch, isoperimetry, name)
               for name in ("_half_tables", "_half_layout", "_least_unions")]
    g = empty_graph(PROFILE_MAX_VERTICES + 1)
    with pytest.raises(BudgetExceededError):
        LeastUnions(_closed_rows(g)).every()
    assert run_bounds(g, ["strong_boundary"])[0].reason == "budget_exceeded"
    path = tmp_path / "g.edges"
    write_edge_list(g, str(path))
    assert main(["bound", "--input", str(path), "--methods", "strong_boundary"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",na:budget_exceeded,,0")
    assert touched == [[], [], []]


def test_every_on_one_row_is_empty(monkeypatch):
    scans = _count_calls(monkeypatch, isoperimetry, "_least_unions")
    assert LeastUnions([0b1]).every() == ()
    assert scans == []


def test_every_scans_once_and_serves_later_queries(monkeypatch):
    g = sample(RandomModelSpec("gnp", 14, 1, p=Fraction(1, 2)))
    scans = _count_calls(monkeypatch, isoperimetry, "_least_unions")
    builds = _count_calls(monkeypatch, isoperimetry, "_half_tables")
    unions = LeastUnions(_closed_rows(g))
    unions.least(2)
    first = unions.every()
    assert first == LeastUnions(_closed_rows(g)).every()
    assert [sizes for _, sizes, _ in scans[:2]] == [range(2, 3), range(1, g.n)]
    assert len(builds) == 2  # this object's and the fresh one's
    scans.clear()
    builds.clear()
    assert unions.every() == first
    assert [unions.least(k) for k in range(1, g.n)] == list(first)
    assert scans == [] and builds == []


def test_alternating_scans_build_no_layout_twice(monkeypatch):
    # 18 rows split 9 + 9 and 15 rows split 7 + 8: three half sizes
    fills = _count_calls(monkeypatch, isoperimetry, "_layers")
    isoperimetry._half_layout.cache_clear()
    long_rows, short_rows = _tied_rows(18, 18, 1), _tied_rows(15, 15, 2)
    for _ in range(3):
        for rows in (long_rows, short_rows):
            for k in (1, 2, 5):
                LeastUnions(rows).least(k)
    assert sorted(n for n, in fills) == [7, 8, 9]


def test_one_fold_serves_the_dp_and_the_profile_scan(monkeypatch):
    # n = 18 splits 9 + 9 into ten row layers.  The DP folds each layer
    # once; the every-size scan folds each chunk once, one chunk per
    # layer at the default chunk size and many with 2^10-entry chunks.
    g = NAMED_18[0]
    dp_folds = _count_calls(monkeypatch, intervals, "_fold_blocks")
    scan_folds = _count_calls(monkeypatch, isoperimetry, "_fold_blocks")
    closed_unions = min_interval_supergraph(g).closed_unions
    assert len(dp_folds) == 10 and scan_folds == []
    assert LeastUnions(_closed_rows(g)).every() == closed_unions
    assert len(scan_folds) == 10 and len(dp_folds) == 10
    monkeypatch.setattr(isoperimetry, "_CHUNK_ENTRIES", 1 << 10)
    scan_folds.clear()
    assert LeastUnions(_closed_rows(g)).every() == closed_unions
    # high layer a has C(9, a) subsets; the empty set and the full set
    # lie outside the scanned sizes
    spans = [(1 << 9) - (a in (0, 9)) for a in range(10)]
    steps = [(1 << 10) // comb(9, a) for a in range(10)]
    assert len(scan_folds) == sum(-(-span // step) for span, step in zip(spans, steps))
    assert all(unions.size <= 1 << 10 for _, unions, *_ in scan_folds)


@pytest.mark.parametrize("g", NAMED_18 + [complement_cycle(9), empty_graph(5)],
                         ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_a_side_choice_on_every_vertex_reads_the_own_tables(monkeypatch, g):
    # none of these graphs has a universal vertex or a vertex dominating
    # a bipartition side, so every side choice covers all of g
    def refuse(*args):
        raise AssertionError("induced_subgraph called")

    monkeypatch.setattr(expansion_bounds, "induced_subgraph", refuse)
    scans = _count_calls(monkeypatch, expansion_bounds, "certify_expansion_bound")
    own = tables.GraphTables(g)
    report = best_expansion_bound(own)
    assert scans and all(args[0] is own for args in scans)
    assert report.certificate.vertex_labels == members(g.vertices)


def test_a_cone_is_scanned_on_its_relabelled_base():
    # apex 0 over C5 on 1..5: the core choice runs on G[1..5], relabelled
    cone = from_edges(6, [(1 + v, 1 + (v + 1) % 5) for v in range(5)]
                      + [(0, v) for v in range(1, 6)])
    assert repr(best_expansion_bound(cone)) == (
        "BoundReport(name='expansion', applicable=True, value=Fraction(2, 1), ceiling=2, "
        "reason=None, certificate=ExpansionCertificate(s1=31, s2=31, t=1, "
        "beta_t=Fraction(3, 5), trace=(ScanEntry(b=1, t_star=Fraction(1, 1), m_value=2, "
        "infeasible=True), ScanEntry(b=2, t_star=Fraction(-3, 1), m_value=None, "
        "infeasible=False)), bound=2, vertex_labels=(1, 2, 3, 4, 5)), notes=())")
