"""Random models, tight constructions, and exhaustive enumeration."""

import hashlib
import math
from fractions import Fraction
from itertools import combinations

import pytest

from boxkit import families, graphs
from boxkit.bitset import popcount
from boxkit.edgelist import format_edge_list
from boxkit.errors import BudgetExceededError
from boxkit.families import (
    ENUMERATION_MAX_VERTICES,
    MODELS,
    RANDOM_MODELS,
    RandomModelSpec,
    TightFamilyCertificate,
    bipartite_tight_family,
    cobipartite_tight_family,
    complement_cycle,
    complete_multipartite,
    enumerate_graphs,
    petersen,
    sample,
)
from boxkit.graphs import (
    BipartiteGraph,
    Graph,
    bipartite_from_edges,
    complete_graph,
    cycle,
    degree_summary,
    empty_graph,
    from_edges,
    path,
)
from boxkit.rng import Xoshiro256StarStar, derive_seed

from .test_isoperimetry import _NoNumpy
from .test_rng import _HighWords

CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


# --- random models ----------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        RandomModelSpec("triangular", 5, 0)
    with pytest.raises(ValueError):
        RandomModelSpec("gnp", 0, 0, p=Fraction(1, 2))
    with pytest.raises(ValueError):
        RandomModelSpec("bipartite_gnp", 7, 0, p=Fraction(1, 2))
    with pytest.raises(ValueError):
        RandomModelSpec("bipartite_gnm", 7, 0, m=3)
    with pytest.raises(ValueError):
        RandomModelSpec("gnp", 5, 0)
    with pytest.raises(ValueError):
        RandomModelSpec("gnp", 5, 0, p=Fraction(3, 2))
    with pytest.raises(ValueError):
        RandomModelSpec("gnm", 5, 0)
    with pytest.raises(ValueError):
        RandomModelSpec("regular", 5, 0)
    with pytest.raises(ValueError):
        RandomModelSpec("regular", 5, 0, k=-1)
    for model in MODELS:
        with pytest.raises(ValueError):
            RandomModelSpec(model, 6, 0)


# sha256 of each model's edge list at seed 3, pinned when the samplers
# were last changed on purpose.
SAMPLE_DIGESTS = {
    RandomModelSpec("gnp", 10, 3, p=Fraction(1, 3)):
        "b36b9385c67e9420cb547e10951e66323e7ccfb94962abf7eaa7adc1b3c01895",
    RandomModelSpec("gnm", 10, 3, m=17):
        "f69af201745353271ca7735f608943ed3b3b31859c9d932a32c19515b73656ee",
    RandomModelSpec("regular", 10, 3, k=3):
        "dc44903da137e32060921fd35b8440d9c0e95520b68b8083cda3559b0bf5233a",
    RandomModelSpec("bipartite_gnp", 10, 3, p=Fraction(1, 3)):
        "4ec5c3223d0ec156e588424878696e51686b2c1a389143fd63e40705d847ce85",
    RandomModelSpec("bipartite_gnm", 10, 3, m=11):
        "94ce65d0bc3af8c1c6c50fc50b1481aad0db3a413c8dd23f199f84089199149a",
}


def test_samplers_are_deterministic():
    assert tuple(spec.model for spec in SAMPLE_DIGESTS) == MODELS
    for spec, digest in SAMPLE_DIGESTS.items():
        first, second = sample(spec), sample(spec)
        assert first.rows == second.rows
        assert _edge_list_digest(first) == digest


def _edge_list_digest(g) -> str:
    g = g.to_graph() if isinstance(g, BipartiteGraph) else g
    return hashlib.sha256(format_edge_list(g).encode()).hexdigest()


# sha256 of larger samples: every model past one batch of draws, with
# regular(20, k=9) at a seed whose pairing dead-ends and restarts.
LARGE_SAMPLE_DIGESTS = {
    RandomModelSpec("regular", 200, 3, k=8):
        "098bfde107f10bbed169f400ceae4fdb89c22bba3e52937bcf3e0e4dcd163cbd",
    RandomModelSpec("regular", 20, 29, k=9):
        "4f02cb99e55fe57ccb53b88babf4d398e0d540349d531ee134cb2d4348a76d7f",
    RandomModelSpec("gnp", 60, 3, p=Fraction(1, 3)):
        "f7995516d42262991976acb4b87512b540b253f0bfe5359367a72cc5dcb2e87b",
    RandomModelSpec("gnm", 60, 3, m=885):
        "e87dddbc303229f784a1d49ac6a21d554aaeca72e9569b9b6eec86d08b5ba9f8",
    RandomModelSpec("bipartite_gnp", 60, 3, p=Fraction(2, 3)):
        "36aa9924aa53957aaeb64108c1e4433e662d6606914e90302c654588ff7368f5",
    RandomModelSpec("bipartite_gnm", 60, 3, m=60):
        "6a9767bb616d3c25969503e9ec036c572a0495702ee24c22a10785231ae97275",
}


@pytest.mark.parametrize(
    "spec", list(LARGE_SAMPLE_DIGESTS),
    ids=lambda s: f"{s.model}-{s.n}-{getattr(s, RANDOM_MODELS[s.model].parameter)}")
def test_large_samples_are_pinned(spec):
    assert _edge_list_digest(sample(spec)) == LARGE_SAMPLE_DIGESTS[spec]


def test_pinned_regular_spec_restarts(monkeypatch):
    # the restart spec above must keep exercising the dead-end path:
    # each attempt shuffles the stubs once
    shuffle = families.Xoshiro256StarStar.shuffle
    attempts = []

    def counting_shuffle(self, items):
        attempts.append(len(items))
        shuffle(self, items)

    monkeypatch.setattr(families.Xoshiro256StarStar, "shuffle", counting_shuffle)
    sample(RandomModelSpec("regular", 20, 29, k=9))
    assert len(attempts) > 1


# One-call-per-draw samplers, as the models are defined: the oracles the
# bulk-drawing samplers must match word for word.
def _loop_gnp(rng, n, p):
    return from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.bernoulli(p.numerator, p.denominator)])


def _loop_slots(rng, slots, m):
    for i in range(m):
        j = i + rng.below(len(slots) - i)
        slots[i], slots[j] = slots[j], slots[i]
    return slots[:m]


def _loop_gnm(rng, n, m):
    return from_edges(n, _loop_slots(rng, list(combinations(range(n), 2)), m))


def _loop_regular(rng, n, k):
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        for i in range(len(stubs) - 1, 0, -1):
            j = rng.below(i + 1)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        rows = [0] * n
        failures = 0
        while stubs and failures < 50:
            i = rng.below(len(stubs))
            j = rng.below(len(stubs) - 1)
            if j >= i:
                j += 1
            u, v = stubs[i], stubs[j]
            if u == v or rows[u] >> v & 1:
                failures += 1
                continue
            failures = 0
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            for idx in sorted((i, j), reverse=True):
                stubs[idx] = stubs[-1]
                stubs.pop()
        if not stubs:
            return Graph(n, tuple(rows))


def _loop_bipartite_gnp(rng, n, p):
    half = n // 2
    return bipartite_from_edges(half, half, [
        (a, b) for a in range(half) for b in range(half)
        if rng.bernoulli(p.numerator, p.denominator)])


def _loop_bipartite_gnm(rng, n, m):
    half = n // 2
    slots = [(a, b) for a in range(half) for b in range(half)]
    return bipartite_from_edges(half, half, _loop_slots(rng, slots, m))


LOOP_SAMPLERS = {
    "gnp": _loop_gnp,
    "gnm": _loop_gnm,
    "regular": _loop_regular,
    "bipartite_gnp": _loop_bipartite_gnp,
    "bipartite_gnm": _loop_bipartite_gnm,
}
MATCH_SPECS = [
    ("gnp", 30, Fraction(1, 3)), ("gnp", 12, Fraction(1)), ("gnm", 24, 100),
    ("regular", 20, 9), ("regular", 60, 4), ("bipartite_gnp", 24, Fraction(2, 3)),
    ("bipartite_gnm", 24, 70),
]


@pytest.mark.parametrize("stream", [Xoshiro256StarStar, _HighWords],
                         ids=["plain", "rejecting"])
@pytest.mark.parametrize("model, n, param", MATCH_SPECS,
                         ids=[f"{m}-{n}-{q}" for m, n, q in MATCH_SPECS])
def test_samplers_match_one_call_per_draw(model, n, param, stream):
    assert tuple(LOOP_SAMPLERS) == MODELS
    sampler = families.RANDOM_MODELS[model].sampler
    for seed in range(6):
        bulk, single = stream(seed), stream(seed)
        assert sampler(bulk, n, param).rows == LOOP_SAMPLERS[model](single, n, param).rows
        assert bulk._s == single._s


def test_regular_sampler_draws_no_single_words(monkeypatch):
    # with no rejected word, every word comes from a batch
    calls = []
    next_u64 = Xoshiro256StarStar.next_u64

    def counting_next_u64(self):
        calls.append(1)
        return next_u64(self)

    monkeypatch.setattr(Xoshiro256StarStar, "next_u64", counting_next_u64)
    g = families._sample_regular(Xoshiro256StarStar(3), 200, 8)
    assert degree_summary(g).max_degree == 8
    assert calls == []


def test_different_seeds_give_different_graphs():
    a = sample(RandomModelSpec("gnp", 10, 1, p=Fraction(1, 2)))
    b = sample(RandomModelSpec("gnp", 10, 2, p=Fraction(1, 2)))
    assert a.rows != b.rows


def test_gnp_degenerate_probabilities():
    assert sample(RandomModelSpec("gnp", 6, 0, p=Fraction(0))).edge_count == 0
    assert sample(RandomModelSpec("gnp", 6, 0, p=Fraction(1))).edge_count == 15


def test_gnp_edge_count_statistics():
    """Mean edge count over 500 seeds must sit within four standard
    errors of the binomial mean, for a sparse and a dense p."""
    n, runs = 50, 500
    pairs = n * (n - 1) // 2
    for p in (Fraction(1, 5), Fraction(4, 5)):
        total = 0
        for i in range(runs):
            spec = RandomModelSpec("gnp", n, derive_seed(1234, i), p=p)
            total += sample(spec).edge_count
        mean = total / runs
        expected = pairs * float(p)
        sigma = math.sqrt(pairs * float(p) * (1 - float(p)))
        assert abs(mean - expected) <= 4 * sigma / math.sqrt(runs)


def test_gnm_hits_the_requested_edge_count():
    for m in (0, 1, 20, 45):
        g = sample(RandomModelSpec("gnm", 10, 7, m=m))
        assert g.edge_count == m
    with pytest.raises(ValueError):
        sample(RandomModelSpec("gnm", 10, 7, m=46))


def test_regular_sampler_degrees():
    for n, k, seed in ((8, 3, 0), (12, 5, 1), (10, 2, 2), (9, 4, 3)):
        g = sample(RandomModelSpec("regular", n, seed, k=k))
        summary = degree_summary(g)
        assert summary.is_regular and summary.min_degree == k


def test_regular_sampler_edge_cases():
    g = sample(RandomModelSpec("regular", 5, 0, k=0))
    assert g.edge_count == 0
    with pytest.raises(ValueError):
        sample(RandomModelSpec("regular", 5, 0, k=3))  # odd stub total
    with pytest.raises(ValueError):
        sample(RandomModelSpec("regular", 5, 0, k=5))
    # complete graph: forced pairing succeeds
    g = sample(RandomModelSpec("regular", 6, 0, k=5))
    assert g.rows == complete_graph(6).rows


def test_bipartite_samplers():
    gb = sample(RandomModelSpec("bipartite_gnp", 12, 4, p=Fraction(1, 2)))
    assert isinstance(gb, BipartiteGraph)
    assert gb.na == gb.nb == 6
    gb = sample(RandomModelSpec("bipartite_gnm", 12, 4, m=13))
    assert sum(popcount(r) for r in gb.rows) == 13
    with pytest.raises(ValueError):
        sample(RandomModelSpec("bipartite_gnm", 12, 4, m=37))


# --- tight constructions ------------------------------------------------------

def test_cobipartite_tight_families_verify():
    for k, l in ((1, 2), (2, 2), (1, 3), (2, 3), (3, 2)):
        cert = cobipartite_tight_family(k, l)
        n = 2 * k * l
        assert cert.graph.n == n
        assert cert.claimed_lower == Fraction(l)
        assert cert.claimed_upper == l
        summary = degree_summary(cert.graph)
        assert summary.is_regular and summary.min_degree == n - k - 1
        assert cert.verify()


def test_bipartite_tight_families_verify():
    for k, l in ((2, 2), (2, 3), (3, 2)):
        cert = bipartite_tight_family(k, l)
        assert cert.claimed_lower == Fraction(l, 2)
        assert cert.claimed_upper == l + 2
        assert len(cert.reps) == l + 2
        assert cert.bipartite.to_graph().rows == cert.graph.rows
        assert all(popcount(r) == (l - 1) * k for r in cert.bipartite.rows)
        assert cert.verify()


def test_tampered_certificates_fail():
    good = cobipartite_tight_family(2, 2)
    wrong_graph = TightFamilyCertificate(
        graph=complete_graph(good.graph.n),
        reps=good.reps,
        claimed_lower=good.claimed_lower,
        claimed_upper=good.claimed_upper,
    )
    assert not wrong_graph.verify()
    missing_rep = TightFamilyCertificate(
        graph=good.graph,
        reps=good.reps[:-1],
        claimed_lower=good.claimed_lower,
        claimed_upper=good.claimed_upper,
    )
    assert not missing_rep.verify()


# sha256 of repr(cobipartite_tight_family(k, l)) then
# repr(bipartite_tight_family(k, l)) for k, then l, in 1..4: graphs,
# representations, claimed bounds and bipartite sides, byte for byte.
TIGHT_FAMILIES_DIGEST = "720576b7f443b41b364c608dbdc4221ed8641f4fce21bf24f8bab40c455a1cfa"


def test_tight_families_are_pinned():
    text = "".join(repr(cobipartite_tight_family(k, l)) + repr(bipartite_tight_family(k, l))
                   for k in range(1, 5) for l in range(1, 5))
    assert hashlib.sha256(text.encode()).hexdigest() == TIGHT_FAMILIES_DIGEST


def test_tight_family_validation():
    with pytest.raises(ValueError):
        cobipartite_tight_family(0, 2)
    with pytest.raises(ValueError):
        bipartite_tight_family(2, 0)


# --- named graphs -------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: complete_multipartite(3, 4), lambda: complete_graph(12),
    lambda: empty_graph(12), lambda: cycle(12), lambda: path(12)],
    ids=["complete_multipartite", "complete_graph", "empty_graph", "cycle", "path"])
def test_constructors_check_the_vertex_count_before_building(monkeypatch, build):
    # with the cap lowered to 10, a 12-vertex constructor must raise
    # before it reaches the Graph it would build
    def refuse(*args):
        raise AssertionError("built before the vertex count was checked")

    monkeypatch.setattr(graphs, "MAX_VERTICES", 10)
    for module, name in ((graphs, "Graph"), (graphs, "from_edges"), (families, "from_edges")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(ValueError, match="vertex count 12 outside 1..10"):
        build()


def test_constructors_keep_their_own_checks_first():
    with pytest.raises(ValueError, match="need part_size >= 1 and parts >= 2"):
        complete_multipartite(0, 10**8)
    with pytest.raises(ValueError, match="cycle needs at least 3 vertices"):
        cycle(0)
    with pytest.raises(ValueError, match="vertex count 0 outside"):
        path(0)


def test_complete_multipartite_shapes():
    octa = complete_multipartite(2, 3)
    assert octa.n == 6 and octa.edge_count == 12
    assert degree_summary(octa).min_degree == 4
    four = complete_multipartite(2, 2)
    assert four.edge_count == 4
    assert degree_summary(four).is_regular
    with pytest.raises(ValueError):
        complete_multipartite(0, 3)
    with pytest.raises(ValueError):
        complete_multipartite(2, 1)


def test_complement_cycle():
    g = complement_cycle(6)
    assert degree_summary(g).min_degree == 3
    assert g.edge_count == 15 - 6
    with pytest.raises(ValueError):
        complement_cycle(3)


def test_petersen_is_strongly_regular():
    g = petersen()
    assert g.n == 10 and g.edge_count == 15
    summary = degree_summary(g)
    assert summary.is_regular and summary.min_degree == 3
    for u in range(10):
        for v in range(u + 1, 10):
            common = popcount(g.rows[u] & g.rows[v])
            assert common == (0 if g.rows[u] >> v & 1 else 1)


# --- enumeration ---------------------------------------------------------------

def test_isomorphism_class_counts():
    for n, count in CLASS_COUNTS.items():
        graphs = list(enumerate_graphs(n))
        assert len(graphs) == count
        assert all(isinstance(g, Graph) and g.n == n for g in graphs)


def test_enumeration_edge_histogram():
    histogram = [0] * 7
    for g in enumerate_graphs(4):
        histogram[g.edge_count] += 1
    assert histogram == [1, 1, 2, 3, 2, 1, 1]


def test_enumeration_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_graphs(7))
    with pytest.raises(ValueError):
        list(enumerate_graphs(0))


def test_class_count_cap_raises_before_any_array(monkeypatch):
    monkeypatch.setattr(families, "np", _NoNumpy())
    with pytest.raises(BudgetExceededError, match=f"capped at n <= {ENUMERATION_MAX_VERTICES}"):
        next(enumerate_graphs(ENUMERATION_MAX_VERTICES + 1))
