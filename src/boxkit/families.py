"""Graph families: seeded random models, extremal constructions with
interval certificates, and exhaustive small-graph enumeration.

Random models draw from a per-sample xoshiro256** stream, so a
(model, parameters, seed) triple pins the graph exactly.  The tight
constructions return the graph together with explicit interval
representations realizing the claimed upper bound, checkable by exact
edge intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, permutations, product
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExceededError
from .graphs import (
    BipartiteGraph,
    Graph,
    bipartite_from_edges,
    check_vertex_count,
    complement,
    cycle,
    from_edges,
    from_pair_mask,
)
from .intervals import IntervalRep, intersect_realized
from .rng import Xoshiro256StarStar

REGULAR_RESTART_BUDGET = 10**6
ENUMERATION_MAX_VERTICES = 6


@dataclass(frozen=True)
class RandomModelSpec:
    """Everything that determines one random graph.

    For bipartite models n is the total vertex count and must be even;
    the sides get n/2 vertices each.
    """

    model: str
    n: int
    seed: int
    p: Fraction | None = None
    m: int | None = None
    k: int | None = None

    def __post_init__(self) -> None:
        model = RANDOM_MODELS.get(self.model)
        if model is None:
            raise ValueError(f"unknown model {self.model!r}")
        check_vertex_count(self.n)
        if model.bipartite and self.n % 2:
            raise ValueError("bipartite models need an even vertex count")
        need, valid = PARAMETERS[model.parameter]
        value = getattr(self, model.parameter)
        if value is None or not valid(value):
            raise ValueError(f"the {self.model} model needs {need}")


def _sample_gnp(rng: Xoshiro256StarStar, n: int, p: Fraction) -> Graph:
    hits = rng.bernoulli_many(n * (n - 1) // 2, p.numerator, p.denominator)
    return from_edges(n, compress(combinations(range(n), 2), hits))


def _draw_slots(rng: Xoshiro256StarStar, slots: list, m: int) -> list:
    """m of the slots, uniformly without replacement, by the first m
    steps of a Fisher-Yates shuffle."""
    if not 0 <= m <= len(slots):
        raise ValueError(f"m = {m} outside 0..{len(slots)}")
    for i, j in enumerate(rng.below_many(range(len(slots), len(slots) - m, -1))):
        j += i
        slots[i], slots[j] = slots[j], slots[i]
    return slots[:m]


def _sample_gnm(rng: Xoshiro256StarStar, n: int, m: int) -> Graph:
    return from_edges(n, _draw_slots(rng, list(combinations(range(n), 2)), m))


def _sample_regular(rng: Xoshiro256StarStar, n: int, k: int) -> Graph:
    """Random k-regular graph by stub pairing.

    Colliding stub pairs are redrawn and the whole attempt restarts when
    no legal pair remains, so every returned graph is simple.  The
    distribution is the pairing model's up to the small bias of
    collision redraws.

    The pairing draws its words in batches of min(len(stubs),
    2 * (50 - failures)).  Each pass takes at least two words and at
    least min(len(stubs) / 2, 50 - failures) passes remain, so a batch
    never outlives the loop: a dead end leaves the stream where one
    below() call per draw would, and the restart's shuffle starts on
    the same word.
    """
    if k >= n:
        raise ValueError("degree must be below n")
    if (n * k) % 2:
        raise ValueError("n * k must be even")
    if k == 0:
        return from_edges(n, [])
    # below(b) accepts every word under this for each bound b <= n * k
    safe = (1 << 64) - n * k
    for _ in range(REGULAR_RESTART_BUDGET):
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        rows = [0] * n
        failures = 0
        spare: list[int] = []  # the batch's unused words, next one last
        while stubs and failures < 50:
            size = len(stubs)
            if not spare:
                spare = rng.words(min(size, 2 * (50 - failures))).tolist()[::-1]
            if len(spare) > 1 and spare[-1] < safe and spare[-2] < safe:
                i = spare.pop() % size
                j = spare.pop() % (size - 1)
            else:
                i = rng.below_from(spare, size)
                j = rng.below_from(spare, size - 1)
            if j >= i:
                j += 1
            u, v = stubs[i], stubs[j]
            if u == v or rows[u] >> v & 1:
                failures += 1
                continue
            failures = 0
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            for idx in (i, j) if i > j else (j, i):
                stubs[idx] = stubs[-1]
                stubs.pop()
        if not stubs:
            return Graph(n, tuple(rows))
        # dead end: the remaining stubs admit no legal pair often enough
    raise BudgetExceededError("regular sampling restart budget exhausted")


def _sample_bipartite_gnp(rng: Xoshiro256StarStar, n: int, p: Fraction) -> BipartiteGraph:
    half = n // 2
    hits = rng.bernoulli_many(half * half, p.numerator, p.denominator)
    return bipartite_from_edges(half, half, compress(product(range(half), repeat=2), hits))


def _sample_bipartite_gnm(rng: Xoshiro256StarStar, n: int, m: int) -> BipartiteGraph:
    half = n // 2
    slots = [(a, b) for a in range(half) for b in range(half)]
    return bipartite_from_edges(half, half, _draw_slots(rng, slots, m))


class RandomModel(NamedTuple):
    """How a model reads its spec: the RandomModelSpec field holding its
    parameter, and the sampler that draws from (rng, n, parameter)."""

    parameter: str
    sampler: Callable
    bipartite: bool = False


# The one place a random model is added, keyed by its name.
RANDOM_MODELS = {
    "gnp": RandomModel("p", _sample_gnp),
    "gnm": RandomModel("m", _sample_gnm),
    "regular": RandomModel("k", _sample_regular),
    "bipartite_gnp": RandomModel("p", _sample_bipartite_gnp, bipartite=True),
    "bipartite_gnm": RandomModel("m", _sample_bipartite_gnm, bipartite=True),
}
MODELS = tuple(RANDOM_MODELS)
# What each model parameter must hold, as (description, check).
PARAMETERS = {
    "p": ("an edge probability p in [0, 1]", lambda p: 0 <= p <= 1),
    "m": ("an edge count m", lambda m: True),
    "k": ("a degree k >= 0", lambda k: k >= 0),
}


def sample(spec: RandomModelSpec) -> Graph | BipartiteGraph:
    """Draw the graph the spec pins down."""
    model = RANDOM_MODELS[spec.model]
    return model.sampler(Xoshiro256StarStar(spec.seed), spec.n,
                         getattr(spec, model.parameter))


# --- extremal constructions ---------------------------------------------

@dataclass(frozen=True)
class TightFamilyCertificate:
    """A constructed graph with interval representations witnessing the
    claimed upper bound and the matching claimed lower bound."""

    graph: Graph
    reps: tuple[IntervalRep, ...]
    claimed_lower: Fraction
    claimed_upper: int
    bipartite: BipartiteGraph | None = None

    def verify(self) -> bool:
        """Exact check that the representations intersect to the graph."""
        if len(self.reps) != self.claimed_upper:
            return False
        return intersect_realized(self.reps, self.graph.n) == self.graph.rows


def _offset(v: int, n: int) -> Fraction:
    # distinct per vertex, strictly inside (0, 1/2)
    return Fraction(v + 1, 2 * (n + 2))


def _widened(spots: list[tuple[int, int]]) -> IntervalRep:
    """Vertex v on spots[v], each endpoint widened by _offset(v, n), so
    that touching spots overlap and no two endpoints coincide."""
    n = len(spots)
    return IntervalRep(tuple((lo - _offset(v, n), hi + _offset(v, n))
                             for v, (lo, hi) in enumerate(spots)))


def _block_family(k: int, l: int, matched: bool,
                  outside: tuple[int, int]) -> tuple[BipartiteGraph, list[IntervalRep]]:
    """The block structure both tight families share.

    Sides A and B hold l blocks of k vertices each, and A-block i is
    adjacent to B-block j exactly when (i == j) == matched.
    Representation i puts A-block i on [0, 1], B-block i on [2, 3] and
    every other vertex on outside.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive")
    half = k * l
    check_vertex_count(2 * half)
    gb = bipartite_from_edges(half, half, [
        (a, b) for a in range(half) for b in range(half) if (a // k == b // k) == matched])
    reps = []
    for i in range(l):
        spots = [outside] * (2 * half)
        spots[i * k:(i + 1) * k] = [(0, 1)] * k
        spots[half + i * k:half + (i + 1) * k] = [(2, 3)] * k
        reps.append(_widened(spots))
    return gb, reps


def cobipartite_tight_family(k: int, l: int) -> TightFamilyCertificate:
    """Complete graph on 2kl vertices minus l disjoint k-by-k bicliques.

    The complement is (k)-biclique-regular, the graph itself is
    (n - k - 1)-regular, and l interval graphs suffice: representation i
    separates block pair i onto [0,1] and [2,3] while everything else
    straddles the middle.  Boxicity is exactly l once n / 2k = l is
    certified below it.
    """
    matching, reps = _block_family(k, l, True, (1, 2))
    return TightFamilyCertificate(
        graph=complement(matching.to_graph()),
        reps=tuple(reps),
        claimed_lower=Fraction(l),
        claimed_upper=l,
    )


def bipartite_tight_family(k: int, l: int) -> TightFamilyCertificate:
    """Balanced bipartite graph on 2kl vertices: block i of side A is
    adjacent to every B-block except block i.

    l + 2 interval graphs realize it: one per block pair as in the
    co-bipartite family, with everything else spanning both, one
    spreading side A into disjoint intervals to cut all A-A pairs, and
    one spreading side B.  Boxicity sits between the certified l/2 and
    l + 2.
    """
    gb, reps = _block_family(k, l, False, (-1, 4))
    half = gb.na
    for side in (0, 1):
        spots = [(-1, 2 * half)] * (2 * half)
        spots[side * half:(side + 1) * half] = [(2 * j, 2 * j + 1) for j in range(half)]
        reps.append(_widened(spots))
    return TightFamilyCertificate(
        graph=gb.to_graph(),
        reps=tuple(reps),
        claimed_lower=Fraction(l, 2),
        claimed_upper=l + 2,
        bipartite=gb,
    )


def complete_multipartite(part_size: int, parts: int) -> Graph:
    """Complete multipartite graph with the given number of equal parts."""
    if part_size < 1 or parts < 2:
        raise ValueError("need part_size >= 1 and parts >= 2")
    n = part_size * parts
    check_vertex_count(n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if u // part_size != v // part_size]
    return from_edges(n, edges)


def complement_cycle(n: int) -> Graph:
    if n < 4:
        raise ValueError("complement of a cycle needs n >= 4")
    return complement(cycle(n))


def petersen() -> Graph:
    """Outer 5-cycle, inner pentagram, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return from_edges(10, edges)


# --- exhaustive enumeration ----------------------------------------------

@lru_cache(maxsize=None)
def _canonical_pair_masks(n: int) -> tuple[int, ...]:
    """One canonical pair-bitmask per isomorphism class on n vertices.

    Canonical form is the numeric minimum, over all vertex permutations,
    of the bitmask indexed by the lexicographic pair order.  All 2^C(n,2)
    graphs are canonicalized at once with vectorized bit shuffles, so n
    is capped at ENUMERATION_MAX_VERTICES before any array is built.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n = {n}")
    if n > ENUMERATION_MAX_VERTICES:
        raise BudgetExceededError(
            f"exhaustive enumeration capped at n <= {ENUMERATION_MAX_VERTICES}")
    pair_index = {p: i for i, p in enumerate(combinations(range(n), 2))}
    n_pairs = len(pair_index)
    masks = np.arange(1 << n_pairs, dtype=np.uint32)
    canon = masks.copy()
    for perm in permutations(range(n)):
        permuted = np.zeros_like(masks)
        for (u, v), b in pair_index.items():
            target = pair_index[tuple(sorted((perm[u], perm[v])))]
            permuted |= ((masks >> np.uint32(b)) & np.uint32(1)) << np.uint32(target)
        np.minimum(canon, permuted, out=canon)
    return tuple(int(m) for m in sorted(set(canon.tolist())))


def enumerate_graphs(n: int):
    """Yield one representative per isomorphism class on n vertices."""
    for mask in _canonical_pair_masks(n):
        yield from_pair_mask(n, mask)

