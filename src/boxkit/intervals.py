"""Interval representations, canonical interval supergraphs, and exact
boxicity for small graphs.

A graph is an interval graph iff it is realized by open intervals; with
all 2n endpoints pairwise distinct, u ~ v exactly when l(u) < r(v) and
l(v) < r(u).  Boxicity is the least k with g equal to the intersection
of k interval graphs on the same vertices (complete graphs get 0 by
convention, since an empty intersection imposes no constraint).

The search space collapses through one structural fact: among all
interval supergraphs of g whose right endpoints induce the vertex order
eta, there is a unique minimal one, I_eta, and it is contained in every
other.  So only canonical supergraphs, one per ordering, ever need to be
intersected, and minimizing edges of an interval supergraph becomes a
minimum over orderings that a subset DP solves exactly.  The DP indexes
its table by the subsets of two halves of the vertex set, rows by the
high half and columns by the low one, so that each step reads whole
rows, and stores the minima in the least unsigned dtype that holds
them.  Up to 14 vertices the low half is all of them, and the table is
one row.  The closed-neighbourhood unions it reads are the same ones
the isoperimetric profile minimizes, so the DP folds their least size
for every subset size, with the profile's witnesses, and the strong
boundary bound need not scan them again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from math import factorial, lcm
from numbers import Rational
from typing import NamedTuple

import numpy as np

from .bitset import bits, full_mask, popcount
from .errors import SUPERGRAPH_MAX_VERTICES, BudgetExceededError, check_vertex_cap
from .graphs import Graph, is_complete
from .isoperimetry import _fold_blocks, _half_tables, _low_size, _split_layouts

BOX_MAX_VERTICES = 9
BOX_SEARCH_NODE_BUDGET = 10**6


@dataclass(frozen=True)
class IntervalRep:
    """One open interval (l, r) per vertex, as exact rationals.

    Each endpoint is an int or a Fraction; anything else, a float
    included, raises ValueError.  All 2n endpoints must be pairwise
    distinct; that keeps the adjacency predicate strict-inequality-only
    and the numbering by right endpoints free of ties.

    intervals is the representation, and the only field that equality,
    hashing and repr read.  scaled holds the same endpoints once as
    ints, each multiplied by the least common multiple of all the
    denominators.  Scaling keeps their order, so every comparison here,
    and in intersect_realized and induced_numbering, reads those ints
    instead of comparing Fractions.
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]
    scaled: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for v, pair in enumerate(self.intervals):
            for x in pair:
                if not isinstance(x, Rational):
                    raise ValueError(f"interval {v} has the endpoint {x!r}, "
                                     "which is not an int or a Fraction")
        scale = lcm(*(x.denominator for pair in self.intervals for x in pair))
        scaled = tuple((lo.numerator * (scale // lo.denominator),
                        hi.numerator * (scale // hi.denominator))
                       for lo, hi in self.intervals)
        object.__setattr__(self, "scaled", scaled)
        endpoints = []
        for v, (lo, hi) in enumerate(scaled):
            if lo >= hi:
                raise ValueError(f"interval {v} has l >= r")
            endpoints.append(lo)
            endpoints.append(hi)
        if len(set(endpoints)) != len(endpoints):
            raise ValueError("duplicate interval endpoints")

    @property
    def n(self) -> int:
        return len(self.intervals)


@dataclass(frozen=True)
class Ordering:
    """A vertex numbering; ranks[v] is the position of v."""

    ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.ranks) != list(range(len(self.ranks))):
            raise ValueError("ranks must be a permutation of 0..n-1")

    @property
    def n(self) -> int:
        return len(self.ranks)

    def sequence(self) -> tuple[int, ...]:
        """Vertices in increasing rank order."""
        seq = [0] * len(self.ranks)
        for v, r in enumerate(self.ranks):
            seq[r] = v
        return tuple(seq)

    @staticmethod
    def from_sequence(seq) -> "Ordering":
        ranks = [0] * len(seq)
        for pos, v in enumerate(seq):
            ranks[v] = pos
        return Ordering(tuple(ranks))


def intersect_realized(reps, n: int) -> tuple[int, ...]:
    """Rows of the intersection of the graphs the representations
    realize; with no representation, the complete graph."""
    inter = [full_mask(n) & ~(1 << v) for v in range(n)]
    for rep in reps:
        if rep.n != n:
            raise ValueError("representation size does not match vertex count")
        for u, (lu, ru) in enumerate(rep.scaled):
            # u's own bit is set here, and inter[u] never holds it
            inter[u] &= sum(1 << v for v, (lv, rv) in enumerate(rep.scaled) if lu < rv and lv < ru)
    return tuple(inter)


def induced_numbering(rep: IntervalRep) -> Ordering:
    """Vertices ranked by right endpoint."""
    order = sorted(range(rep.n), key=lambda v: rep.scaled[v][1])
    return Ordering.from_sequence(order)


def canonical_rep(g: Graph, ordering: Ordering) -> IntervalRep:
    """Intervals of the minimal interval supergraph of g inducing ordering.

    Vertex v gets r(v) = rank(v) and l(v) reaching left to the smallest
    rank in its closed neighborhood, nudged by -(v+1)/(n+1) so endpoints
    stay pairwise distinct without disturbing which integer ranks each
    interval covers.  Two vertices are then adjacent iff the later one's
    earliest neighbor sits at or before the other, which both contains g
    and stays minimal among supergraphs inducing this numbering.

    The reaches come from one walk along the ordering: the vertex at
    position p lies in N[v] exactly when v lies in its closed
    neighborhood, so each vertex not yet reached there has reach p.
    """
    n = g.n
    if ordering.n != n:
        raise ValueError("ordering size does not match graph")
    reach = [0] * n
    unreached = full_mask(n)
    for pos, w in enumerate(ordering.sequence()):
        near = unreached & g.closed_rows[w]
        for v in bits(near):
            reach[v] = pos
        unreached ^= near
    return IntervalRep(tuple((Fraction(reach[v] * (n + 1) - (v + 1), n + 1), Fraction(rank))
                             for v, rank in enumerate(ordering.ranks)))


class MinSupergraph(NamedTuple):
    """The fewest supergraph edges, an ordering that reaches them, and,
    for k = 1 .. n-1, the least |N[X]| over |X| = k with its
    lexicographically smallest witness X, folded from the DP's unions."""

    edge_count: int
    ordering: Ordering
    closed_unions: tuple[tuple[int, int], ...]


def _table_dtype(n: int) -> np.dtype:
    """The least unsigned dtype whose maximum exceeds C(n, 2), the largest
    value of the supergraph DP's f on n vertices: uint8 up to n = 23."""
    return np.min_scalar_type(n * (n - 1) // 2 + 1)


def min_interval_supergraph(g: Graph) -> MinSupergraph:
    """Fewest edges over all interval supergraphs of g.

    The edge count of the canonical supergraph for eta equals the sum of
    |Gamma(S_k)| over the proper prefixes S_k of eta, so the minimum over
    orderings is f(V) with f(S) = |Gamma(S)| + min over v in S of
    f(S - v).  A prefix of k vertices has |Gamma| <= n - k, so every
    f(S) is at most C(n, 2), and f is kept in _table_dtype(n): uint8 up
    to n = 23, uint16 above.

    The vertices are split into the low half L = 0 .. _low_size(n) - 1
    and the high half H.  f has one row per subset of H and one column
    per subset of L, each half in the _layers order.  At n <= 14, L is
    every vertex and H is empty, so f is one row of 2^n columns and the
    DP runs as the one row layer with no high vertex; above that L is
    the first n // 2 vertices.  Removing a high vertex moves to a row of
    the previous row layer and removing a low vertex to a column of the
    previous column layer.  The rows are filled one layer at a time.  A
    row layer starts from the rows of its first high predecessor and
    takes the minimum with each other one, one gather of whole rows from
    the layer before per high vertex; the block is then transposed, and
    each column layer takes the minimum over its low vertices with one
    gather of whole (transposed) rows from the column layer before.  The
    row layer with no high vertex starts at the dtype's maximum, above
    every f, so that its sets take their minimum from their low vertices
    alone.  |N[S]| = |N[S & H] | N[S & L]| is read from one
    closed-neighbourhood union table per half, and turned in place into
    |Gamma(S)| = |N[S]| - |S|, which each column layer then adds.  A row
    layer drops its blocks before the next one builds its own, so beside
    f the DP holds one layer at a time.

    Each row layer's unions are also folded into the least |N[X]| of
    every size k = 1 .. n-1: before they are turned into |Gamma(S)|, the
    layer's (column x row) array of |N[S]|, less the empty and the full
    set, goes to _fold_blocks, the fold the profile scan (_least_unions)
    runs on its chunks.  So closed_unions equals LeastUnions.every on
    the closed rows, witnesses included.  The fold runs on every call,
    also when min_supergraph is the only bound asked for: closed_unions
    is part of the result, and skipping it would take a second path
    through the DP to save about a tenth of its time (0.2-0.4 ms of a
    2.0-2.2 ms gnp(18, 1/2) call on a 2-core x86_64 host).

    No choice table is kept.  The ordering is walked back from the
    table: from the full set, each step removes the smallest v in S
    whose f(S - v) is least, so ties break toward the smallest vertex
    and the returned ordering is deterministic.
    """
    n = g.n
    check_vertex_cap(n, SUPERGRAPH_MAX_VERTICES)
    h = _low_size(n)
    low, high = _split_layouts(n)
    reach_low, reach_high = _half_tables(g.closed_rows)
    dtype = _table_dtype(n)
    f = np.empty((len(reach_high), len(reach_low)), dtype=dtype)
    low_sizes = np.bitwise_count(low.masks)[:, None]
    least: dict[int, tuple[int, int]] = {}
    for a, (r0, r1) in enumerate(pairwise(high.starts)):
        # |N[S]| for every S in this row layer, one row per column, folded
        # without the empty set (first in the first row layer) and the
        # full set (last in the last), then turned into |Gamma(S)|
        gamma = np.bitwise_count(reach_low[:, None] | reach_high[r0:r1])
        start, stop = int(a == 0), len(reach_low) - int(r1 == len(reach_high))
        _fold_blocks(least, gamma[start:stop], a, start, low, high)
        gamma -= low_sizes + a
        if a:
            best = np.take(f, high.preds[a][0], axis=0)
            rows = np.empty_like(best)
            for pred in high.preds[a][1:]:
                # mode="clip" writes rows in place; "raise" would buffer it
                np.take(f, pred, axis=0, out=rows, mode="clip")
                np.minimum(best, rows, out=best)
            del rows
        else:
            best = np.full((1, len(reach_low)), np.iinfo(dtype).max, dtype=dtype)
            best[0, 0] = 0  # f of the empty set
        block = np.ascontiguousarray(best.T)
        del best
        for b, (c0, c1) in enumerate(pairwise(low.starts)):
            part = block[c0:c1]
            if b:
                np.minimum(part, np.take(block, low.preds[b], axis=0).min(axis=0), out=part)
            part += gamma[c0:c1]
        f[r0:r1] = block.T
        del block, part, gamma  # before the next layer builds its own
    low_mask = (1 << h) - 1
    low_position, high_position = low.position_list, high.position_list

    def value(s: int) -> int:
        return f.item(high_position[s >> h], low_position[s & low_mask])

    seq_rev = []
    s = (1 << n) - 1
    while s:
        v = min(bits(s), key=lambda v: value(s ^ 1 << v))
        seq_rev.append(v)
        s ^= 1 << v
    ordering = Ordering.from_sequence(tuple(reversed(seq_rev)))
    return MinSupergraph(f.item(-1, -1), ordering, tuple(least[k] for k in range(1, n)))


@dataclass(frozen=True)
class BoxCertificate:
    """k orderings whose canonical supergraphs intersect to the graph.

    k = 0 certifies a complete graph (empty intersection convention).
    """

    k: int
    orderings: tuple[Ordering, ...]
    reps: tuple[IntervalRep, ...]


def verify_box_certificate(g: Graph, cert: BoxCertificate) -> bool:
    """Exact re-check: edge intersection and numbering consistency.  A
    certificate for another vertex count is false, not an error."""
    if cert.k != len(cert.orderings) or cert.k != len(cert.reps):
        return False
    if any(part.n != g.n for part in (*cert.orderings, *cert.reps)):
        return False
    if any(induced_numbering(rep) != ordering
           for ordering, rep in zip(cert.orderings, cert.reps)):
        return False
    return intersect_realized(cert.reps, g.n) == g.rows


def _nonedge_list(g: Graph) -> list[tuple[int, int]]:
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                out.append((u, v))
    return out


def _coverage_catalog(g: Graph) -> list[tuple[int, int]]:
    """For each distinct behavior, the mask of non-edges its canonical
    supergraph omits and the Lehmer rank of the lexicographically first
    ordering with that behavior (_unrank turns it into the ordering).  Masks
    contained in another are dropped; any cover by a dropped mask is
    also a cover by its superset.

    Built by a DP over placed sets rather than a scan of all n!
    orderings.  Placing x after the set P omits the non-edge {x, y}
    exactly when no vertex of N[y] lies in P, so the omitted mask grows
    by term[P, x], a table over all 2^n placed sets built with one
    array pass per y.  Such a y lies outside P, so a non-edge enters the
    mask only when its first endpoint is placed: term[P, x] never meets
    the mask so far.  Each state (P, mask) keeps its lexicographically
    first prefix; any later prefix reaching the same state has the same
    completions, so every final mask keeps the first ordering that
    reaches it.

    A state is one uint64 word: from the top bit down P (n bits), the
    mask (one bit per non-edge) and the prefix's Lehmer rank in
    bitlen(n! - 1) bits.  Appending the j-th vertex outside P to a
    prefix of length k makes the rank rank * (n - k) + j, so among
    prefixes of one length rank order is lex order.  step[P, j] holds
    that vertex's bit of P, its term in the mask field and j, none of
    which the word has set, so each candidate is one addition to the
    word with its rank scaled.  The DP is layered: one step extends
    every state at once, sorts the candidate words in place and keeps
    the first of each run of equal (P, mask).  Distinct prefixes have
    distinct ranks, so that head has the smallest rank: the lex-first
    prefix.  The maximal masks are peeled off the final layer in order
    of decreasing popcount, then increasing mask: the head is never
    contained in a later mask, so it is kept, and every mask it contains
    is dropped.  A word needs n + nonedges + bitlen(n! - 1) <= 64 bits,
    which every graph with n <= 9 meets; a wider graph raises ValueError.
    """
    n = g.n
    nonedges = _nonedge_list(g)
    width = len(nonedges)
    rank_bits = (factorial(n) - 1).bit_length()
    if n + width + rank_bits > 64:
        raise ValueError("coverage catalog words need n + nonedges + bitlen(n! - 1) <= 64, "
                         f"got {n + width + rank_bits}")
    pair = np.zeros((n, n), dtype=np.uint64)
    for i, (u, v) in enumerate(nonedges):
        pair[u, v] = pair[v, u] = 1 << i
    every_set = np.arange(1 << n)
    term = np.zeros((1 << n, n), dtype=np.uint64)
    for y in range(n):
        term[(every_set & g.closed_rows[y]) == 0] |= pair[:, y]
    step = term << rank_bits | 1 << (np.arange(n, dtype=np.uint64) + width + rank_bits)
    # each row's vertices outside P first, in ascending order
    outside_first = np.argsort(every_set[:, None] >> np.arange(n) & 1, axis=1, kind="stable")
    step = np.take_along_axis(step, outside_first, axis=1) + np.arange(n, dtype=np.uint64)
    del every_set, term, outside_first
    rank_field = (1 << rank_bits) - 1
    word = np.zeros(1, dtype=np.uint64)
    for free in range(n, 0, -1):
        word += (word & rank_field) * (free - 1)
        # P fits in intp, so np.take need not copy the index
        words = np.take(step[:, :free], (word >> width + rank_bits).view(np.intp), axis=0)
        words += word[:, None]
        del word
        words = words.ravel()
        words.sort()
        head = words >> rank_bits
        first = np.ones(len(head), dtype=bool)
        np.not_equal(head[1:], head[:-1], out=first[1:])
        del head
        word = words[first]
        del words, first
    mask, code = word >> rank_bits & (1 << width) - 1, word & rank_field
    # bitwise_count is uint8, which would wrap under negation
    order = np.lexsort((mask, -np.bitwise_count(mask).astype(np.int8)))
    mask, code = mask[order], code[order]
    maximal = []
    while len(mask):
        head = int(mask[0])
        maximal.append((head, int(code[0])))
        outside = (mask | head) != head
        mask, code = mask[outside], code[outside]
    return maximal


def _unrank(n: int, rank: int) -> Ordering:
    """The ordering whose vertex sequence has Lehmer rank rank among the
    n! sequences in lex order."""
    unplaced = list(range(n))
    return Ordering.from_sequence([unplaced.pop(rank // factorial(n - 1 - k) % (n - k))
                                   for k in range(n)])


def boxicity_le(g: Graph, k: int) -> BoxCertificate | None:
    """Certificate with the fewest orderings that boxicity(g) <= k, or
    None when it is not.

    Exhausts intersections of canonical supergraphs only, which loses no
    solutions.  One iterative-deepening search: the catalog is built
    once and the cover search runs at depth 1, 2, .. k, so the first
    depth with a cover is boxicity(g).  Every depth shares one memo of
    failed (uncovered, depth) states: what depth masks cannot cover they
    cannot cover at any later depth either, so the memo drops no cover
    and each depth finds the first cover in catalog order.  Raises
    BudgetExceededError when the graph, or one depth's search past
    BOX_SEARCH_NODE_BUDGET nodes, outgrows the exact-oracle scale, never
    returning a guess.
    """
    if g.n > BOX_MAX_VERTICES:
        raise BudgetExceededError(f"exact boxicity capped at n <= {BOX_MAX_VERTICES}")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if is_complete(g):
        return BoxCertificate(0, (), ())
    if k == 0:
        return None
    catalog = _coverage_catalog(g)
    best_pop = max(popcount(m) for m, _ in catalog)
    nodes = 0
    failed: set[tuple[int, int]] = set()

    def dfs(uncovered: int, depth: int) -> list[int] | None:
        nonlocal nodes
        if uncovered == 0:
            return []
        if depth == 0 or popcount(uncovered) > depth * best_pop or (uncovered, depth) in failed:
            return None
        nodes += 1
        if nodes > BOX_SEARCH_NODE_BUDGET:
            raise BudgetExceededError("boxicity search node budget exhausted")
        for mask, rank in catalog:
            if mask & uncovered:
                found = dfs(uncovered & ~mask, depth - 1)
                if found is not None:
                    return [rank] + found
        failed.add((uncovered, depth))
        return None

    target = full_mask(g.n * (g.n - 1) // 2 - g.edge_count)
    for depth in range(1, k + 1):
        nodes = 0
        ranks = dfs(target, depth)
        if ranks is not None:
            orderings = tuple(_unrank(g.n, rank) for rank in ranks)
            return BoxCertificate(depth, orderings, tuple(canonical_rep(g, o) for o in orderings))
    return None


class ExactBoxicity(NamedTuple):
    value: int
    certificate: BoxCertificate


def boxicity_exact(g: Graph, max_k: int | None = None) -> ExactBoxicity:
    """Smallest k admitting a certificate: one boxicity_le search up to
    the cap, which returns the fewest orderings.

    Boxicity never exceeds floor(n/2), so the default cap is exact; a
    caller-supplied max_k below that turns into a budget error when the
    true value lies beyond it.  A negative max_k is a bad argument, not
    an exhausted search, and raises ValueError.
    """
    limit = g.n // 2
    if max_k is not None:
        if max_k < 0:
            raise ValueError(f"max_k must be nonnegative, got {max_k}")
        limit = min(limit, max_k)
    cert = boxicity_le(g, limit)
    if cert is None:
        raise BudgetExceededError(f"boxicity exceeds the search cap {limit}")
    return ExactBoxicity(cert.k, cert)
