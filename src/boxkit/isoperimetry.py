"""Vertex-isoperimetric profiles.

For a vertex set X, the boundary Gamma(X) collects outside vertices with
at least one neighbor in X, and the strong boundary GammaS(X) collects
outside vertices adjacent to all of X.  Over all |X| = k the minimum
boundary size and the maximum strong-boundary size are the two profile
values computed here.  The two are tied through complementation:

    max_strong(k, complement(g)) = n - k - min_boundary(k, g)
    min_boundary(k, complement(g)) = n - k - max_strong(k, g)

so complement_profile derives the complement's profile, witnesses
included, from the graph's own.

Every table over the 2^n subsets shares one layout: subsets ordered by
size, and lexicographically (as sorted member tuples) within each size.
Layer k is one contiguous slice, and the first extremum of a slice is
its lexicographically smallest witness.  The layout follows the
recursion L(lo, k) = ({lo} + L(lo + 1, k - 1)) ++ L(lo + 1, k), so a
table with table[X] = table[X - lo] op row[lo] is filled in place one
vertex at a time, from the last vertex to the first, with no sort and
no gather.  _layers names each position's subset by its mask.
iso_profile builds the boundary and common-neighbourhood tables of one
graph in this layout; the supergraph DP lays out each half of the
vertex set the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, pairwise
from math import comb

import numpy as np

from .bitset import mask_of, popcount
from .errors import check_subset_budget, check_table_budget
from .graphs import Graph, strong_vertex_boundary, vertex_boundary


def _layer_starts(n: int) -> tuple[int, ...]:
    """Layer k of the size-ordered layout is [starts[k], starts[k+1])."""
    starts = [0]
    for k in range(n + 1):
        starts.append(starts[-1] + comb(n, k))
    return tuple(starts)


def _fill_layers(first: np.generic, rows, op) -> np.ndarray:
    """table[X] = first op rows[x] op ... over x in X, for every subset X
    of range(len(rows)), in the size-then-lex layout."""
    n = len(rows)
    table = np.empty(1 << n, dtype=first.dtype)
    table[0] = first
    for lo in range(n - 1, -1, -1):
        # The new layer k is (lo + old layer k-1) ++ (old layer k), so each
        # old layer j at [a, b) moves to [2a, a+b) and is followed by
        # itself with lo added.  Going from the last layer down, no write
        # lands on an old layer not yet moved.
        row = first.dtype.type(rows[lo])
        for a, b in reversed(tuple(pairwise(_layer_starts(n - lo - 1)))):
            op(table[a:b], row, out=table[a + b:2 * b])
            table[2 * a:a + b] = table[a:b]  # numpy copies overlaps safely
    table.flags.writeable = False
    return table


@lru_cache(maxsize=1)
def _layers(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The mask of every subset of range(n), by size and then
    lexicographically, with the layer starts.  int32 holds the masks up
    to PROFILE_MAX_VERTICES at half the memory of intp."""
    masks = _fill_layers(np.int32(0), tuple(1 << v for v in range(n)), np.bitwise_or)
    return masks, _layer_starts(n)


def _subset_table(rows: tuple[int, ...], n: int, use_and: bool) -> np.ndarray:
    """OR (or AND) of rows[x] over x in X, for every subset X, in the
    _layers order.  uint32 holds the rows up to PROFILE_MAX_VERTICES."""
    if use_and:
        return _fill_layers(np.uint32((1 << n) - 1), rows, np.bitwise_and)
    return _fill_layers(np.uint32(0), rows, np.bitwise_or)


@dataclass(frozen=True)
class IsoProfile:
    """Both isoperimetric profiles of one graph, k = 1 .. n-1.

    Sequences are indexed by k - 1.  Witnesses are the lexicographically
    smallest extremal sets, as bitmasks, so repeated runs are identical.
    """

    n: int
    min_boundary: tuple[int, ...]
    max_strong_boundary: tuple[int, ...]
    min_boundary_witness: tuple[int, ...]
    max_strong_boundary_witness: tuple[int, ...]


@lru_cache(maxsize=1)
def iso_profile(g: Graph) -> IsoProfile:
    """Both profiles from two subset tables, one extremum per layer.

    Without self-loops, |Gamma(X)| = |N[x1] | ... | N[xk]| - |X| over
    the closed neighbourhoods, and |X| = k is constant on layer k, so
    the union table's minima are the boundary minima plus k.  The common
    neighbours of X all lie outside X.  Cached for the last graph only,
    so that the bounds evaluated on one graph (strong_boundary, and
    family's generic value) share one sweep.
    """
    n = g.n
    check_table_budget(n)
    masks, starts = _layers(n)
    closed = tuple(row | 1 << v for v, row in enumerate(g.rows))
    union = np.bitwise_count(_subset_table(closed, n, use_and=False))
    strong = np.bitwise_count(_subset_table(g.rows, n, use_and=True))
    bv, cv, bw, cw = [], [], [], []
    for k in range(1, n):
        a, b = starts[k], starts[k + 1]
        i = a + int(union[a:b].argmin())
        j = a + int(strong[a:b].argmax())
        bv.append(int(union[i]) - k)
        cv.append(int(strong[j]))
        bw.append(int(masks[i]))
        cw.append(int(masks[j]))
    return IsoProfile(n, tuple(bv), tuple(cv), tuple(bw), tuple(cw))


def complement_profile(profile: IsoProfile) -> IsoProfile:
    """The profile of the complement, from the graph's own profile.

    Outside X, a vertex lies in the complement's strong boundary exactly
    when it lies outside g's boundary, and in the complement's boundary
    exactly when it lies outside g's strong boundary.  So each extremum
    of one graph is the other's with the same lexicographically smallest
    witness.
    """
    n = profile.n
    sizes = range(1, n)
    return IsoProfile(
        n,
        tuple(n - k - s for k, s in zip(sizes, profile.max_strong_boundary)),
        tuple(n - k - b for k, b in zip(sizes, profile.min_boundary)),
        profile.max_strong_boundary_witness,
        profile.min_boundary_witness,
    )


def min_boundary(g: Graph, k: int) -> tuple[int, int]:
    """Minimum |Gamma(X)| over |X| = k, with its first witness.

    Scanning combinations in lexicographic order and keeping strict
    improvements makes the witness the lexicographically smallest
    minimizer.
    """
    if not 1 <= k <= g.n:
        raise ValueError(f"subset size {k} outside 1..{g.n}")
    check_subset_budget(g.n, k)
    best, best_mask = g.n + 1, 0
    for combo in combinations(range(g.n), k):
        x = mask_of(combo)
        value = popcount(vertex_boundary(g, x))
        if value < best:
            best, best_mask = value, x
    return best, best_mask


def max_strong_boundary(g: Graph, k: int) -> tuple[int, int]:
    """Maximum |GammaS(X)| over |X| = k, with its first witness."""
    if not 1 <= k <= g.n:
        raise ValueError(f"subset size {k} outside 1..{g.n}")
    check_subset_budget(g.n, k)
    best, best_mask = -1, 0
    for combo in combinations(range(g.n), k):
        x = mask_of(combo)
        value = popcount(strong_vertex_boundary(g, x))
        if value > best:
            best, best_mask = value, x
    return best, best_mask
