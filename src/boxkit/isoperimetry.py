"""Vertex-isoperimetric profiles.

For a vertex set X, the boundary Gamma(X) collects outside vertices with
at least one neighbor in X, and the strong boundary GammaS(X) collects
outside vertices adjacent to all of X.  Over all |X| = k the minimum
boundary size and the maximum strong-boundary size are the two profile
values computed here.  The two are tied through complementation:

    max_strong(k, complement(g)) = n - k - min_boundary(k, g)

which the test suite checks by computing both sides independently.

The full profile walks all 2^n subsets at once.  Subset tables obey
table[X] = table[X - lowbit] op row[lowbit], so filling them in order of
decreasing lowest set bit turns the walk into n strided numpy passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .bitset import mask_of, popcount
from .errors import BudgetExceededError, check_subset_budget
from .graphs import Graph, strong_vertex_boundary, vertex_boundary

PROFILE_MAX_VERTICES = 24

_REV_MASKS = (
    (np.uint64(1), np.uint64(0x5555555555555555)),
    (np.uint64(2), np.uint64(0x3333333333333333)),
    (np.uint64(4), np.uint64(0x0F0F0F0F0F0F0F0F)),
)


def _bit_reverse64(a: np.ndarray) -> np.ndarray:
    for shift, mask in _REV_MASKS:
        a = ((a >> shift) & mask) | ((a & mask) << shift)
    return a.byteswap()


def _lex_smallest(masks: np.ndarray, n: int) -> int:
    # Among equal-size sets, lexicographic order on sorted member tuples
    # is descending numeric order of the bit-reversed masks.
    rev = _bit_reverse64(masks.copy()) >> np.uint64(64 - n)
    return int(masks[int(np.argmax(rev))])


def _subset_table(rows: tuple[int, ...], n: int, use_and: bool) -> np.ndarray:
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
    """Sweep all 2^n subsets once and aggregate both profiles by size.

    Cached for the last graph only, so that the bounds evaluated on one
    graph (strong_boundary, and family's generic value) share one sweep.
    """
    n = g.n
    if n > PROFILE_MAX_VERTICES:
        raise BudgetExceededError(
            f"profile sweep needs 2^{n} subsets; capped at n <= {PROFILE_MAX_VERTICES}"
        )
    size = 1 << n
    idx = np.arange(size, dtype=np.uint64)
    pop = np.bitwise_count(idx)

    union = _subset_table(g.rows, n, use_and=False)
    boundary_sizes = np.bitwise_count(union & ~idx)
    del union
    inter = _subset_table(g.rows, n, use_and=True)
    strong_sizes = np.bitwise_count(inter & ~idx)
    del inter

    bv, cv, bw, cw = [], [], [], []
    for k in range(1, n):
        sel = pop == k
        masks_k = idx[sel]
        b_vals = boundary_sizes[sel]
        c_vals = strong_sizes[sel]
        b_best = int(b_vals.min())
        c_best = int(c_vals.max())
        bv.append(b_best)
        cv.append(c_best)
        bw.append(_lex_smallest(masks_k[b_vals == b_best], n))
        cw.append(_lex_smallest(masks_k[c_vals == c_best], n))
    return IsoProfile(n, tuple(bv), tuple(cv), tuple(bw), tuple(cw))


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
