"""Least unions of rows, which both vertex-isoperimetric profiles read.

For a vertex set X, the boundary Gamma(X) collects outside vertices with
at least one neighbor in X, and the strong boundary GammaS(X) collects
outside vertices adjacent to all of X.  Over |X| = k the least
|Gamma(X)| is the least union of k closed rows, minus k, and the largest
|GammaS(X)| is n minus the least union of k of the complement's closed
rows, with the same witness.  So a bound on the complement's strong
boundaries reads g's least closed unions, with the same
lexicographically smallest witnesses.

No table here spans more subsets than one cached half layout holds,
2^(PROFILE_MAX_VERTICES // 2).  The vertices are split into the low
half L = {0 .. _low_size(n) - 1} and the high half H: L takes all n
vertices while n <= PROFILE_MAX_VERTICES // 2, leaving H empty, and
the first n // 2 above that.  The subsets of each half share one
layout: ordered by size, and lexicographically (as sorted member
tuples) within each size, so that layer k is one contiguous slice.
The layout follows the recursion
L(lo, k) = ({lo} + L(lo + 1, k - 1)) ++ L(lo + 1, k), which _fill_layers
follows in place one vertex at a time, with no sort and no gather;
_layers names each position's subset by its mask, and _half_layout
keeps one layout per half size, shared by every split-half scan and the
supergraph DP.

A set X is the pair (X & L, X & H), so a union over X is the OR of two
half-table entries, and _least_unions scans the (high layer a x low
layer k - a) blocks of the sizes k it is asked for, _CHUNK_ENTRIES at a
time; the supergraph DP keeps its table in the same (high half x low
half) shape and folds the least closed unions of every size as it goes.
Which scan serves which sizes:

  every k = 1 .. n-1 (LeastUnions.every: the strong boundary bound):
      _least_unions over all blocks, once per row list, unless every
      size is already found (g's closed rows, when the DP has folded
      them).
  one k (the family bound's square-free test, the expansion bound's
      beta_t and m_j): LeastUnions.least, which runs _least_unions on
      the blocks of that k alone for up to PROFILE_MAX_VERTICES rows of
      up to 32 bits, building the half tables once per row list, and
      _least_union's prefix scan in colex order for longer or wider
      rows.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache
from itertools import accumulate, pairwise
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import PROFILE_MAX_VERTICES, check_subset_budget, check_vertex_cap


def _layer_starts(n: int) -> tuple[int, ...]:
    """Layer k of the size-ordered layout is [starts[k], starts[k+1])."""
    starts = [0]
    for k in range(n + 1):
        starts.append(starts[-1] + comb(n, k))
    return tuple(starts)


def _fill_layers(first: np.generic, rows) -> np.ndarray:
    """table[X] = first | rows[x] | ... over x in X, for every subset X
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
            np.bitwise_or(table[a:b], row, out=table[a + b:2 * b])
            table[2 * a:a + b] = table[a:b]  # numpy copies overlaps safely
    table.flags.writeable = False
    return table


def _layers(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The mask of every subset of range(n), by size and then
    lexicographically, with the layer starts (int32 masks)."""
    masks = _fill_layers(np.int32(0), tuple(1 << v for v in range(n)))
    return masks, _layer_starts(n)


class _HalfLayout(NamedTuple):
    """The subsets of one half of the vertices in the _layers order.

    masks[i] is the i-th subset, as a mask over the half's own vertices,
    position[mask] its index in the layout, and preds[k][j, i] the index
    of X minus its j-th smallest member, for the i-th subset X of layer k.
    mask_list and position_list hold the same as Python ints, for the
    scalar reads of witnesses and of the supergraph DP's walk back.
    """

    starts: tuple[int, ...]
    masks: np.ndarray
    position: np.ndarray
    preds: tuple[np.ndarray, ...]
    mask_list: tuple[int, ...]
    position_list: tuple[int, ...]


@lru_cache(maxsize=PROFILE_MAX_VERTICES // 2 + 1)
def _half_layout(m: int) -> _HalfLayout:
    """The layout of the subsets of m vertices.  Kept per half size:
    every split-half scan runs on at most PROFILE_MAX_VERTICES rows, so
    its halves have 0 .. PROFILE_MAX_VERTICES // 2 vertices."""
    masks, starts = _layers(m)
    position = np.empty(1 << m, dtype=np.intp)
    position[masks] = np.arange(1 << m)
    preds = []
    for k, (a, b) in enumerate(pairwise(starts)):
        layer = masks[a:b]
        _, member = np.nonzero(layer[:, None] >> np.arange(m) & 1)
        preds.append(position[layer ^ 1 << member.reshape(b - a, k).T])
    return _HalfLayout(starts, masks, position, tuple(preds),
                       tuple(masks.tolist()), tuple(position.tolist()))


def _low_size(n: int) -> int:
    """How many of n vertices form the low half: all of them while they
    fit in one cached half layout, so that every scan and the DP run as
    one row layer, and the first n // 2 above that."""
    return n if n <= PROFILE_MAX_VERTICES // 2 else n // 2


def _split_layouts(n: int) -> tuple[_HalfLayout, _HalfLayout]:
    """The layouts of the low vertices 0 .. _low_size(n) - 1 and of the
    rest."""
    h = _low_size(n)
    return _half_layout(h), _half_layout(n - h)


def _half_tables(rows) -> tuple[np.ndarray, np.ndarray]:
    """The OR of rows[x] over x in X, for every subset X of the low half
    and, separately, of the high half, each in its _layers order.  Each
    half's table is filled in plain mask order, one doubling per vertex,
    and then gathered into the layout.  uint32 holds rows of up to
    PROFILE_MAX_VERTICES bits."""
    tables = []
    h = _low_size(len(rows))
    for half, layout in zip((rows[:h], rows[h:]), _split_layouts(len(rows))):
        table = np.zeros(1 << len(half), dtype=np.uint32)
        for v, row in enumerate(half):
            np.bitwise_or(table[:1 << v], np.uint32(row), out=table[1 << v:2 << v])
        tables.append(table[layout.masks])
    return tables[0], tables[1]


# Entries of the largest temporary a scan allocates: the split-half
# scans take a block of high-half rows at a time, and _least_union its
# last stage a chunk of sets at a time.
_CHUNK_ENTRIES = 1 << 18


def _precedes(x: int, y: int) -> bool:
    """Whether the set x comes before the set y of the same size, in
    lexicographic order of sorted member tuples: the smallest vertex in
    exactly one of them lies in x."""
    diff = x ^ y
    return bool(x & diff & -diff)


def _improves(held: tuple[int, int] | None, value: int, mask: int) -> bool:
    """Whether the union size value, reached by the set mask, comes before
    held: a smaller size, or the same size with an earlier set."""
    return held is None or value < held[0] or value == held[0] and _precedes(mask, held[1])


def _least_unions(rows, sizes: range, halves) -> list[tuple[int, int]]:
    """For each k in sizes, the least |rows[x1] | ... | rows[xk]| over
    the sets X of size k, with its lexicographically smallest witness.

    Each union is the OR of one low-half and one high-half table entry
    (halves, as _half_tables(rows) builds them).  Against high layer
    a only the low layers b = k - a of the wanted sizes are scanned, as
    one span of columns.  The unions are computed a chunk of high rows
    at a time, as a (high rows x low subsets) array of popcounts of at
    most _CHUNK_ENTRIES entries, and reduced over the rows to one
    minimum per low subset.

    X = XL + XH with |XH| = a and |XL| = b, and every low vertex
    precedes every high one, so within one (a, b) block lexicographic
    order is the order of XL, then of XH.  The block's smallest witness
    is thus the first low subset whose column reaches the block's
    minimum, with the first row of that column that does.  A witness is
    sought only in a block that improves on the best so far with its
    first set; witnesses from different blocks or chunks are compared
    only on ties.
    """
    n = len(rows)
    if not sizes:
        return []
    h = _low_size(n)
    low, high = _split_layouts(n)
    low_masks, high_masks = low.mask_list, high.mask_list
    low_table, high_table = halves
    # one chunk's buffers, as the whole-profile scan fills them, whatever
    # the sizes: their pages are only touched as far as a block needs
    size = min(len(low_table) * len(high_table), max(_CHUNK_ENTRIES, len(low_table)))
    words = np.empty(size, dtype=np.uint32)
    counts = np.empty(size, dtype=np.uint8)
    best: dict[int, tuple[int, int]] = {}
    for a, (r0, r1) in enumerate(pairwise(high.starts)):
        b0, b1 = max(0, sizes[0] - a), min(h, sizes[-1] - a)
        if b0 > b1:
            continue
        c0, c1 = low.starts[b0], low.starts[b1 + 1]
        cols = c1 - c0
        step = max(1, _CHUNK_ENTRIES // cols)
        offsets = [d0 - c0 for d0 in low.starts[b0:b1 + 1]]
        for s0 in range(r0, r1, step):
            width = min(step, r1 - s0)
            block = words[:cols * width].reshape(width, cols)
            np.bitwise_or(high_table[s0:s0 + width, None], low_table[c0:c1], out=block)
            block = np.bitwise_count(block, out=counts[:cols * width].reshape(width, cols))
            columns = block.min(axis=0)  # per low subset, over the rows
            minima = np.minimum.reduceat(columns, offsets).tolist()
            for b, value in enumerate(minima, b0):
                held = best.get(a + b)
                d0 = low.starts[b]
                if _improves(held, value, low_masks[d0] | high_masks[s0] << h):
                    col = d0 + int(columns[d0 - c0:low.starts[b + 1] - c0].argmin())
                    row = s0 + int(block[:, col - c0].argmin())
                    mask = low_masks[col] | high_masks[row] << h
                    if _improves(held, value, mask):
                        best[a + b] = (value, mask)
    return [best[k] for k in sizes]


class LeastUnions:
    """The least unions of one list of rows, one subset size at a time.

    least(k) is the least |rows[x1] | ... | rows[xk]| over the k-subsets
    X of range(len(rows)), with its lexicographically smallest witness.
    Each size is scanned once and kept in found, where a caller that
    has the values already (the supergraph DP) may put them.  Up to
    PROFILE_MAX_VERTICES rows of up to 32 bits, a size is scanned by
    _least_unions over split halves, whose half tables are built on the
    first such scan and kept; longer or wider row lists take
    _least_union's prefix scan.
    """

    def __init__(self, rows) -> None:
        self.rows = tuple(rows)
        self.found: dict[int, tuple[int, int]] = {}

    @cached_property
    def _halves(self) -> tuple[np.ndarray, np.ndarray]:
        return _half_tables(self.rows)

    def least(self, k: int) -> tuple[int, int]:
        rows = self.rows
        n = len(rows)
        if not 1 <= k <= n:
            raise ValueError(f"subset size {k} outside 1..{n}")
        check_subset_budget(n, k)
        if k not in self.found:
            if n <= PROFILE_MAX_VERTICES and max(rows) >> 32 == 0:
                self.found[k] = _least_unions(rows, range(k, k + 1), self._halves)[0]
            else:
                self.found[k] = _least_union(rows, k)
        return self.found[k]

    def every(self) -> tuple[tuple[int, int], ...]:
        """least(k) for k = 1 .. len(rows) - 1: the sizes found already
        when all of them are, one _least_unions scan over all sizes
        otherwise.  The rows are a graph's, of at most len(rows) bits,
        and at most PROFILE_MAX_VERTICES of them."""
        n = len(self.rows)
        check_vertex_cap(n, PROFILE_MAX_VERTICES)
        sizes = range(1, n)
        if any(k not in self.found for k in sizes):
            self.found.update(zip(sizes, _least_unions(self.rows, sizes, self._halves)))
        return tuple(self.found[k] for k in sizes)


def _colex_stage(prev: np.ndarray, rows: np.ndarray, counts: list[int],
                 e0: int, e1: int) -> np.ndarray:
    """Entries e0 .. e1 - 1 of one stage of _least_union, in colex order:
    counts[i] sets end in rows[i], each prev's entry for the set without
    it (one of prev's first counts[i]) ORed with rows[i]."""
    ends = list(accumulate(counts))
    i0, i1 = bisect_right(ends, e0), bisect_left(ends, e1) + 1
    parts = [prev[max(e0 - end + count, 0):min(e1 - end + count, count)]
             for end, count in zip(ends[i0:i1], counts[i0:i1])]
    out = np.concatenate(parts)
    out |= np.repeat(rows[i0:i1], [len(part) for part in parts], axis=0)
    return out


def _least_union(rows, k: int) -> tuple[int, int]:
    """The least |rows[x1] | ... | rows[xk]| over the k-subsets X of
    range(len(rows)), with its lexicographically smallest witness X.

    The rows, split into 64-bit words, are taken in reverse order, and
    the unions are built one member at a time in colex order, keeping
    only the sets that can still grow to size k: at stage s, counts[i]
    sets have largest member s - 1 + i, for i = 0 .. n - k.  The last
    stage is reduced _CHUNK_ENTRIES words at a time.  Colex order over
    the reversed rows is reverse lexicographic order, so the last
    minimum is the witness, unranked from its colex index.
    """
    n = len(rows)
    if not 1 <= k <= n:
        raise ValueError(f"subset size {k} outside 1..{n}")
    check_subset_budget(n, k)
    words = max(1, (max(rows).bit_length() + 63) // 64)
    table = np.frombuffer(b"".join(row.to_bytes(8 * words, "little") for row in reversed(rows)),
                          dtype="<u8").reshape(n, words)
    reach = np.zeros((1, words), dtype=np.uint64)
    counts = [1] * (n - k + 1)
    for size in range(1, k):
        reach = _colex_stage(reach, table[size - 1:], counts, 0, sum(counts))
        counts = list(accumulate(counts))
    best, last, total = 64 * words + 1, 0, sum(counts)
    step = max(1, _CHUNK_ENTRIES // words)
    for e0 in range(0, total, step):
        stage = _colex_stage(reach, table[k - 1:], counts, e0, min(total, e0 + step))
        union = np.bitwise_count(stage).sum(axis=1)
        if (value := int(union.min())) <= best:
            best, last = value, e0 + len(union) - 1 - int(union[::-1].argmin())
    witness, x = 0, n
    for size in range(k, 0, -1):
        x -= 1
        while comb(x, size) > last:
            x -= 1
        last -= comb(x, size)
        witness |= 1 << n - 1 - x
    return best, witness

