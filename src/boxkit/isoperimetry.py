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
_layers builds it with one lexsort of the masks, and _half_layout keeps
one layout per half size, shared by every split-half scan and the
supergraph DP.

A set X is the pair (X & L, X & H), so a union over X is the OR of two
half-table entries.  Both the profile scan (_least_unions) and the
supergraph DP lay the union sizes of one high layer a out as (low
subset x high subset), so that the sets of size k = a + b with b low
members are one contiguous run, and _fold_blocks folds those runs into
the least union of each size with its smallest witness.  The DP folds
every row layer of its table that way; _least_unions scans the blocks
of the sizes it is asked for, _CHUNK_ENTRIES at a time.
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


def _layers(n: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The mask of every subset of range(n), by size and then
    lexicographically, with the layer starts (read-only int32 masks).

    Lexicographic order of sorted member tuples is descending order of
    the bit-reversed masks: the smallest vertex in exactly one of two
    sets is the highest bit where their reversals differ."""
    masks = np.arange(1 << n, dtype=np.int32)
    reversed_masks = np.zeros_like(masks)
    for v in range(n):
        reversed_masks |= (masks >> v & 1) << n - 1 - v
    masks = masks[np.lexsort((-reversed_masks, np.bitwise_count(masks)))]
    masks.flags.writeable = False
    return masks, tuple(accumulate((comb(n, k) for k in range(n + 1)), initial=0))


class _HalfLayout(NamedTuple):
    """The subsets of one half of the vertices in the _layers order.

    masks[i] is the i-th subset, as a mask over the half's own vertices,
    and preds[k][j, i] the index of X minus its j-th smallest member, for
    the i-th subset X of layer k.  mask_list holds the masks as Python
    ints, and position_list[mask] the index of each mask, for the scalar
    reads of witnesses and of the supergraph DP's walk back.
    """

    starts: tuple[int, ...]
    masks: np.ndarray
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
    return _HalfLayout(starts, masks, tuple(preds), tuple(masks.tolist()),
                       tuple(position.tolist()))


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
# scans take a chunk of low-half subsets against one high layer at a
# time, and _least_union its last stage a chunk of sets at a time.
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


def _fold_blocks(best: dict[int, tuple[int, int]], unions: np.ndarray, a: int, c0: int,
                 low: _HalfLayout, high: _HalfLayout) -> None:
    """Fold the union sizes of one row layer, or one chunk of it, into
    best[k]: the least size over the sets X of size k seen so far, with
    its lexicographically smallest witness.

    unions is C-contiguous, one row per low subset and one column per
    subset of high layer a: unions[i, j] belongs to XL + XH, with XL the
    subset c0 + i of the low layout and XH the j-th subset of the layer.
    So the rows of each low layer b are one contiguous run, the part of
    the (a, b) block of the sets of size a + b that unions holds.  Every
    low vertex precedes every high one, so within a block lexicographic
    order is the order of XL, then of XH, which is the run's order: the
    smallest witness in a run is its first minimum.  Each run is reduced
    to its minimum with one reduceat, and its witness is sought only
    when the minimum, reached by the run's first set, would improve on
    the best so far; witnesses from different runs are compared only on
    ties.
    """
    if not len(unions):
        return
    h = len(low.starts) - 2
    s0, width = high.starts[a], unions.shape[1]
    c1 = c0 + len(unions)
    b0 = bisect_right(low.starts, c0) - 1
    cuts = [c0, *low.starts[b0 + 1:bisect_left(low.starts, c1)], c1]
    flat = unions.reshape(-1)
    minima = np.minimum.reduceat(flat, [(c - c0) * width for c in cuts[:-1]]).tolist()
    for b, (value, d0, d1) in enumerate(zip(minima, cuts, cuts[1:]), b0):
        held = best.get(a + b)
        if _improves(held, value, low.mask_list[d0] | high.mask_list[s0] << h):
            i, j = divmod(int(flat[(d0 - c0) * width:(d1 - c0) * width].argmin()), width)
            mask = low.mask_list[d0 + i] | high.mask_list[s0 + j] << h
            if _improves(held, value, mask):
                best[a + b] = (value, mask)


def _least_unions(rows, sizes: range, halves) -> list[tuple[int, int]]:
    """For each k in sizes, the least |rows[x1] | ... | rows[xk]| over
    the sets X of size k, with its lexicographically smallest witness.

    Each union is the OR of one low-half and one high-half table entry
    (halves, as _half_tables(rows) builds them).  Against high layer
    a only the low layers b = k - a of the wanted sizes are scanned, as
    one span of low subsets.  The span is taken a chunk of low subsets
    at a time, each against the whole high layer, as a (low subsets x
    high subsets) array of popcounts of at most _CHUNK_ENTRIES entries,
    which _fold_blocks folds into the least unions.
    """
    n = len(rows)
    if not sizes:
        return []
    h = _low_size(n)
    low, high = _split_layouts(n)
    low_table, high_table = halves
    # one chunk's buffers, as the whole-profile scan fills them, whatever
    # the sizes: their pages are only touched as far as a chunk needs.  A
    # chunk holds at least one low subset against a whole high layer.
    size = min(len(low_table) * len(high_table), max(_CHUNK_ENTRIES, len(high_table)))
    words = np.empty(size, dtype=np.uint32)
    counts = np.empty(size, dtype=np.uint8)
    best: dict[int, tuple[int, int]] = {}
    for a, (r0, r1) in enumerate(pairwise(high.starts)):
        b0, b1 = max(0, sizes[0] - a), min(h, sizes[-1] - a)
        if b0 > b1:
            continue
        width, end = r1 - r0, low.starts[b1 + 1]
        step = max(1, _CHUNK_ENTRIES // width)
        for c0 in range(low.starts[b0], end, step):
            c1 = min(end, c0 + step)
            block = words[:(c1 - c0) * width].reshape(c1 - c0, width)
            np.bitwise_or(low_table[c0:c1, None], high_table[r0:r1], out=block)
            block = np.bitwise_count(block, out=counts[:block.size].reshape(block.shape))
            _fold_blocks(best, block, a, c0, low, high)
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
        and at most PROFILE_MAX_VERTICES of them; rows wider than the
        half tables' 32 bits raise ValueError."""
        n = len(self.rows)
        check_vertex_cap(n, PROFILE_MAX_VERTICES)
        if max(self.rows, default=0) >> 32:
            raise ValueError("LeastUnions.every takes rows of at most 32 bits")
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

