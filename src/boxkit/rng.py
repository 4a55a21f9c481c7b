"""Deterministic pseudo-random streams for graph sampling.

A 64-bit master seed expands through SplitMix64 into xoshiro256** state,
so identical seeds give identical graphs on every platform (all integer
arithmetic, no floats).  Per-sample streams are derived from the master
seed and a sample index rather than drawn sequentially, which keeps each
sample reproducible in isolation.

The bulk forms (``words``, ``below_many``, ``bernoulli_many``) return
exactly what the matching run of per-word calls would and leave the
generator in the same state.  They run the state update over four local
ints and apply the ``**`` scrambler once per batch in numpy ``uint64``,
where arithmetic wraps mod 2^64.  A batch holds at most ``BATCH_WORDS``
words, so a large draw (gnp at n = 2000 takes two million words) never
holds more than that many raw words as Python ints.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
BATCH_WORDS = 1 << 16


def _splitmix64_next(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return state, z


def mix64(x: int) -> int:
    """One SplitMix64 scramble of a 64-bit value."""
    _, z = _splitmix64_next(x & _MASK64)
    return z


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for the index-th sample of a run keyed by master_seed."""
    return mix64((master_seed & _MASK64) ^ mix64(index + 1))


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with SplitMix64 state expansion."""

    __slots__ = ("_s",)

    def __init__(self, seed: int) -> None:
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, z = _splitmix64_next(state)
            s.append(z)
        self._s = s

    def next_u64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def words(self, count: int) -> np.ndarray:
        """The next count outputs of next_u64, as a uint64 array.

        Callers keep count at or below BATCH_WORDS.
        """
        mask = _MASK64
        s0, s1, s2, s3 = self._s
        raw = [0] * count
        for i in range(count):
            raw[i] = s1
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
        self._s = [s0, s1, s2, s3]
        w = np.array(raw, dtype=np.uint64)
        w *= 5
        w = (w << 7) | (w >> 57)
        w *= 9
        return w

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        return self.below_from([], bound)

    def below_from(self, spare: list, bound: int) -> int:
        """below(bound), taking words from the end of spare, a list of
        already drawn words in reverse order, before drawing new ones."""
        if not 1 <= bound <= _MASK64 + 1:
            raise ValueError(f"bound must be in 1..2**64, got {bound}")
        limit = _MASK64 + 1 - (_MASK64 + 1) % bound
        while True:
            r = spare.pop() if spare else self.next_u64()
            if r < limit:
                return r % bound

    def below_many(self, bounds) -> list[int]:
        """[self.below(b) for b in bounds], drawn a batch at a time.

        bounds is a sequence of ints in 1..2^64, all checked before any
        draw.  Each batch draws one word per bound; on the first rejected
        word the rest of the batch is finished one bound at a time,
        spending the batch's remaining words before any new draw.
        """
        try:
            b = np.array(bounds, dtype=np.uint64)
        except OverflowError:  # a bound below 0 or past 2^64 - 1
            if min(bounds) < 1 or max(bounds) > _MASK64 + 1:
                raise ValueError("every bound must be in 1..2**64") from None
            return [self.below(bound) for bound in bounds]
        if not b.all():
            raise ValueError("every bound must be in 1..2**64")
        out: list[int] = []
        for start in range(0, len(b), BATCH_WORDS):
            out += self._below_batch(b[start:start + BATCH_WORDS])
        return out

    def _below_batch(self, b: np.ndarray) -> list[int]:
        w = self.words(len(b))
        # w < 2^64 - (2^64 mod b), with 2^64 mod b = (0 - b) mod b in uint64
        accepted = w <= ~((0 - b) % b)
        if accepted.all():
            return (w % b).tolist()
        first = int(accepted.argmin())
        spare = w[first:].tolist()[::-1]
        return (w[:first] % b[:first]).tolist() + [
            self.below_from(spare, bound) for bound in b[first:].tolist()]

    def bernoulli(self, numerator: int, denominator: int) -> bool:
        """True with probability numerator/denominator, exactly.

        Compares a 64-bit draw against the rational threshold in integer
        arithmetic, so no rounding enters the stream.
        """
        return self.next_u64() * denominator < numerator << 64

    def bernoulli_many(self, count: int, numerator: int, denominator: int) -> list[bool]:
        """[self.bernoulli(numerator, denominator) for _ in range(count)].

        A word w is a hit iff w * denominator < numerator * 2^64, that is
        iff w < ceil(numerator * 2^64 / denominator).
        """
        threshold = -(-(numerator << 64) // denominator)
        out: list[bool] = []
        for start in range(0, count, BATCH_WORDS):
            w = self.words(min(BATCH_WORDS, count - start))
            # a threshold past 2^64 - 1 makes every word a hit
            out += [True] * len(w) if threshold > _MASK64 else (w < threshold).tolist()
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates driven by this stream."""
        n = len(items)
        for i, j in zip(range(n - 1, 0, -1), self.below_many(range(n, 1, -1))):
            items[i], items[j] = items[j], items[i]
