"""Spectral lower bounds for regular graphs.

For a connected k-regular graph with second-largest adjacency eigenvalue
magnitude lam, neighborhood expansion is at least k^2/lam^2-fold until
sets get large, and chasing that growth through the strong-boundary
profile of the complement yields

    boxicity(g) >= (k^2/lam^2) / ln(1 + k^2/lam^2) * (n - k - 1) / (2n).

Eigenvalues come from the symmetric eigensolver with an explicitly
reported residual; downstream formulas convert them to exact rationals
so repeated runs emit identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, degree_summary, is_complete, is_connected
from .reports import BoundReport, bound_report, not_applicable

SPECTRAL = "spectral"

# The residual the tests hold every reported spectrum to (the product
# reports the residual but does not check it yet), and the magnitude
# below which an eigenvalue is treated as exactly zero (rejecting the
# bound rather than dividing by noise).
RESIDUAL_TOL = 1e-8
EIGENVALUE_ZERO_TOL = 1e-9


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues in descending order plus solver diagnostics.

    ``second_largest_abs`` and ``degree`` are filled by the adjacency
    wrapper for regular graphs and stay None for bare matrices.
    """

    eigenvalues: tuple[float, ...]
    residual: float
    second_largest_abs: float | None = None
    degree: int | None = None


def symmetric_eigenvalues(matrix: np.ndarray) -> SpectralSummary:
    """Full spectrum of a symmetric matrix, residual included."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-12, rtol=0.0):
        raise ValueError("matrix must be symmetric")
    values, vectors = np.linalg.eigh(a)
    residual = float(np.abs(a @ vectors - vectors * values).max())
    order = np.argsort(values)[::-1]
    return SpectralSummary(tuple(float(values[i]) for i in order), residual)


def adjacency_matrix(g: Graph) -> np.ndarray:
    """0/1 float adjacency matrix: row v has a 1 in column u iff bit u
    of g.rows[v] is set, unpacked from each row's little-endian bytes."""
    width = (g.n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in g.rows),
                           dtype=np.uint8).reshape(g.n, width)
    bits = np.unpackbits(packed, axis=1, count=g.n, bitorder="little")
    return bits.astype(float)


def adjacency_spectrum(g: Graph) -> SpectralSummary:
    """Adjacency eigenvalues; for regular graphs also the second-largest
    magnitude, the quantity spectral_bound consumes."""
    summary = symmetric_eigenvalues(adjacency_matrix(g))
    degrees = degree_summary(g)
    if not degrees.is_regular:
        return summary
    ev = summary.eigenvalues
    second = max(abs(ev[1]), abs(ev[-1])) if g.n > 1 else 0.0
    return SpectralSummary(ev, summary.residual, second, degrees.min_degree)


def _growth_factor(ratio: Fraction) -> Fraction:
    """ratio / ln(1 + ratio), as an exact rational of the float result."""
    return Fraction(float(ratio) / math.log1p(float(ratio)))


def spectral_bound(g: Graph) -> BoundReport:
    """The display formula above; connected regular non-complete only."""
    summary = degree_summary(g)
    if is_complete(g):
        return not_applicable(SPECTRAL, "complete_graph")
    if not summary.is_regular:
        return not_applicable(SPECTRAL, "not_regular")
    if not is_connected(g):
        return not_applicable(SPECTRAL, "disconnected")
    spectrum = adjacency_spectrum(g)
    lam = spectrum.second_largest_abs
    if lam is None or lam < EIGENVALUE_ZERO_TOL:
        return not_applicable(SPECTRAL, "second_eigenvalue_zero")
    k = summary.min_degree
    ratio = Fraction(k * k) / Fraction(lam) ** 2
    value = _growth_factor(ratio) * Fraction(g.n - k - 1, 2 * g.n)
    cert = {"degree": k, "lambda": lam, "residual": spectrum.residual}
    return bound_report(SPECTRAL, value, cert)


def strongly_regular_secondary(k: int, a: int, c: int) -> float:
    """Largest non-principal eigenvalue magnitude from SRG parameters.

    Non-principal eigenvalues solve x^2 + (c - a)x + (c - k) = 0.  The
    parameter sanity checks (0 <= a <= k-2, 1 <= c <= k) also force real
    roots, so degenerate inputs such as complete graphs are rejected
    instead of producing a complex answer.
    """
    if k < 1 or a < 0 or a > k - 2 or c < 1 or c > k:
        raise ValueError(f"not parameters of a strongly regular graph: {(k, a, c)}")
    half_b = Fraction(c - a, 2)
    disc = half_b * half_b - (c - k)
    if disc < 0:
        raise ValueError(f"complex secondary eigenvalues for {(k, a, c)}")
    root = math.sqrt(float(disc))
    return max(abs(-float(half_b) + root), abs(-float(half_b) - root))
