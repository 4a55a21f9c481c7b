"""Eigenvalue machinery and spectral lower bounds."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from boxkit.bitset import popcount
from boxkit.graphs import (
    bipartite_from_edges,
    complement,
    complete_graph,
    cycle,
    path,
)
from boxkit.families import RandomModelSpec, complete_multipartite, petersen, sample
from boxkit.spectral import (
    RESIDUAL_TOL,
    adjacency_matrix,
    adjacency_spectrum,
    spectral_bound,
    strongly_regular_secondary,
    symmetric_eigenvalues,
)


def _hexagon_bipartite():
    # a 6-cycle split across the bipartition: a_i adjacent to b_i, b_{i+1}
    return bipartite_from_edges(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])


def _gram_spectrum(gb):
    """Eigenvalues of M M^T for the biadjacency block M of gb."""
    m = adjacency_matrix(gb.to_graph())[:gb.na, gb.na:]
    return symmetric_eigenvalues(m @ m.T)


def _tanner(k, lam_sq, x_size, side):
    """Tanner's guaranteed neighbourhood size of any x_size vertices of a
    k-regular graph on `side` vertices whose second adjacency eigenvalue
    magnitude is sqrt(lam_sq): k^2 t / (lam^2 + (k^2 - lam^2) t / side).
    For subsets of side A of a regular bipartite graph, lam_sq is the
    second eigenvalue of the biadjacency Gram matrix and side is |A|."""
    lam_sq = Fraction(lam_sq)
    return Fraction(k * k * x_size) / (lam_sq + (k * k - lam_sq) * Fraction(x_size, side))


def _regular_tanner(g, x_size):
    spectrum = adjacency_spectrum(g)
    return _tanner(spectrum.degree, Fraction(spectrum.second_largest_abs) ** 2, x_size, g.n)


def _hexagon_tanner(x_size):
    return _tanner(2, _gram_spectrum(_hexagon_bipartite()).eigenvalues[1], x_size, 3)


def _union_neighborhood(rows, subset):
    acc = 0
    for v in subset:
        acc |= rows[v]
    return acc


def _sorted_close(values, expected, tol=1e-8):
    got = sorted(values)
    want = sorted(expected)
    return len(got) == len(want) and all(abs(a - b) <= tol for a, b in zip(got, want))


def test_symmetric_eigenvalues_on_complete_graph():
    summary = symmetric_eigenvalues(adjacency_matrix(complete_graph(4)))
    assert _sorted_close(summary.eigenvalues, (3, -1, -1, -1))
    assert summary.eigenvalues[0] == max(summary.eigenvalues)
    assert summary.residual <= RESIDUAL_TOL


def test_symmetric_eigenvalues_zero_matrix():
    summary = symmetric_eigenvalues(np.zeros((3, 3)))
    assert summary.eigenvalues == (0.0, 0.0, 0.0)
    assert summary.residual == 0.0


def test_symmetric_eigenvalues_input_validation():
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_adjacency_spectrum_petersen():
    summary = adjacency_spectrum(petersen())
    expected = [3.0] + [1.0] * 5 + [-2.0] * 4
    assert _sorted_close(summary.eigenvalues, expected)
    assert summary.residual <= RESIDUAL_TOL
    assert abs(summary.second_largest_abs - 2.0) <= 1e-8
    assert summary.degree == 3


def test_adjacency_spectrum_irregular_graph_has_no_secondary():
    summary = adjacency_spectrum(path(4))
    assert summary.second_largest_abs is None
    assert summary.degree is None


@pytest.mark.parametrize("g", [petersen(), complete_graph(4),
                               complete_multipartite(2, 3)])
def test_spectrum_invariants(g):
    summary = adjacency_spectrum(g)
    assert summary.residual <= RESIDUAL_TOL
    # trace of the adjacency matrix is zero
    assert abs(sum(summary.eigenvalues)) <= 1e-8
    # Frobenius identity: sum of squares counts directed edges
    assert abs(sum(ev * ev for ev in summary.eigenvalues) - 2 * g.edge_count) <= 1e-6


def test_strongly_regular_secondary_examples():
    assert abs(strongly_regular_secondary(3, 0, 1) - 2.0) <= 1e-12
    # complete multipartite with p parts of size l has parameters
    # ((p-1)l, (p-2)l, (p-1)l) and secondary eigenvalue l
    for size, parts in ((2, 3), (3, 3)):
        k = (parts - 1) * size
        predicted = strongly_regular_secondary(k, (parts - 2) * size, k)
        assert abs(predicted - size) <= 1e-12
        numeric = adjacency_spectrum(complete_multipartite(size, parts))
        assert abs(predicted - numeric.second_largest_abs) <= 1e-8


def test_strongly_regular_secondary_rejects_bad_parameters():
    with pytest.raises(ValueError):
        strongly_regular_secondary(3, 2, 1)  # complete graph, a > k - 2
    with pytest.raises(ValueError):
        strongly_regular_secondary(0, 0, 1)
    with pytest.raises(ValueError):
        strongly_regular_secondary(3, 0, 0)


def test_spectral_bound_petersen():
    report = spectral_bound(petersen())
    assert report.applicable
    assert report.ceiling == 1
    assert abs(float(report.value) - 0.5727) <= 1e-3
    assert report.certificate["degree"] == 3
    assert report.certificate["residual"] <= RESIDUAL_TOL


def test_spectral_bound_small_multipartite_values():
    octahedron = spectral_bound(complete_multipartite(2, 3))
    assert abs(float(octahedron.value) - 0.2071) <= 1e-3
    sixteen = spectral_bound(complete_multipartite(2, 8))
    assert abs(float(sixteen.value) - 0.3914) <= 1e-3


def test_spectral_bound_reasons():
    assert spectral_bound(path(4)).reason == "not_regular"
    assert spectral_bound(complement(cycle(4))).reason == "disconnected"
    assert spectral_bound(complete_graph(5)).reason == "complete_graph"


def test_spectral_bound_growth_with_part_count():
    """On K_{2 x p} the bound grows like p / log p: the sequence must
    increase and stay within a fixed band of that rate."""
    values = [spectral_bound(complete_multipartite(2, p)).value
              for p in range(4, 13)]
    assert all(a < b for a, b in zip(values, values[1:]))
    for p, value in zip(range(4, 13), values):
        scaled = float(value) * math.log(p) / p
        assert Fraction(1, 16) <= scaled <= Fraction(1, 4)


def test_gram_spectrum_hexagon():
    summary = _gram_spectrum(_hexagon_bipartite())
    assert _sorted_close(summary.eigenvalues, (4, 1, 1))
    assert summary.residual <= RESIDUAL_TOL


def test_tanner_bound_full_subset_is_exact():
    # at |X| = n the lambda terms cancel and the answer is exactly n
    assert _regular_tanner(petersen(), 10) == Fraction(10)
    assert _regular_tanner(complete_multipartite(2, 3), 6) == Fraction(6)
    assert _hexagon_tanner(3) == Fraction(3)


def test_tanner_bound_singletons():
    assert abs(float(_regular_tanner(petersen(), 1)) - 2.0) <= 1e-8
    assert abs(float(_hexagon_tanner(1)) - 2.0) <= 1e-8


@pytest.mark.parametrize("g", [petersen(), complete_multipartite(2, 3)])
def test_tanner_bound_is_sound(g):
    for t in range(1, 5):
        guaranteed = float(_regular_tanner(g, t))
        worst = min(popcount(_union_neighborhood(g.rows, subset))
                    for subset in combinations(range(g.n), t))
        assert worst + 1e-6 >= guaranteed


def test_tanner_bound_is_sound_bipartite():
    gb = _hexagon_bipartite()
    for t in range(1, 4):
        guaranteed = float(_hexagon_tanner(t))
        worst = min(popcount(_union_neighborhood(gb.rows, subset))
                    for subset in combinations(range(gb.na), t))
        assert worst + 1e-6 >= guaranteed


def test_tanner_bound_is_sound_on_sampled_regular_graphs():
    """The second eigenvalue magnitude adjacency_spectrum reports is never
    so small that Tanner's neighbourhood guarantee overshoots."""
    for n, k in ((10, 3), (12, 3), (12, 4)):
        for seed in (1, 2, 3):
            g = sample(RandomModelSpec("regular", n, seed, k=k))
            for t in range(1, 5):
                guaranteed = float(_regular_tanner(g, t))
                worst = min(popcount(_union_neighborhood(g.rows, subset))
                            for subset in combinations(range(n), t))
                assert worst + 1e-6 >= guaranteed
