"""Random models, tight constructions, and exhaustive enumeration."""

import hashlib
import math
from fractions import Fraction

import pytest

from boxkit import families
from boxkit.bitset import popcount
from boxkit.edgelist import format_edge_list
from boxkit.errors import BudgetExceededError
from boxkit.families import (
    ENUMERATION_MAX_VERTICES,
    MODELS,
    RandomModelSpec,
    TightFamilyCertificate,
    bipartite_tight_family,
    cobipartite_tight_family,
    complement_cycle,
    complete_multipartite,
    enumerate_graphs,
    isomorphism_class_count,
    petersen,
    sample,
)
from boxkit.graphs import BipartiteGraph, Graph, complete_graph, degree_summary
from boxkit.rng import derive_seed

from .test_isoperimetry import _NoNumpy

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


def test_spec_parameter_text():
    assert RandomModelSpec("gnp", 8, 0, p=Fraction(1, 2)).parameter() == "1/2"
    assert RandomModelSpec("gnm", 8, 0, m=7).parameter() == "7"
    assert RandomModelSpec("regular", 8, 0, k=3).parameter() == "3"


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
        g = first.to_graph() if isinstance(first, BipartiteGraph) else first
        assert hashlib.sha256(format_edge_list(g).encode()).hexdigest() == digest


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


def test_tight_family_validation():
    with pytest.raises(ValueError):
        cobipartite_tight_family(0, 2)
    with pytest.raises(ValueError):
        bipartite_tight_family(2, 0)


# --- named graphs -------------------------------------------------------------

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
        assert isomorphism_class_count(n) == count
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
    with pytest.raises(ValueError):
        isomorphism_class_count(0)


def test_class_count_cap_raises_before_any_array(monkeypatch):
    monkeypatch.setattr(families, "np", _NoNumpy())
    with pytest.raises(BudgetExceededError, match=f"capped at n <= {ENUMERATION_MAX_VERTICES}"):
        isomorphism_class_count(ENUMERATION_MAX_VERTICES + 1)
    with pytest.raises(BudgetExceededError, match=f"capped at n <= {ENUMERATION_MAX_VERTICES}"):
        list(enumerate_graphs(ENUMERATION_MAX_VERTICES + 1))
