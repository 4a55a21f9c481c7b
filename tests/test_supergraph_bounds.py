"""Deficiency-counting lower bounds and their closed-form family forms."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from boxkit import isoperimetry, tables
from boxkit.errors import PROFILE_MAX_VERTICES
from boxkit.bitset import mask_of, popcount
from boxkit.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle,
    degree_summary,
    from_edges,
    is_complete,
    open_neighborhood,
    path,
    strong_vertex_boundary,
)
from boxkit.expansion_bounds import universal_bound
from boxkit.intervals import boxicity_exact, canonical_rep, intersect_realized
from boxkit.supergraph_bounds import (
    degree_ratio_bound,
    detect_family_bound,
    min_supergraph_bound,
    strong_boundary_bound,
)
from boxkit.families import (
    RANDOM_MODELS,
    RandomModelSpec,
    bipartite_tight_family,
    cobipartite_tight_family,
    complement_cycle,
    complete_multipartite,
    enumerate_graphs,
    petersen,
    sample,
)

from .strategies import closed_unions, graphs


def test_min_supergraph_bound_on_four_cycle():
    report = min_supergraph_bound(cycle(4))
    assert report.applicable
    assert report.value == Fraction(2)
    assert report.ceiling == 2
    assert report.certificate["supergraph_edges"] == 5
    # the certificate ordering must actually achieve the claimed count
    rep = canonical_rep(cycle(4), report.certificate["ordering"])
    assert Graph(4, intersect_realized([rep], 4)).edge_count == 5


def test_strong_boundary_bound_on_four_cycle():
    report = strong_boundary_bound(cycle(4))
    assert report.applicable
    assert report.value == Fraction(2)


def test_degree_ratio_examples():
    assert degree_ratio_bound(cycle(4)).value == Fraction(2)
    assert degree_ratio_bound(petersen()).value == Fraction(5, 6)
    # star: complement isolates the hub, so the ratio collapses to zero
    star = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    report = degree_ratio_bound(star)
    assert report.applicable
    assert report.value == 0


def test_complete_graphs_are_inapplicable():
    for n in (1, 2, 5):
        g = complete_graph(n)
        for fn in (min_supergraph_bound, strong_boundary_bound,
                   degree_ratio_bound, detect_family_bound):
            report = fn(g)
            assert not report.applicable
            assert report.reason == "complete_graph"


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=60, deadline=None)
def test_profile_bound_never_beats_supergraph_bound(g):
    """The profile sum upper-bounds the optimal supergraph deficiency, so
    the cheap bound can only be weaker."""
    if g.edge_count == g.n * (g.n - 1) // 2:
        return
    weak = strong_boundary_bound(g)
    strong = min_supergraph_bound(g)
    assert weak.value <= strong.value


@given(graphs(min_n=1, max_n=6))
@settings(max_examples=60, deadline=None)
def test_counting_bounds_are_sound(g):
    exact = boxicity_exact(g).value
    for fn in (min_supergraph_bound, strong_boundary_bound,
               degree_ratio_bound, detect_family_bound):
        report = fn(g)
        if report.applicable:
            assert report.ceiling <= exact


def test_regular_complement_on_octahedron():
    # the complement is a perfect matching, so n / 2k = 6 / 2
    g = complete_multipartite(2, 3)
    summary = degree_summary(complement(g))
    assert summary.is_regular and summary.min_degree == 1
    assert universal_bound(g).value == Fraction(3)


def test_regular_complement_bound_checks_the_graph():
    """When the complement is k-regular with k >= 1, the universal bound
    is n / 2k: no vertex is universal, and the least degree is n - k - 1."""
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            summary = degree_summary(complement(g))
            k = summary.min_degree
            if summary.is_regular and k >= 1:
                assert universal_bound(g).value == Fraction(n, 2 * k)


def test_family_coplanar_degree_screen():
    # the co-planar form is gone; the complement-regularity screen it ran
    # and its n / 2k are the universal bound's, checked on the same graph
    g = complement_cycle(16)
    summary = degree_summary(complement(g))
    assert summary.is_regular and summary.min_degree == 2
    assert universal_bound(g).value == Fraction(16, 4)


def test_family_complement_cycle_values():
    for n in range(5, 13):
        report = detect_family_bound(complement_cycle(n))
        assert report.value == Fraction(n, 3)
        assert report.certificate["family"] == "complement_cycle"
        assert report.certificate["verified"] is True


def test_family_complement_cycle_rejections():
    # at n = 4 the complement cycle is C4, whose profile breaks n/3
    assert detect_family_bound(complement_cycle(4)).reason == "no_family_detected"
    # complement of C6 is 3-regular with 4-cycles, not a cycle
    assert detect_family_bound(cycle(6)).reason == "no_family_detected"


def test_family_c4free_on_five_cycle():
    # C5 is self-complementary, 2-regular, and C4-free, so both forms
    # hold; the cycle form is tried first and is the larger
    g = cycle(5)
    assert g.n - closed_unions(g).least(2)[0] <= 1
    report = detect_family_bound(g)
    assert report.certificate["family"] == "complement_cycle"
    assert report.value == Fraction(5, 3) > Fraction(5, 4)
    assert report.ceiling == 2
    assert report.certificate["verified"] is True


def test_family_c4free_on_petersen_complement():
    # the Petersen graph is 3-regular with girth 5
    report = detect_family_bound(complement(petersen()))
    assert report.certificate["family"] == "c4free"
    assert report.certificate["k"] == 3
    assert report.value == Fraction(5, 2)
    assert report.certificate["verified"] is True


def test_family_c4free_rejections():
    # P4 has a non-regular complement
    assert detect_family_bound(path(4)).reason == "no_family_detected"
    # the Petersen complement is the triangular graph, which has 4-cycles
    assert detect_family_bound(petersen()).reason == "no_family_detected"


def test_family_certificate_carries_generic_value():
    g = complement_cycle(9)
    report = detect_family_bound(g)
    assert list(report.certificate) == ["family", "n", "k", "verified", "generic_value"]
    assert report.certificate["generic_value"] == Fraction(3)
    assert report.certificate["generic_value"] == strong_boundary_bound(g).value


def test_family_generic_value_reaches_the_profile_cap():
    cap = PROFILE_MAX_VERTICES
    report = detect_family_bound(complement_cycle(cap))
    assert report.certificate["generic_value"] == strong_boundary_bound(complement_cycle(cap)).value
    past = detect_family_bound(complement_cycle(cap + 1))
    assert past.value == Fraction(cap + 1, 3)
    assert "generic_value" not in past.certificate


def _family_corpus():
    yield from (g for n in range(1, 7) for g in enumerate_graphs(n))
    for n in range(6, 16):
        for k in (1, 2, 3):
            if n * k % 2 == 0:
                for seed in (1, 2, 3):
                    yield complement(sample(RandomModelSpec("regular", n, seed, k=k)))
    yield from (complement_cycle(n) for n in range(5, 20))


def test_family_value_never_exceeds_its_generic_value():
    """Each closed form is an instance of the profile inequality, so it
    can never beat strong_boundary on the same graph."""
    fired = 0
    for g in _family_corpus():
        report = detect_family_bound(g)
        if report.applicable:
            fired += 1
            assert report.value <= report.certificate["generic_value"]
    assert fired > 0


def test_detect_family_bound_reports_only_verified_forms():
    for g in _family_corpus():
        report = detect_family_bound(g)
        if report.applicable:
            assert report.certificate["family"] in ("complement_cycle", "c4free")
            assert report.certificate["verified"] is True
            assert report.notes == ()


def test_detect_family_bound_cases():
    # complement of C4 is 1-regular and trivially C4-free
    c4 = detect_family_bound(cycle(4))
    assert c4.certificate["family"] == "c4free"
    assert c4.value == Fraction(1)


def test_family_bounds_agree_with_profile_identity():
    """For a complement cycle the generic profile bound and the closed
    form coincide exactly, which is what makes the family form safe."""
    for n in (6, 9, 12):
        g = complement_cycle(n)
        closed = detect_family_bound(g).value
        generic = strong_boundary_bound(g).value
        assert closed == generic == Fraction(n, 3)


def _replay_strong_boundary(g):
    """Check strong_boundary_bound's certificate against g alone: each
    witness X_k has k members and leaves s_k vertices outside N[X_k],
    which are X_k's common neighbours in the complement; the sum and the
    value follow; and up to n = 10 each s_k is the largest over all
    k-sets."""
    report = strong_boundary_bound(g)
    if is_complete(g):
        assert report.reason == "complete_graph"
        return
    cert = report.certificate
    assert list(cert) == ["max_strong_boundary", "witnesses", "profile_sum"]
    strong, witnesses = cert["max_strong_boundary"], cert["witnesses"]
    assert len(strong) == len(witnesses) == g.n - 1
    co = complement(g)
    for k, (s, x) in enumerate(zip(strong, witnesses), 1):
        assert popcount(x) == k
        assert g.n - popcount(x | open_neighborhood(g, x)) == s
        assert popcount(strong_vertex_boundary(co, x)) == s
    assert cert["profile_sum"] == sum(strong)
    assert report.value == Fraction(co.edge_count, cert["profile_sum"])
    if g.n <= 10:
        assert strong == tuple(
            max(popcount(strong_vertex_boundary(co, mask_of(x)))
                for x in combinations(range(g.n), k))
            for k in range(1, g.n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_strong_boundary_certificate_replays_on_every_class(n):
    for g in enumerate_graphs(n):
        _replay_strong_boundary(g)


@pytest.mark.parametrize("spec", [RandomModelSpec("gnp", 10, seed, p=p)
                                  for seed in (1, 2)
                                  for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))]
                         + [RandomModelSpec("gnm", 10, seed, m=22) for seed in (1, 2)]
                         + [RandomModelSpec("regular", 10, seed, k=3) for seed in (1, 2)],
                         ids=lambda s: f"{s.model}-{getattr(s, RANDOM_MODELS[s.model].parameter)}"
                                       f"-seed{s.seed}")
def test_strong_boundary_certificate_replays_on_drawn_graphs(spec):
    _replay_strong_boundary(sample(spec))


@pytest.mark.parametrize("g", [complement_cycle(18), complete_multipartite(2, 9),
                               cobipartite_tight_family(3, 3).graph,
                               bipartite_tight_family(3, 3).graph],
                         ids=["co-C18", "K_2x9", "cobipartite(3,3)", "bipartite(3,3)"])
def test_strong_boundary_certificate_replays_on_named_graphs(g):
    _replay_strong_boundary(g)


def _regular_complements():
    """Graphs whose complement is regular, so that family reaches its
    square-free test, with both outcomes."""
    return ([cycle(4), complement(cycle(3)), complete_multipartite(2, 9), complement(petersen()),
             cobipartite_tight_family(3, 3).graph, bipartite_tight_family(3, 3).graph]
            + [sample(RandomModelSpec("regular", n, seed, k=k))
               for n, k in ((18, 13), (20, 3), (22, 16)) for seed in (1, 2)])


@pytest.mark.parametrize("g", _regular_complements(), ids=lambda g: f"n{g.n}m{g.edge_count}")
def test_family_reads_the_profile_and_scans_no_single_size(monkeypatch, g):
    # after strong_boundary, the square-free test and the generic value
    # read the least closed unions strong_boundary found, so family runs
    # no scan of its own
    expected = detect_family_bound(g)
    square_free = g.n - closed_unions(g).least(2)[0] <= 1
    shared = tables.GraphTables(g)
    strong = strong_boundary_bound(shared)

    def refuse(*args, **kwargs):
        raise AssertionError("family ran a scan")

    monkeypatch.setattr(isoperimetry, "_least_union", refuse)
    monkeypatch.setattr(isoperimetry, "_least_unions", refuse)
    family = detect_family_bound(shared)
    assert family == expected
    if family.applicable:
        assert family.certificate["generic_value"] == strong.value
        assert family.certificate["family"] == "complement_cycle" or square_free
    else:
        assert not square_free


def test_strong_boundary_builds_no_complement(monkeypatch):
    # the complement's edge count is n(n - 1)/2 - m
    g = sample(RandomModelSpec("gnp", 12, 3, p=Fraction(1, 2)))
    total = sum(g.n - value for value, _ in closed_unions(g).every())

    def refuse(g):
        raise AssertionError("complement built")

    monkeypatch.setattr(tables, "complement", refuse)
    assert strong_boundary_bound(g).value == Fraction(complement(g).edge_count, total)
