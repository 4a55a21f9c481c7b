"""Deficiency-counting lower bounds and their closed-form family forms."""

from fractions import Fraction

from hypothesis import given, settings

from boxkit.errors import PROFILE_MAX_VERTICES
from boxkit.graphs import (
    Graph,
    complement,
    complete_graph,
    cycle,
    from_edges,
    path,
)
from boxkit.intervals import boxicity_exact, canonical_supergraph
from boxkit.isoperimetry import iso_profile
from boxkit.supergraph_bounds import (
    degree_ratio_bound,
    detect_family_bound,
    family_bound,
    min_supergraph_bound,
    regular_complement_bound,
    strong_boundary_bound,
)
from boxkit.families import complement_cycle, complete_multipartite, petersen

from .strategies import graphs


def test_min_supergraph_bound_on_four_cycle():
    report = min_supergraph_bound(cycle(4))
    assert report.applicable
    assert report.value == Fraction(2)
    assert report.ceiling == 2
    assert report.certificate["supergraph_edges"] == 5
    # the certificate ordering must actually achieve the claimed count
    realized = canonical_supergraph(cycle(4), report.certificate["ordering"])
    assert realized.graph.edge_count == 5


def test_strong_boundary_bound_on_four_cycle():
    report = strong_boundary_bound(cycle(4))
    assert report.applicable
    assert report.value == Fraction(2)
    profile = report.certificate["complement_profile"]
    assert report.certificate["profile_sum"] == sum(profile.max_strong_boundary)


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
    g = complete_multipartite(2, 3)
    report = regular_complement_bound(6, 1, g)
    assert report.value == Fraction(3)
    assert report.certificate["verified"] is True


def test_regular_complement_rejections():
    g = complete_multipartite(2, 3)
    assert regular_complement_bound(6, 2, g).reason == "regularity_mismatch"
    assert regular_complement_bound(5, 1, g).reason == "size_mismatch"
    assert regular_complement_bound(0, 1).reason == "bad_parameters"
    assert regular_complement_bound(6, 0).reason == "bad_parameters"


def test_regular_complement_trusted_mode():
    report = regular_complement_bound(12, 3)
    assert report.value == Fraction(2)
    assert report.certificate["verified"] is None


def test_family_complement_cycle_values():
    for n in range(6, 13):
        g = complement_cycle(n)
        report = family_bound(n, "complement_cycle", g=g)
        assert report.value == Fraction(n, 3)
        assert report.certificate["verified"] is True


def test_family_complement_cycle_rejections():
    assert family_bound(4, "complement_cycle").reason == "cycle_too_short"
    # complement of C6 is 3-regular, not a cycle
    assert family_bound(6, "complement_cycle", g=cycle(6)).reason == "family_refuted"


def test_family_coplanar_is_trusted_with_warning():
    report = family_bound(16, "coplanar")
    assert report.value == Fraction(2)
    assert report.certificate["verified"] is None
    assert any("not verified" in note for note in report.notes)


def test_family_coplanar_degree_screen():
    g = complement_cycle(16)
    assert family_bound(16, "coplanar", k=2, g=g).applicable
    assert family_bound(16, "coplanar", k=3, g=g).reason == "regularity_mismatch"
    assert family_bound(4, "coplanar", g=complete_graph(4)).reason == "regularity_mismatch"


def test_family_c4free_on_five_cycle():
    # C5 is self-complementary, 2-regular, and C4-free
    report = family_bound(5, "c4free", k=2, g=cycle(5))
    assert report.value == Fraction(5, 4)
    assert report.ceiling == 2
    assert report.certificate["verified"] is True


def test_family_c4free_rejections():
    two_edges = complement(cycle(4))
    # complement of 2K2 is C4 itself, which contains a 4-cycle
    assert family_bound(4, "c4free", g=two_edges).reason == "family_refuted"
    # P4 has a non-regular complement
    assert family_bound(4, "c4free", g=path(4)).reason == "regularity_mismatch"
    assert family_bound(5, "c4free", k=3, g=cycle(5)).reason == "regularity_mismatch"
    assert family_bound(5, "nonsense").reason == "unknown_family"


def test_family_certificate_carries_generic_value():
    g = complement_cycle(9)
    report = family_bound(9, "complement_cycle", g=g)
    assert report.certificate["generic_value"] == Fraction(3)
    assert report.certificate["generic_value"] == strong_boundary_bound(g).value


def test_family_generic_value_reaches_the_profile_cap():
    cap = PROFILE_MAX_VERTICES
    report = family_bound(cap, "complement_cycle", g=complement_cycle(cap))
    assert report.certificate["generic_value"] == strong_boundary_bound(complement_cycle(cap)).value
    past = family_bound(cap + 1, "complement_cycle", g=complement_cycle(cap + 1))
    assert past.value == Fraction(cap + 1, 3)
    assert "generic_value" not in past.certificate


def test_detect_family_bound_cases():
    assert detect_family_bound(complement_cycle(9)).value == Fraction(3)
    assert detect_family_bound(complement_cycle(9)).certificate["family"] == "complement_cycle"
    # complement of C4 is 1-regular and trivially C4-free
    c4 = detect_family_bound(cycle(4))
    assert c4.certificate["family"] == "c4free"
    assert c4.value == Fraction(1)
    assert detect_family_bound(petersen()).reason == "no_family_detected"


def test_family_bounds_agree_with_profile_identity():
    """For a complement cycle the generic profile bound and the closed
    form coincide exactly, which is what makes the family form safe."""
    for n in (6, 9, 12):
        g = complement_cycle(n)
        closed = family_bound(n, "complement_cycle", g=g).value
        generic = strong_boundary_bound(g).value
        assert closed == generic == Fraction(n, 3)


def test_strong_boundary_certificate_profile_matches_direct():
    g = petersen()
    report = strong_boundary_bound(g)
    direct = iso_profile(complement(g))
    assert report.certificate["complement_profile"] == direct
