"""Acceptance gate: eleven end-to-end checks, one printed line each.

Every criterion prints "acceptance NN <name>: PASS" or ": FAIL" so a log
scan shows the whole gate at a glance.  Failures also carry the first
few offending cases in the assertion message.
"""

import math
from fractions import Fraction
from itertools import permutations

from boxkit.edgelist import format_edge_list, parse_edge_list
from boxkit.expansion_bounds import (
    bipartite_universal_bound,
    certify_expansion_bound,
    co_expansion_table,
    universal_bound,
)
from boxkit.families import (
    RandomModelSpec,
    bipartite_tight_family,
    cobipartite_tight_family,
    complement_cycle,
    complete_multipartite,
    enumerate_graphs,
    petersen,
    sample,
)
from boxkit.graphs import (
    complement,
    complete_graph,
    cycle,
    degree_summary,
    induced_subgraph,
    is_complete,
    universal_vertices,
    vertex_boundary,
)
from boxkit.bitset import full_mask, mask_of, popcount
from boxkit.harness import ExperimentConfig, emit, run_bounds, run_experiment
from boxkit.intervals import (
    boxicity_exact,
    min_interval_supergraph,
    verify_box_certificate,
)
from boxkit.rng import derive_seed
from boxkit.spectral import (
    adjacency_spectrum,
    spectral_bound,
    strongly_regular_secondary,
)
from boxkit.supergraph_bounds import (
    min_supergraph_bound,
    strong_boundary_bound,
)

_memo = {}


def _report(criterion, problems):
    verdict = "PASS" if not problems else "FAIL"
    print(f"acceptance {criterion}: {verdict}")
    assert not problems, f"{criterion}: " + "; ".join(problems[:5])


def _random_graph(n, seed):
    return sample(RandomModelSpec("gnp", n, seed, p=Fraction(1, 2)))


def test_criterion_01_exhaustive_soundness():
    problems = []
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            exact = boxicity_exact(g).value
            if exact > n // 2:
                problems.append(f"box {exact} above n/2 at n={n}")
            for rep in run_bounds(g, ["all"]):
                if rep.applicable and rep.ceiling > exact:
                    problems.append(
                        f"{rep.name} ceiling {rep.ceiling} beats box "
                        f"{exact} on n={n} rows={g.rows}")
    _report("01 exhaustive-soundness", problems)


def test_criterion_02_complement_cycle_bound():
    problems = []
    for n in range(6, 13):
        value = strong_boundary_bound(complement_cycle(n)).value
        if value != Fraction(n, 3):
            problems.append(f"n={n}: got {value}, want {Fraction(n, 3)}")
    six = strong_boundary_bound(complement_cycle(6))
    exact = boxicity_exact(complement_cycle(6)).value
    if not (six.ceiling == 2 == exact):
        problems.append(f"n=6 ceiling {six.ceiling} vs exact {exact}")
    _report("02 complement-cycle-closed-form", problems)


def test_criterion_03_cobipartite_tight_family():
    problems = []
    pairs = [(k, l) for k in range(1, 5) for l in range(1, 5) if 2 * k * l <= 8]
    for k, l in pairs:
        cert = cobipartite_tight_family(k, l)
        if cert.claimed_upper != l or not cert.verify():
            problems.append(f"(k,l)=({k},{l}): certificate failed")
        summary = degree_summary(complement(cert.graph))
        if not (summary.is_regular and summary.min_degree == k):
            problems.append(f"(k,l)=({k},{l}): complement not {k}-regular")
        # the closed form for a k-regular complement, n / 2k = l
        bound = universal_bound(cert.graph)
        if bound.value != Fraction(l):
            problems.append(f"(k,l)=({k},{l}): closed form {bound.value} != {l}")
        result = boxicity_exact(cert.graph)
        if result.value != l or not verify_box_certificate(cert.graph,
                                                           result.certificate):
            problems.append(f"(k,l)=({k},{l}): exact {result.value} != {l}")
    _report("03 cobipartite-tight-family", problems)


def test_criterion_04_complete_multipartite():
    problems = []
    if boxicity_exact(complete_multipartite(2, 2)).value != 2:
        problems.append("box(two balanced parts) != 2")
    if boxicity_exact(complete_multipartite(2, 3)).value != 3:
        problems.append("box(three balanced parts) != 3")
    if universal_bound(complete_multipartite(2, 3)).value != Fraction(3):
        problems.append("closed-form universal bound != 3")
    _report("04 complete-multipartite", problems)


def _brute_min_supergraph_edges(g):
    # minimum over all orderings of the prefix boundary sum
    best = None
    for perm in permutations(range(g.n)):
        prefix = 0
        total = 0
        for v in perm[:-1]:
            prefix |= 1 << v
            total += popcount(vertex_boundary(g, prefix))
        if best is None or total < best:
            best = total
    return best


def test_criterion_05_supergraph_dp_vs_brute_force():
    problems = []
    for i in range(100):
        n = 2 + i % 7
        g = _random_graph(n, derive_seed(4242, i))
        dp = min_interval_supergraph(g).edge_count
        brute = _brute_min_supergraph_edges(g)
        if dp != brute:
            problems.append(f"sample {i} (n={n}): dp {dp} != brute {brute}")
    if min_interval_supergraph(cycle(4)).edge_count != 5:
        problems.append("four-cycle minimum supergraph is not 5 edges")
    if min_supergraph_bound(cycle(4)).value != Fraction(2):
        problems.append("four-cycle supergraph bound is not 2")
    _report("05 supergraph-dp-brute-force", problems)


def test_criterion_06_spectral_oracles():
    problems = []
    for g, label in ((petersen(), "petersen"), (complete_graph(4), "k4"),
                     (complete_multipartite(2, 3), "octahedron")):
        residual = adjacency_spectrum(g).residual
        if residual > 1e-8:
            problems.append(f"{label}: residual {residual} above 1e-8")
    for size, parts in ((2, 3), (3, 3)):
        k = (parts - 1) * size
        predicted = strongly_regular_secondary(k, (parts - 2) * size, k)
        numeric = adjacency_spectrum(
            complete_multipartite(size, parts)).second_largest_abs
        if abs(predicted - size) > 1e-8 or abs(predicted - numeric) > 1e-8:
            problems.append(f"(l,p)=({size},{parts}): lambda {predicted}")
    rep = spectral_bound(petersen())
    if rep.ceiling != 1 or abs(float(rep.value) - 0.5727) > 1e-3:
        problems.append(f"petersen spectral {float(rep.value)} ceiling {rep.ceiling}")
    _report("06 spectral-oracles", problems)


def _nondecreasing(seq):
    return all(a <= b for a, b in zip(seq, seq[1:]))


def test_criterion_07_expansion_consistency():
    problems = []
    count = 0
    attempt = 0
    while count < 200:
        n = 4 + count % 9
        g = _random_graph(n, derive_seed(777, attempt))
        attempt += 1
        if is_complete(g):
            continue
        count += 1
        keep = g.vertices & ~universal_vertices(g)
        core = induced_subgraph(g, keep) if keep != g.vertices else g
        full = full_mask(core.n)
        _, cert = certify_expansion_bound(core, full, full, 1)
        needed = math.ceil(universal_bound(g).value)
        if cert.bound < needed:
            problems.append(f"scan {cert.bound} below universal ceil {needed} "
                            f"on rows={g.rows}")
        if cert.bound > core.n // 2 + 1:
            problems.append(f"scan {cert.bound} breaks the cap on rows={g.rows}")
        table = co_expansion_table(core, full, full, core.n)
        if not _nondecreasing(table):
            problems.append(f"m-table not monotone on rows={core.rows}")
        # general degree floor for the co-expansion rate
        summary = degree_summary(g)
        floor = Fraction(g.n - summary.max_degree - 1,
                         g.n - summary.min_degree - 1)
        whole = full_mask(g.n)
        for j, m in enumerate(co_expansion_table(g, whole, whole, g.n), start=1):
            if Fraction(m, j) < floor:
                problems.append(f"alpha_{j} below degree floor on rows={g.rows}")
    # regular graphs: the rate never drops below one
    for i, (n, k) in enumerate(((6, 2), (8, 3), (10, 3), (12, 5), (10, 4))):
        g = sample(RandomModelSpec("regular", n, derive_seed(778, i), k=k))
        whole = full_mask(n)
        for j, m in enumerate(co_expansion_table(g, whole, whole, n), start=1):
            if Fraction(m, j) < 1:
                problems.append(f"regular alpha_{j} below 1 at n={n} k={k}")
    # balanced bipartite: degree floor with side-size numerators
    for i in range(30):
        n = (8, 10, 12)[i % 3]
        gb = sample(RandomModelSpec("bipartite_gnp", n, derive_seed(779, i),
                                    p=Fraction(1, 2)))
        g = gb.to_graph()
        half = n // 2
        summary = degree_summary(g)
        if summary.min_degree == half:
            continue
        floor = Fraction(half - summary.max_degree, half - summary.min_degree)
        side_a = mask_of(range(half))
        side_b = mask_of(range(half, n))
        for j, m in enumerate(co_expansion_table(g, side_a, side_b, half),
                              start=1):
            if Fraction(m, j) < floor:
                problems.append(f"bipartite alpha_{j} below floor, seed {i}")
    # regular bipartite: the rate never drops below one
    for k, l in ((2, 2), (2, 3), (3, 2)):
        g = bipartite_tight_family(k, l).graph
        half = g.n // 2
        side_a = mask_of(range(half))
        side_b = mask_of(range(half, g.n))
        for j, m in enumerate(co_expansion_table(g, side_a, side_b, half),
                              start=1):
            if Fraction(m, j) < 1:
                problems.append(f"tight ({k},{l}) alpha_{j} below 1")
    _report("07 expansion-consistency", problems)


def test_criterion_08_bipartite_tight_family():
    problems = []
    for k, l in ((2, 2), (2, 3), (3, 2)):
        cert = bipartite_tight_family(k, l)
        if len(cert.reps) != l + 2 or not cert.verify():
            problems.append(f"(k,l)=({k},{l}): certificate failed")
        bound = bipartite_universal_bound(cert.bipartite).value
        if bound != Fraction(l, 2):
            problems.append(f"(k,l)=({k},{l}): universal {bound} != {Fraction(l, 2)}")
    _report("08 bipartite-tight-family", problems)


def _trend_configs():
    return {
        "gnp": ExperimentConfig(
            model="gnp", n_values=(12, 16, 20), seeds=20, master_seed=42,
            bounds=("strong_boundary",), p_values=(Fraction(1, 2),)),
        "regular": ExperimentConfig(
            model="regular", n_values=(200,), seeds=20, master_seed=42,
            bounds=("spectral",), k_values=(3, 5, 8)),
        "gnm": ExperimentConfig(
            model="gnm", n_values=(16,), seeds=20, master_seed=42,
            bounds=("strong_boundary",), m_values=(32, 48, 64)),
    }


def _trend_results():
    if "trends" not in _memo:
        _memo["trends"] = {
            name: run_experiment(config)
            for name, config in _trend_configs().items()
        }
    return _memo["trends"]


def test_criterion_09_random_trends():
    problems = []
    results = _trend_results()
    ceilings = [cell.mean_ceilings["strong_boundary"]
                for cell in results["gnp"].cells]
    if not all(a < b for a, b in zip(ceilings, ceilings[1:])):
        problems.append(f"gnp ceiling trend not strictly increasing: {ceilings}")
    spectral = [cell.mean_values["spectral"] for cell in results["regular"].cells]
    if not _nondecreasing(spectral):
        problems.append(f"regular spectral trend decreasing: {spectral}")
    gnm = [cell.mean_values["strong_boundary"] for cell in results["gnm"].cells]
    if not _nondecreasing(gnm):
        problems.append(f"gnm value trend decreasing: {gnm}")
    _report("09 random-trends", problems)


def test_criterion_10_determinism_and_formats():
    problems = []
    first = _trend_results()
    for name, config in _trend_configs().items():
        again = run_experiment(config)
        if emit(first[name].rows, "csv") != emit(again.rows, "csv"):
            problems.append(f"{name} sweep is not byte-stable")
    for n in range(1, 7):
        for g in enumerate_graphs(n):
            if parse_edge_list(format_edge_list(g)).rows != g.rows:
                problems.append(f"round trip failed on n={n} rows={g.rows}")
    _report("10 determinism-and-formats", problems)


def test_criterion_11_subset_count_inequality():
    problems = []
    for n in range(8, 65):
        for i in range(1, int(n / math.e ** 2) + 1):
            if math.comb(n, i) * i ** (2 * i) > n ** (2 * i):
                problems.append(f"violated at n={n}, i={i}")
    _report("11 subset-count-inequality", problems)
