"""The benchmark's three workloads: their inputs and the timed operations.

Every input is made from the workload seed, so the same seed gives the
same graphs.  A round is one pass over the whole input; the timed
region runs whole rounds, so every graph weighs the same in every run.
``run_round(between)`` calls ``between()`` before each graph (each config
on ``sweep``), outside the graph's timing; the worker takes its set-up
samples there.

boxkit is always called through its module objects (``harness.run_bounds``
rather than a name imported from it), so that the traced run's wrappers,
installed on those module attributes, see every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from boxkit import families, graphs, harness, intervals, rng

import checks

BOUND_N = 18
# (label, sampler keyword arguments); each model is drawn BOUND_PER_MODEL times.
BOUND_MODELS = (
    ("gnp-1/2", {"model": "gnp", "p": Fraction(1, 2)}),
    ("gnp-3/4", {"model": "gnp", "p": Fraction(3, 4)}),
    ("gnm-77", {"model": "gnm", "m": 77}),
    ("regular-3", {"model": "regular", "k": 3}),
    ("regular-13", {"model": "regular", "k": 13}),
    ("bipartite_gnp-1/2", {"model": "bipartite_gnp", "p": Fraction(1, 2)}),
)
BOUND_PER_MODEL = 3

EXACT_N = 8
EXACT_MODELS = (
    ("gnp-1/3", {"model": "gnp", "p": Fraction(1, 3)}),
    ("gnp-1/2", {"model": "gnp", "p": Fraction(1, 2)}),
    ("gnp-2/3", {"model": "gnp", "p": Fraction(2, 3)}),
    ("gnp-4/5", {"model": "gnp", "p": Fraction(4, 5)}),
    ("gnm-14", {"model": "gnm", "m": 14}),
    ("regular-3", {"model": "regular", "k": 3}),
    ("regular-4", {"model": "regular", "k": 4}),
    ("bipartite_gnp-1/2", {"model": "bipartite_gnp", "p": Fraction(1, 2)}),
)
EXACT_PER_MODEL = 1

SWEEP_SEEDS_PER_CELL = 20


@dataclass(frozen=True)
class Item:
    """One input graph.  ``exact`` is its boxicity when known in closed
    form; ``upper`` is a proven upper bound on it."""

    label: str
    graph: graphs.Graph
    exact: int | None = None
    upper: int | None = None


@dataclass
class Round:
    """What one pass over the input produced."""

    times_ns: list[int] = field(default_factory=list)
    text: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: set[str] = field(default_factory=set)
    errors: list[str] = field(default_factory=list)
    results: list = field(default_factory=list)


def _drawn(models, n: int, per_model: int, seed: int) -> list[Item]:
    items = []
    slot = 0
    for label, kwargs in models:
        for _ in range(per_model):
            spec = families.RandomModelSpec(n=n, seed=rng.derive_seed(seed, slot), **kwargs)
            g = families.sample(spec)
            if isinstance(g, graphs.BipartiteGraph):
                g = g.to_graph()
            items.append(Item(f"{label}#{slot}", g))
            slot += 1
    return items


def bound_corpus(seed: int) -> list[Item]:
    named = [
        Item("cobipartite_tight_family(3,3)",
             families.cobipartite_tight_family(3, 3).graph, exact=3),
        Item("complete_multipartite(2,9)", families.complete_multipartite(2, 9), exact=9),
        Item("complement_cycle(18)", families.complement_cycle(18), exact=6),
        Item("bipartite_tight_family(3,3)",
             families.bipartite_tight_family(3, 3).graph, upper=5),
    ]
    return named + _drawn(BOUND_MODELS, BOUND_N, BOUND_PER_MODEL, seed)


def exact_corpus(seed: int) -> list[Item]:
    named = [
        Item("K_{2,2,2,2}", families.complete_multipartite(2, 4), exact=4),
        Item("C8", graphs.cycle(8), exact=2),
        Item("complement(C8)", graphs.complement(graphs.cycle(8)), exact=3),
        Item("cobipartite_tight_family(2,2)",
             families.cobipartite_tight_family(2, 2).graph, exact=2),
    ]
    return named + _drawn(EXACT_MODELS, EXACT_N, EXACT_PER_MODEL, seed)


def sweep_configs(seed: int):
    """The three trend sweeps of scripts/run_trends.py, keyed by the
    benchmark seed.  They are written out here, not imported, so that a
    change to the script cannot change the benchmark's input."""
    common = {"seeds": SWEEP_SEEDS_PER_CELL, "master_seed": seed}
    return (
        harness.ExperimentConfig(
            model="gnp", n_values=(12, 16, 20), bounds=("strong_boundary",),
            p_values=(Fraction(1, 2),), **common),
        harness.ExperimentConfig(
            model="regular", n_values=(200,), bounds=("spectral",),
            k_values=(3, 5, 8), **common),
        harness.ExperimentConfig(
            model="gnm", n_values=(16,), bounds=("strong_boundary",),
            m_values=(32, 48, 64), **common),
    )


def certificate_text(reports) -> str:
    """Every certificate, so the output digest covers them as well as
    the CSV values."""
    return "".join(f"{r.name} {r.certificate!r}\n" for r in reports)


def _budget_failed(reports) -> bool:
    return any(r.reason == "budget_exceeded" for r in reports)


def _best_ceiling(reports) -> int:
    return max((r.ceiling for r in reports if r.applicable), default=0)


def _nothing() -> None:
    pass


def _bounds_csv(item: Item, index: int, reports) -> str:
    g = item.graph
    rows = harness.rows_from_reports(reports, seed=index, model=item.label,
                                     n=g.n, m=g.edge_count, param="")
    return harness.emit(rows, "csv")


class BoundAll:
    """`bound --methods all` on every graph of one size."""

    name = "bound-all"
    min_rounds = 1

    def __init__(self, seed: int) -> None:
        self.items = bound_corpus(seed)

    def warm_up(self) -> None:
        g = graphs.cycle(6)
        _bounds_csv(Item("warm-up", g), 0, harness.run_bounds(g, ["all"]))

    def run_round(self, between=_nothing) -> Round:
        out = Round()
        clock = time.perf_counter_ns
        for index, item in enumerate(self.items):
            between()
            out.attempted += 1
            start = clock()
            try:
                reports = harness.run_bounds(item.graph, ["all"])
                csv = _bounds_csv(item, index, reports)
            except Exception as exc:  # one broken graph must not end the run
                out.failed.add(item.label)
                out.errors.append(f"{item.label}: {exc!r}")
                continue
            out.times_ns.append(clock() - start)
            if _budget_failed(reports):
                out.failed.add(item.label)
            out.text.append(csv + certificate_text(reports))
            out.results.append((item, reports))
        return out

    def check(self, results, seed: int) -> list[checks.Problem]:
        return checks.check_bound_all(results)

    def best_ceiling_sum(self, results) -> int:
        return sum(_best_ceiling(reports) for _, reports in results)


class ExactOracle:
    """`exact` followed by `bound --methods all` at the oracle's cap."""

    name = "exact-oracle"
    # Two passes over twelve graphs: the slowest graph, K_{2,2,2,2}, is
    # then timed twice and holds the top of the per-graph times, so the
    # p99 does not hinge on whether a seed draws a boxicity-3 graph.
    min_rounds = 2

    def __init__(self, seed: int) -> None:
        self.items = exact_corpus(seed)

    def warm_up(self) -> None:
        g = graphs.cycle(5)
        intervals.verify_box_certificate(g, intervals.boxicity_exact(g).certificate)
        g = graphs.cycle(6)
        _bounds_csv(Item("warm-up", g), 0, harness.run_bounds(g, ["all"]))

    def run_round(self, between=_nothing) -> Round:
        out = Round()
        clock = time.perf_counter_ns
        for index, item in enumerate(self.items):
            between()
            out.attempted += 1
            g = item.graph
            start = clock()
            try:
                exact = intervals.boxicity_exact(g)
                verified = intervals.verify_box_certificate(g, exact.certificate)
                reports = harness.run_bounds(g, ["all"])
                csv = _bounds_csv(item, index, reports)
            except Exception as exc:  # one broken graph must not end the run
                out.failed.add(item.label)
                out.errors.append(f"{item.label}: {exc!r}")
                continue
            out.times_ns.append(clock() - start)
            if not verified or _budget_failed(reports):
                out.failed.add(item.label)
            seqs = " ".join("".join(map(str, o.sequence()))
                            for o in exact.certificate.orderings)
            out.text.append(f"{item.label} boxicity={exact.value} "
                            f"verified={int(verified)} orderings={seqs}\n"
                            f"{exact.certificate.reps!r}\n"
                            + csv + certificate_text(reports))
            out.results.append((item, exact, verified, reports))
        return out

    def check(self, results, seed: int) -> list[checks.Problem]:
        return checks.check_exact(results)

    def best_ceiling_sum(self, results) -> int:
        return sum(_best_ceiling(reports) for *_, reports in results)


class Sweep:
    """`experiment` over the three trend configs, then CSV emission."""

    name = "sweep"
    min_rounds = 2  # the determinism check compares two passes

    def __init__(self, seed: int) -> None:
        self.configs = sweep_configs(seed)

    def warm_up(self) -> None:
        # One small graph per model, through the same bounds.
        for model, bound, param in (
                ("gnp", "strong_boundary", {"p_values": (Fraction(1, 2),)}),
                ("regular", "spectral", {"k_values": (3,)}),
                ("gnm", "strong_boundary", {"m_values": (12,)})):
            tiny = harness.ExperimentConfig(model=model, n_values=(8,), seeds=1,
                                            master_seed=1, bounds=(bound,), **param)
            harness.emit(harness.run_experiment(tiny).rows, "csv")

    def run_round(self, between=_nothing) -> Round:
        out = Round()
        clock = time.perf_counter_ns
        stamps: list[int] = []
        drawn = harness.sample

        def stamped(spec):
            # One timestamp per graph: the time between two draws is the
            # time the previous graph took, bounds and row included.
            stamps.append(clock())
            return drawn(spec)

        harness.sample = stamped
        try:
            for config in self.configs:
                between()
                planned = len(config.n_values) * len(config.parameter_values()) * config.seeds
                out.attempted += planned
                stamps.clear()
                result = harness.run_experiment(config)
                stamps.append(clock())
                csv = harness.emit(result.rows, "csv")
                out.times_ns.extend(b - a for a, b in zip(stamps, stamps[1:]))
                for row in result.rows:
                    if row.value == "na:budget_exceeded":
                        out.failed.add(checks.row_label(config, row))
                drawn_count = len(result.rows) // len(config.bounds)
                out.failed.update(f"{config.model} graph {i} not drawn"
                                  for i in range(drawn_count, planned))
                out.text.append(csv)
                out.results.append((config, result))
        finally:
            harness.sample = drawn
        return out

    def check(self, results, seed: int) -> list[checks.Problem]:
        return checks.check_sweep(results, seed)

    def best_ceiling_sum(self, results) -> int:
        return sum(row.ceiling or 0 for _, result in results for row in result.rows)


WORKLOADS = {cls.name: cls for cls in (BoundAll, ExactOracle, Sweep)}
