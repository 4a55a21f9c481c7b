"""Experiment harness: bound selection over a sampled grid, with
deterministic seeding and byte-stable result emission.

A config names one random model, a list of n values, a list of values
for the model's own parameter (p, m, or k), a seed count per grid cell,
and the bounds to evaluate.  Every sample's stream seed is derived from
the master seed and the sample's global position in grid order, so a
run is reproducible row by row and cell aborts cannot shift the seeds
of later cells.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

from .errors import BudgetExceededError
from .expansion_bounds import (
    EXPANSION,
    UNIVERSAL,
    best_expansion_bound,
    universal_bound,
)
from .families import PARAMETERS, RANDOM_MODELS, RandomModelSpec, sample
from .graphs import BipartiteGraph, Graph
from .reports import BoundReport, not_applicable
from .rng import derive_seed
from .spectral import SPECTRAL, spectral_bound
from .supergraph_bounds import (
    DEGREE_RATIO,
    FAMILY,
    MIN_SUPERGRAPH,
    STRONG_BOUNDARY,
    degree_ratio_bound,
    detect_family_bound,
    min_supergraph_bound,
    strong_boundary_bound,
)
from .tables import GraphTables, tables_of

# The one place a bound is added.  Keys are the bound modules' own name
# constants in CSV row order.  Each entry takes the graph's tables, which
# run_bounds builds once per graph.  The lambdas look the functions up in
# this module's globals at call time, so a wrapper installed over a global
# (as a tracer does) is called too.
BOUNDS = {
    MIN_SUPERGRAPH: lambda tables, t_max: min_supergraph_bound(tables),
    STRONG_BOUNDARY: lambda tables, t_max: strong_boundary_bound(tables),
    FAMILY: lambda tables, t_max: detect_family_bound(tables),
    DEGREE_RATIO: lambda tables, t_max: degree_ratio_bound(tables),
    UNIVERSAL: lambda tables, t_max: universal_bound(tables),
    SPECTRAL: lambda tables, t_max: spectral_bound(tables.graph),
    EXPANSION: lambda tables, t_max: best_expansion_bound(tables, t_max=t_max),
}
ALL_BOUNDS = tuple(BOUNDS)


def _select_bounds(selection) -> tuple[str, ...]:
    """Expand ["all"]; reject unknown and duplicate names."""
    tokens = tuple(selection)
    if tokens == ("all",):
        return ALL_BOUNDS
    for tok in tokens:
        if tok not in BOUNDS:
            raise ValueError(f"unknown bound {tok!r}")
    if len(set(tokens)) != len(tokens):
        raise ValueError("duplicate bound selection")
    return tokens


def _check_t_max(t_max: int) -> None:
    if t_max < 1:
        raise ValueError(f"t_max must be at least 1, got {t_max}")


def run_bounds(g: Graph | GraphTables, selection, t_max: int = 2) -> list[BoundReport]:
    """Evaluate the selected bounds, one report each, never skipping.

    A bound that runs out of budget is reported inapplicable with
    reason "budget_exceeded" rather than raising.  t_max below 1 is a
    bad argument whichever bounds are selected.  The bounds share one
    GraphTables (g's own, when g already holds tables), so each
    per-graph table is built once.
    """
    _check_t_max(t_max)
    tables = tables_of(g)
    reports = []
    for tok in _select_bounds(selection):
        try:
            rep = BOUNDS[tok](tables, t_max)
        except BudgetExceededError:
            rep = not_applicable(tok, "budget_exceeded")
        reports.append(rep)
    return reports


@dataclass(frozen=True)
class ResultRow:
    """One evaluated bound on one sample, as it will be serialized."""

    seed: int
    model: str
    n: int
    m: int
    param: str
    bound_name: str
    value: str
    ceiling: int | None
    runtime_ms: int

    def csv_line(self) -> str:
        return ",".join(["" if v is None else str(v) for v in _row_values(self)])

    def json_object(self) -> dict:
        return dict(zip(_ROW_FIELDS, _row_values(self)))


# The CSV columns and JSON keys, in field order.
_ROW_FIELDS = tuple(f.name for f in fields(ResultRow))
_row_values = attrgetter(*_ROW_FIELDS)
CSV_HEADER = ",".join(_ROW_FIELDS)


def _value_text(report: BoundReport) -> str:
    if not report.applicable:
        return f"na:{report.reason}"
    v = report.value
    return f"{v.numerator}/{v.denominator}"


def rows_from_reports(reports, *, seed: int, model: str, n: int, m: int,
                      param: str, runtimes=None) -> list[ResultRow]:
    rows = []
    for i, rep in enumerate(reports):
        rows.append(ResultRow(
            seed=seed,
            model=model,
            n=n,
            m=m,
            param=param,
            bound_name=rep.name,
            value=_value_text(rep),
            ceiling=rep.ceiling if rep.applicable else None,
            runtime_ms=0 if runtimes is None else runtimes[i],
        ))
    return rows


@dataclass(frozen=True)
class ExperimentConfig:
    """A full sweep: the grid is n_values crossed with the model's own
    parameter list, and each cell draws `seeds` independent samples."""

    model: str
    n_values: tuple[int, ...]
    seeds: int
    master_seed: int
    bounds: tuple[str, ...]
    p_values: tuple[Fraction, ...] = ()
    m_values: tuple[int, ...] = ()
    k_values: tuple[int, ...] = ()
    fmt: str = "csv"
    out: str | None = None
    t_max: int = 2
    record_runtime: bool = False

    def __post_init__(self) -> None:
        if self.model not in RANDOM_MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        if not self.n_values:
            raise ValueError("need at least one n value")
        if self.seeds < 1:
            raise ValueError("seeds must be at least 1")
        if not self.bounds:
            raise ValueError("need at least one bound")
        object.__setattr__(self, "bounds", _select_bounds(self.bounds))
        if self.fmt not in ("csv", "json"):
            raise ValueError("format must be csv or json")
        _check_t_max(self.t_max)
        wanted = RANDOM_MODELS[self.model].parameter
        for name in PARAMETERS:
            if (name == wanted) != bool(getattr(self, f"{name}_values")):
                raise ValueError(
                    f"the {self.model} model takes a {wanted} list and no other")

    def parameter_values(self) -> tuple:
        return getattr(self, f"{RANDOM_MODELS[self.model].parameter}_values")

    def cell_specs(self):
        """Grid cells in emission order: n outer, model parameter inner."""
        name = RANDOM_MODELS[self.model].parameter
        for n in self.n_values:
            for value in self.parameter_values():
                yield n, str(value), {name: value}


def parse_fraction(text: str) -> Fraction:
    """Exact rational from text such as '1/2'; ValueError when malformed."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


_CONFIG_KEYS = ("model", "n", "p", "m", "k", "seeds", "master_seed",
                "bounds", "format", "out", "t_max", "record_runtime")
_FLAG_VALUES = {"0": False, "false": False, "no": False,
                "1": True, "true": True, "yes": True}


def parse_config(text: str) -> ExperimentConfig:
    """Flat key=value lines; '#' starts a comment; lists are comma-separated."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    for required in ("model", "n", "seeds", "master_seed", "bounds"):
        if required not in raw:
            raise ValueError(f"config is missing {required!r}")

    def int_list(text: str) -> tuple[int, ...]:
        return tuple(int(tok.strip()) for tok in text.split(","))

    flag = raw.get("record_runtime", "0")
    if flag not in _FLAG_VALUES:
        raise ValueError(f"record_runtime must be one of {'/'.join(_FLAG_VALUES)}, got {flag!r}")

    return ExperimentConfig(
        model=raw["model"],
        n_values=int_list(raw["n"]),
        seeds=int(raw["seeds"]),
        master_seed=int(raw["master_seed"]),
        bounds=tuple(tok.strip() for tok in raw["bounds"].split(",")),
        p_values=tuple(parse_fraction(tok) for tok in raw["p"].split(","))
        if "p" in raw else (),
        m_values=int_list(raw["m"]) if "m" in raw else (),
        k_values=int_list(raw["k"]) if "k" in raw else (),
        fmt=raw.get("format", "csv"),
        out=raw.get("out"),
        t_max=int(raw.get("t_max", "2")),
        record_runtime=_FLAG_VALUES[flag],
    )


class CellSummary(NamedTuple):
    """Per-cell means over the samples where each bound applied."""

    model: str
    n: int
    param: str
    samples: int
    aborted: bool
    mean_values: dict
    mean_ceilings: dict


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[ResultRow, ...]
    cells: tuple[CellSummary, ...]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Sample every grid cell and evaluate the selected bounds.

    Each sample's seed is derive_seed(master_seed, global sample index)
    where the index walks the grid in emission order; aborted cells
    still consume their index range.  A BudgetExceededError while
    sampling aborts the cell; one while bounding only marks that row.
    The bounds of one sample share its GraphTables, and each bound's
    runtime is the time it took on them, after the bounds before it.
    """
    rows: list[ResultRow] = []
    cells: list[CellSummary] = []
    cell_start = 0
    for n, param_text, kwargs in config.cell_specs():
        sums = {tok: Fraction(0) for tok in config.bounds}
        ceil_sums = {tok: 0 for tok in config.bounds}
        counts = {tok: 0 for tok in config.bounds}
        aborted = False
        for seed_index in range(config.seeds):
            seed = derive_seed(config.master_seed, cell_start + seed_index)
            spec = RandomModelSpec(model=config.model, n=n, seed=seed, **kwargs)
            try:
                drawn = sample(spec)
            except BudgetExceededError:
                aborted = True
                break
            g = drawn.to_graph() if isinstance(drawn, BipartiteGraph) else drawn
            tables = GraphTables(g)
            runtimes = []
            reports = []
            for tok in config.bounds:
                start = time.perf_counter_ns()
                rep = run_bounds(tables, [tok], t_max=config.t_max)[0]
                elapsed = (time.perf_counter_ns() - start) // 1_000_000
                reports.append(rep)
                runtimes.append(int(elapsed) if config.record_runtime else 0)
            rows.extend(rows_from_reports(
                reports, seed=seed, model=config.model, n=n,
                m=g.edge_count, param=param_text, runtimes=runtimes))
            for tok, rep in zip(config.bounds, reports):
                if rep.applicable:
                    sums[tok] += rep.value
                    ceil_sums[tok] += rep.ceiling
                    counts[tok] += 1
        mean_values = {
            tok: (sums[tok] / counts[tok] if counts[tok] else None)
            for tok in config.bounds}
        mean_ceilings = {
            tok: (Fraction(ceil_sums[tok], counts[tok]) if counts[tok] else None)
            for tok in config.bounds}
        cells.append(CellSummary(
            model=config.model, n=n, param=param_text, samples=config.seeds,
            aborted=aborted, mean_values=mean_values,
            mean_ceilings=mean_ceilings))
        cell_start += config.seeds
    return ExperimentResult(rows=tuple(rows), cells=tuple(cells))


def emit(rows, fmt: str) -> str:
    """Serialize rows; CSV keeps the exact fixed header, JSON mirrors
    the row field names.  Row order is the caller's (grid order)."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines.extend(row.csv_line() for row in rows)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps([row.json_object() for row in rows], indent=2) + "\n"
    raise ValueError("format must be csv or json")


def format_summary(cells) -> str:
    lines = []
    for cell in cells:
        for tok, mean in cell.mean_values.items():
            mc = cell.mean_ceilings[tok]
            lines.append(
                f"model={cell.model} n={cell.n} param={cell.param} "
                f"bound={tok} samples={cell.samples} "
                f"aborted={int(cell.aborted)} "
                f"mean_value={mean if mean is not None else 'na'} "
                f"mean_ceiling={mc if mc is not None else 'na'}")
    return "\n".join(lines) + "\n" if lines else ""


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
