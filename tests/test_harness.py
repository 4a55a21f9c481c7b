"""Edge-list serialization, bound selection, the sweep harness, and the
command-line surface."""

import inspect
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from boxkit import cli, harness, intervals, isoperimetry
from boxkit.cli import main
from boxkit.edgelist import (
    format_edge_list,
    parse_edge_list,
    read_edge_list,
    write_edge_list,
)
from boxkit.errors import PROFILE_MAX_VERTICES
from boxkit.expansion_bounds import DEFAULT_T_MAX, best_expansion_bound
from boxkit.families import (
    MODELS,
    RANDOM_MODELS,
    RandomModelSpec,
    complement_cycle,
    complete_multipartite,
    enumerate_graphs,
    sample,
)
from boxkit.graphs import Graph, complement, complete_graph, cycle, empty_graph
from boxkit.harness import (
    ALL_BOUNDS,
    BOUNDS,
    CSV_HEADER,
    ExperimentConfig,
    emit,
    format_summary,
    parse_config,
    rows_from_reports,
    run_bounds,
    run_experiment,
)
from boxkit.rng import derive_seed

C4_TEXT = "4 4\n0 1\n1 2\n2 3\n3 0\n"


# --- edge lists ---------------------------------------------------------------

def test_parse_edge_list_example():
    assert parse_edge_list(C4_TEXT).rows == cycle(4).rows


def test_parse_edge_list_comments_and_blanks():
    text = "# a four-path\n4 3\n\n0 1\n# middle\n1 2\n2 3\n"
    g = parse_edge_list(text)
    assert g.n == 4 and g.edge_count == 3


@pytest.mark.parametrize("text", [
    "",
    "# only a comment\n",
    "4\n",
    "a b\n",
    "4 2\n0 1\n",
    "4 1\n0 1 2\n",
    "2 1\n0 0\n",
    "2 1\n0 5\n",
    "3 2\n0 1\n1 0\n",
])
def test_parse_edge_list_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_format_edge_list_is_lexicographic():
    assert format_edge_list(cycle(3)) == "3 3\n0 1\n0 2\n1 2\n"
    assert format_edge_list(empty_graph(2)) == "2 0\n"


def test_edge_list_round_trip_on_enumeration():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            assert parse_edge_list(format_edge_list(g)).rows == g.rows


def test_edge_list_file_round_trip(tmp_path):
    g = sample(RandomModelSpec("gnp", 10, 9, p=Fraction(1, 3)))
    path = str(tmp_path / "g.edges")
    write_edge_list(g, path)
    assert read_edge_list(path).rows == g.rows


# --- bound selection -----------------------------------------------------------

def test_run_bounds_all_on_four_cycle():
    reports = run_bounds(cycle(4), ["all"])
    assert [r.name for r in reports] == list(ALL_BOUNDS)
    by_name = {r.name: r for r in reports}
    assert by_name["min_supergraph"].value == Fraction(2)
    assert by_name["strong_boundary"].value == Fraction(2)
    assert by_name["family"].value == Fraction(1)
    assert by_name["degree_ratio"].value == Fraction(2)
    assert by_name["universal"].value == Fraction(2)
    assert by_name["spectral"].ceiling == 1
    assert abs(float(by_name["spectral"].value) - 0.1803) <= 1e-3
    assert by_name["expansion"].value == Fraction(2)


def test_run_bounds_complete_graph_all_inapplicable():
    for report in run_bounds(complete_graph(5), ["all"]):
        assert not report.applicable


def test_run_bounds_subset_selection():
    reports = run_bounds(complement_cycle(9), ["strong_boundary", "family"])
    assert [r.value for r in reports] == [Fraction(3), Fraction(3)]


def test_run_bounds_selection_validation():
    with pytest.raises(ValueError):
        run_bounds(cycle(4), ["nonsense"])
    with pytest.raises(ValueError):
        run_bounds(cycle(4), ["spectral", "spectral"])
    with pytest.raises(ValueError):
        run_bounds(cycle(4), ["all", "spectral"])


@pytest.mark.parametrize("g", [cycle(4), complete_graph(5)], ids=["C4", "K5"])
@pytest.mark.parametrize("name", ALL_BOUNDS)
def test_every_registered_bound_reports_under_its_own_name(name, g):
    assert run_bounds(g, [name])[0].name == name


def test_registry_is_the_bound_list():
    assert ALL_BOUNDS == tuple(BOUNDS) == (
        "min_supergraph", "strong_boundary", "family", "degree_ratio",
        "universal", "spectral", "expansion")


def test_readme_bound_table_is_the_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("| name | idea | typical certificate |")
    table = readme[start:readme.index("\n\n", start)].splitlines()[2:]
    assert [re.match(r"\| `(\w+)` \|", row).group(1) for row in table] == list(ALL_BOUNDS)


def test_readme_model_table_is_the_registry():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("| model | key | graph drawn |")
    table = readme[start:readme.index("\n\n", start)].splitlines()[2:]
    rows = [re.match(r"\| `(\w+)` \| `(\w)` \|", row).groups() for row in table]
    assert rows == [(name, model.parameter) for name, model in RANDOM_MODELS.items()]


def _closed_rows(g):
    return [row | 1 << v for v, row in enumerate(g.rows)]


def test_family_reuses_the_strong_boundary_profile(monkeypatch):
    builds = []
    real = isoperimetry._half_tables

    def counted(rows):
        builds.append(list(rows))
        return real(rows)

    monkeypatch.setattr(isoperimetry, "_half_tables", counted)
    g = complement_cycle(9)
    reports = run_bounds(g, ["strong_boundary", "family"])
    assert reports[1].certificate["generic_value"] == reports[0].value
    # one profile sweep builds the half tables of g's closed rows, and
    # family reads that sweep's unions
    assert builds == [_closed_rows(g)]


def test_all_bounds_build_no_complement_subset_tables(monkeypatch):
    builds, scans = [], []
    real_half, real_scan = isoperimetry._half_tables, isoperimetry._least_unions

    def counted(rows):
        builds.append(list(rows))
        return real_half(rows)

    def scanned(rows, sizes, halves):
        scans.append((list(rows), sizes))
        return real_scan(rows, sizes, halves)

    monkeypatch.setattr(isoperimetry, "_half_tables", counted)
    monkeypatch.setattr(intervals, "_half_tables", counted)
    monkeypatch.setattr(isoperimetry, "_least_unions", scanned)
    for g in (complement_cycle(9), cycle(10), complement_cycle(9)):
        builds.clear()
        scans.clear()
        run_bounds(g, ["all"])
        # the supergraph DP builds the half tables of g's closed
        # neighbourhoods and folds their least unions, which the strong
        # boundary and family bounds read; nothing builds or scans the
        # complement's.  The expansion bound's rows are others, one size
        # at a time.
        closed, co_closed = _closed_rows(g), _closed_rows(complement(g))
        assert builds.count(closed) == 1 and builds[0] == closed
        assert co_closed not in builds
        assert all(len(sizes) == 1 for rows, sizes in scans)
        assert all(rows not in (closed, co_closed) for rows, sizes in scans)


def _record_subset_tables(monkeypatch, module):
    """Record the entry count of every subset table built: the half
    layouts' mask tables and the half OR tables that module builds."""
    sizes = []
    real_layers = isoperimetry._layers
    real_half = isoperimetry._half_tables

    def layers(n):
        sizes.append(1 << n)
        return real_layers(n)

    def half(rows):
        tables = real_half(rows)
        sizes.extend(len(table) for table in tables)
        return tables

    monkeypatch.setattr(isoperimetry, "_layers", layers)
    monkeypatch.setattr(module, "_half_tables", half)
    isoperimetry._half_layout.cache_clear()
    return sizes


def test_min_supergraph_builds_no_full_subset_table(monkeypatch):
    # above PROFILE_MAX_VERTICES // 2 vertices the halves split n // 2
    sizes = _record_subset_tables(monkeypatch, intervals)
    for g in (complement_cycle(15), cycle(16)):
        sizes.clear()
        run_bounds(g, ["min_supergraph"])
        # the two half layouts and the two half union tables
        assert sizes and max(sizes) <= 1 << (g.n + 1) // 2


def test_profile_builds_no_full_subset_table(monkeypatch):
    sizes = _record_subset_tables(monkeypatch, isoperimetry)
    for g in (complement_cycle(15), cycle(16)):
        sizes.clear()
        run_bounds(g, ["strong_boundary", "family"])
        # the half layouts and the half tables of the two unions
        assert sizes and max(sizes) <= 1 << (g.n + 1) // 2


@pytest.mark.parametrize("module,methods", [
    (intervals, ["min_supergraph"]),
    (isoperimetry, ["strong_boundary", "family"]),
], ids=["min_supergraph", "profile"])
def test_one_layer_tables_stay_within_one_half_layout(monkeypatch, module, methods):
    # up to PROFILE_MAX_VERTICES // 2 vertices the low half is every
    # vertex, so a table spans all 2^n subsets, but never more than one
    # half does at the profile's vertex cap
    sizes = _record_subset_tables(monkeypatch, module)
    for g in (complement_cycle(9), cycle(10), cycle(PROFILE_MAX_VERTICES // 2)):
        sizes.clear()
        run_bounds(g, methods)
        assert sizes and max(sizes) == 1 << g.n <= 1 << PROFILE_MAX_VERTICES // 2


def test_run_bounds_budget_becomes_inapplicable_row():
    reports = run_bounds(empty_graph(30), ["min_supergraph", "strong_boundary"])
    assert all(r.reason == "budget_exceeded" for r in reports)
    rows = rows_from_reports(reports, seed=0, model="input", n=30, m=0, param="")
    assert all(row.value == "na:budget_exceeded" for row in rows)
    assert all(row.ceiling is None for row in rows)


# --- emission -------------------------------------------------------------------

def test_emit_csv_shapes():
    assert emit([], "csv") == CSV_HEADER + "\n"
    reports = run_bounds(cycle(4), ["min_supergraph"])
    rows = rows_from_reports(reports, seed=7, model="input", n=4, m=4, param="")
    text = emit(rows, "csv")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "7,input,4,4,,min_supergraph,2/1,2,0"
    assert text.endswith("\n")


def test_emit_csv_inapplicable_row_has_empty_ceiling():
    reports = run_bounds(complete_graph(3), ["spectral"])
    rows = rows_from_reports(reports, seed=1, model="input", n=3, m=3, param="")
    line = emit(rows, "csv").splitlines()[1]
    assert line == "1,input,3,3,,spectral,na:complete_graph,,0"


def test_emit_json_mirrors_fields():
    reports = run_bounds(cycle(4), ["universal", "spectral"])
    rows = rows_from_reports(reports, seed=3, model="input", n=4, m=4, param="x")
    data = json.loads(emit(rows, "json"))
    assert len(data) == 2
    assert data[0] == {
        "seed": 3, "model": "input", "n": 4, "m": 4, "param": "x",
        "bound_name": "universal", "value": "2/1", "ceiling": 2,
        "runtime_ms": 0,
    }
    assert data[1]["bound_name"] == "spectral"
    with pytest.raises(ValueError):
        emit(rows, "xml")


# --- config parsing --------------------------------------------------------------

GOOD_CONFIG = """\
# a small sweep
model=gnp
n=6,8
p=1/4,1/2
seeds=3
master_seed=42
bounds=strong_boundary,universal
"""


def test_parse_config_round_trip():
    config = parse_config(GOOD_CONFIG)
    assert config.model == "gnp"
    assert config.n_values == (6, 8)
    assert config.p_values == (Fraction(1, 4), Fraction(1, 2))
    assert config.seeds == 3
    assert config.master_seed == 42
    assert config.bounds == ("strong_boundary", "universal")
    assert config.fmt == "csv" and config.out is None
    assert config.t_max == 2 and config.record_runtime is False


def test_t_max_has_one_default_and_one_check():
    assert DEFAULT_T_MAX == 2
    for fn in (run_bounds, best_expansion_bound, ExperimentConfig):
        assert inspect.signature(fn).parameters["t_max"].default == DEFAULT_T_MAX
    assert parse_config(GOOD_CONFIG).t_max == DEFAULT_T_MAX
    args = cli._build_parser().parse_args(["bound", "--input", "g.edges"])
    assert args.t_max == DEFAULT_T_MAX
    bad = (lambda: best_expansion_bound(cycle(4), t_max=0),
           lambda: run_bounds(cycle(4), ["universal"], t_max=0),
           lambda: parse_config(GOOD_CONFIG + "t_max=0\n"))
    for call in bad:
        with pytest.raises(ValueError, match=r"^t_max must be at least 1, got 0$"):
            call()


def test_parse_config_bounds_all_and_flags():
    text = ("model=gnm\nn=8\nm=10,12\nseeds=1\nmaster_seed=0\n"
            "bounds=all\nformat=json\nout=r.json\nt_max=1\nrecord_runtime=yes\n")
    config = parse_config(text)
    assert config.bounds == ALL_BOUNDS
    assert config.fmt == "json" and config.out == "r.json"
    assert config.t_max == 1 and config.record_runtime is True


@pytest.mark.parametrize("text", [
    "n=6\nseeds=1\nmaster_seed=0\nbounds=universal\n",
    GOOD_CONFIG + "mystery=1\n",
    GOOD_CONFIG + "model=gnm\n",
    GOOD_CONFIG.replace("model=gnp", "just some text"),
    GOOD_CONFIG.replace("p=1/4,1/2", "m=3"),
    GOOD_CONFIG.replace("bounds=strong_boundary,universal", "bounds=magic"),
    GOOD_CONFIG + "format=xml\n",
    GOOD_CONFIG.replace("seeds=3", "seeds=0"),
])
def test_parse_config_rejections(text):
    with pytest.raises(ValueError):
        parse_config(text)


@pytest.mark.parametrize("flag, value", [
    ("0", False), ("false", False), ("no", False),
    ("1", True), ("true", True), ("yes", True),
])
def test_parse_config_record_runtime_flags(flag, value):
    assert parse_config(GOOD_CONFIG + f"record_runtime={flag}\n").record_runtime is value


def test_experiment_config_selection_matches_run_bounds():
    common = {"model": "gnp", "n_values": (6,), "seeds": 1, "master_seed": 0,
              "p_values": (Fraction(1, 2),)}
    assert ExperimentConfig(bounds=("all",), **common).bounds == ALL_BOUNDS
    assert ExperimentConfig(bounds=["universal"], **common).bounds == ("universal",)
    with pytest.raises(ValueError, match="duplicate bound selection"):
        ExperimentConfig(bounds=("universal", "universal"), **common)
    with pytest.raises(ValueError, match="unknown bound"):
        ExperimentConfig(bounds=("all", "universal"), **common)


def test_experiment_config_parameter_exclusivity():
    with pytest.raises(ValueError):
        ExperimentConfig(model="gnp", n_values=(6,), seeds=1, master_seed=0,
                         bounds=("universal",))
    with pytest.raises(ValueError):
        ExperimentConfig(model="regular", n_values=(6,), seeds=1, master_seed=0,
                         bounds=("universal",), p_values=(Fraction(1, 2),))


# The parameter list each model reads, spelled out apart from the registry.
MODEL_LISTS = {"gnp": "p_values", "gnm": "m_values", "regular": "k_values",
               "bipartite_gnp": "p_values", "bipartite_gnm": "m_values"}


@pytest.mark.parametrize("model", MODELS)
def test_experiment_config_takes_exactly_the_models_list(model):
    assert tuple(MODEL_LISTS) == MODELS
    lists = {"p_values": (Fraction(1, 2),), "m_values": (4,), "k_values": (2,)}
    own = MODEL_LISTS[model]
    common = dict(model=model, n_values=(6,), seeds=1, master_seed=0,
                  bounds=("universal",))
    config = ExperimentConfig(**common, **{own: lists[own]})
    assert config.parameter_values() == lists[own]
    assert [kwargs for _, _, kwargs in config.cell_specs()] == [{own[0]: lists[own][0]}]
    with pytest.raises(ValueError):
        ExperimentConfig(**common)
    for other in sorted(lists.keys() - {own}):
        with pytest.raises(ValueError):
            ExperimentConfig(**common, **{own: lists[own], other: lists[other]})


# --- running experiments -----------------------------------------------------------

def test_run_experiment_is_reproducible():
    config = parse_config(GOOD_CONFIG)
    first = run_experiment(config)
    second = run_experiment(config)
    assert emit(first.rows, "csv") == emit(second.rows, "csv")
    assert first.cells == second.cells


def test_run_experiment_row_grid():
    config = parse_config(GOOD_CONFIG)
    result = run_experiment(config)
    # 2 n-values x 2 p-values x 3 seeds x 2 bounds
    assert len(result.rows) == 24
    assert len(result.cells) == 4
    # seeds are derived from the global sample index in grid order
    for index, row_block in enumerate(range(0, 24, 2)):
        row = result.rows[row_block]
        assert row.seed == derive_seed(42, index)
        spec = RandomModelSpec("gnp", row.n, row.seed, p=Fraction(row.param))
        assert sample(spec).edge_count == row.m


def test_run_experiment_cell_means_match_rows():
    config = parse_config(GOOD_CONFIG)
    result = run_experiment(config)
    for cell in result.cells:
        for tok in config.bounds:
            values = []
            for row in result.rows:
                if (row.n == cell.n and row.param == cell.param
                        and row.bound_name == tok
                        and not row.value.startswith("na:")):
                    values.append(Fraction(row.value))
            if values:
                assert cell.mean_values[tok] == sum(values) / len(values)
            else:
                assert cell.mean_values[tok] is None


def test_run_experiment_shares_each_samples_tables(monkeypatch):
    # family reads the strong_boundary profile of its own sample, so one
    # scan over all sizes runs per sample, of its closed rows, and the
    # rows are those of each bound run alone
    config = ExperimentConfig(model="regular", n_values=(12,), k_values=(9,), seeds=5,
                              master_seed=3, bounds=("strong_boundary", "family"))
    scans = []
    real = isoperimetry._least_unions

    def counted(rows, sizes, halves):
        scans.append((rows, sizes))
        return real(rows, sizes, halves)

    monkeypatch.setattr(isoperimetry, "_least_unions", counted)
    result = run_experiment(config)
    assert len(scans) == config.seeds
    assert all(sizes == range(1, 12) for _, sizes in scans)
    assert any(row.bound_name == "family" and not row.value.startswith("na:")
               for row in result.rows)
    monkeypatch.undo()
    for i, (rows, _) in enumerate(scans):
        g = Graph(len(rows), tuple(row & ~(1 << v) for v, row in enumerate(rows)))
        pair = result.rows[2 * i:2 * i + 2]
        alone = [run_bounds(g, [tok])[0] for tok in config.bounds]
        assert pair == tuple(rows_from_reports(alone, seed=pair[0].seed, model="regular",
                                               n=12, m=g.edge_count, param="9"))


def test_format_summary_lines():
    config = parse_config(GOOD_CONFIG)
    result = run_experiment(config)
    text = format_summary(result.cells)
    lines = text.splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("model=gnp n=6 param=1/4 bound=strong_boundary ")
    assert "mean_value=" in lines[0] and "mean_ceiling=" in lines[0]
    assert format_summary([]) == ""


# --- the command line ---------------------------------------------------------------

def _write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def test_cli_bound(tmp_path, capsys):
    graph_file = _write(tmp_path / "c4.edges", C4_TEXT)
    assert main(["bound", "--input", graph_file]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(ALL_BOUNDS)
    assert any(",min_supergraph,2/1,2," in line for line in lines)


def test_cli_bound_json_subset(tmp_path, capsys):
    graph_file = _write(tmp_path / "c4.edges", C4_TEXT)
    code = main(["bound", "--input", graph_file,
                 "--methods", "universal", "--format", "json"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 1 and data[0]["value"] == "2/1"


def test_cli_bound_bad_method(tmp_path, capsys):
    graph_file = _write(tmp_path / "c4.edges", C4_TEXT)
    assert main(["bound", "--input", graph_file, "--methods", "magic"]) == 2


def test_cli_exact(tmp_path, capsys):
    graph_file = _write(tmp_path / "c4.edges", C4_TEXT)
    assert main(["exact", "--input", graph_file]) == 0
    out = capsys.readouterr().out
    assert "boxicity=2" in out
    assert "certificate_verified=1" in out


def test_cli_exact_unverified_certificate_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_box_certificate", lambda g, cert: False)
    graph_file = _write(tmp_path / "c4.edges", C4_TEXT)
    assert main(["exact", "--input", graph_file]) == 2
    captured = capsys.readouterr()
    assert captured.out.endswith("boxicity=2\ncertificate_verified=0\n")
    assert captured.err == "error: the boxicity certificate failed verification\n"


def test_cli_exact_budget_exit_code(tmp_path, capsys):
    text = format_edge_list(cycle(10))
    graph_file = _write(tmp_path / "c10.edges", text)
    assert main(["exact", "--input", graph_file]) == 3


def test_cli_exact_search_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(intervals, "BOX_SEARCH_NODE_BUDGET", 3)
    text = format_edge_list(complete_multipartite(2, 4))
    graph_file = _write(tmp_path / "k2222.edges", text)
    assert main(["exact", "--input", graph_file]) == 3
    captured = capsys.readouterr()
    assert captured.err == "budget exceeded: boxicity search node budget exhausted\n"
    assert "Traceback" not in captured.err


def test_cli_exact_negative_max_k_is_bad_input(tmp_path, capsys):
    graph_file = _write(tmp_path / "c4.edges", C4_TEXT)
    assert main(["exact", "--input", graph_file, "--max-k", "-1"]) == 2
    assert capsys.readouterr().err == "error: max_k must be nonnegative, got -1\n"


def test_cli_missing_input_file(tmp_path, capsys):
    assert main(["exact", "--input", str(tmp_path / "absent.edges")]) == 2


def test_cli_gen_is_deterministic(tmp_path):
    first = str(tmp_path / "a.edges")
    second = str(tmp_path / "b.edges")
    argv = ["gen", "--model", "gnp", "--n", "8", "--p", "1/2", "--seed", "5"]
    assert main(argv + ["--out", first]) == 0
    assert main(argv + ["--out", second]) == 0
    assert open(first).read() == open(second).read()
    assert read_edge_list(first).n == 8


def test_cli_gen_bipartite_writes_plain_graph(tmp_path):
    out = str(tmp_path / "b.edges")
    code = main(["gen", "--model", "bipartite_gnm", "--n", "8",
                 "--m", "5", "--seed", "1", "--out", out])
    assert code == 0
    g = read_edge_list(out)
    assert g.n == 8 and g.edge_count == 5


def test_cli_gen_missing_parameter(tmp_path, capsys):
    out = str(tmp_path / "x.edges")
    code = main(["gen", "--model", "gnp", "--n", "8", "--seed", "1",
                 "--out", out])
    assert code == 2


def test_cli_construct(tmp_path, capsys):
    out = str(tmp_path / "co.edges")
    code = main(["construct", "--family", "cobipartite", "--k", "2",
                 "--l", "2", "--verify", "--out", out])
    assert code == 0
    line = capsys.readouterr().out
    assert "claimed_lower=2" in line
    assert "claimed_upper=2" in line
    assert "verified=1" in line
    assert read_edge_list(out).n == 8


def test_cli_construct_bipartite(capsys):
    code = main(["construct", "--family", "bipartite", "--k", "2", "--l", "2",
                 "--verify"])
    assert code == 0
    line = capsys.readouterr().out
    assert "claimed_lower=1" in line and "claimed_upper=4" in line


def test_cli_construct_bad_parameters(capsys):
    assert main(["construct", "--family", "bipartite", "--k", "0", "--l", "2"]) == 2


def test_cli_spectrum(tmp_path, capsys):
    graph_file = _write(tmp_path / "c4.edges", C4_TEXT)
    assert main(["spectrum", "--input", graph_file]) == 0
    out = capsys.readouterr().out
    assert "n=4" in out and "eigenvalues=" in out and "residual=" in out
    assert "degree=2" in out


def test_cli_experiment(tmp_path, capsys):
    config_file = _write(tmp_path / "sweep.cfg", GOOD_CONFIG)
    out = str(tmp_path / "rows.csv")
    assert main(["experiment", "--config", config_file, "--out", out]) == 0
    summary = capsys.readouterr().out
    assert "mean_value=" in summary
    with open(out) as fh:
        assert fh.readline().strip() == CSV_HEADER


def test_cli_experiment_needs_out(tmp_path, capsys):
    config_file = _write(tmp_path / "sweep.cfg", GOOD_CONFIG)
    assert main(["experiment", "--config", config_file]) == 2


@pytest.mark.parametrize("p", ["1/0", "abc"])
def test_cli_gen_bad_probability(tmp_path, capsys, p):
    out = tmp_path / "x.edges"
    code = main(["gen", "--model", "gnp", "--n", "8", "--p", p, "--seed", "1",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_experiment_zero_denominator(tmp_path, capsys):
    config_file = _write(tmp_path / "sweep.cfg",
                         GOOD_CONFIG.replace("p=1/4,1/2", "p=1/4,1/0"))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", config_file, "--out", str(out)]) == 2
    assert "zero denominator" in capsys.readouterr().err
    assert not out.exists()


def test_cli_experiment_duplicate_bounds(tmp_path, capsys):
    config_file = _write(tmp_path / "sweep.cfg", GOOD_CONFIG.replace(
        "bounds=strong_boundary,universal", "bounds=degree_ratio,degree_ratio"))
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", config_file, "--out", str(out)]) == 2
    assert "duplicate bound selection" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bounds", ["degree_ratio", "expansion"])
@pytest.mark.parametrize("line, message", [
    ("t_max=0", "t_max must be at least 1, got 0"),
    ("t_max=-3", "t_max must be at least 1, got -3"),
    ("record_runtime=maybe", "record_runtime must be one of 0/false/no/1/true/yes, got 'maybe'"),
    ("record_runtime=Yes", "got 'Yes'"),
])
def test_cli_experiment_rejects_bad_settings_before_sampling(tmp_path, capsys, monkeypatch,
                                                             bounds, line, message):
    def no_sampling(spec):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(harness, "sample", no_sampling)
    config_file = _write(tmp_path / "sweep.cfg", GOOD_CONFIG.replace(
        "bounds=strong_boundary,universal", f"bounds={bounds}") + line + "\n")
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", config_file, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods", ["degree_ratio", "expansion", "all"])
@pytest.mark.parametrize("t_max", ["0", "-1"])
def test_cli_bound_rejects_t_max_below_one(tmp_path, capsys, methods, t_max):
    graph_file = _write(tmp_path / "c4.edges", C4_TEXT)
    code = main(["bound", "--input", graph_file, "--methods", methods, "--t-max", t_max])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: t_max must be at least 1, got {t_max}\n"
