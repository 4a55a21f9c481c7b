"""Fuzzed text and command lines: every bad input ends in ValueError
from the parsers, and in exit code 2 or 3 (never a traceback) from the
command line.

Numbers are drawn from small ranges, so that a well-formed input stays
cheap to evaluate; the structure around them is what is fuzzed.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from boxkit.cli import main
from boxkit.edgelist import parse_edge_list
from boxkit.families import MODELS
from boxkit.harness import ALL_BOUNDS, parse_config

FUZZ = settings(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

_numbers = st.integers(-3, 12).map(str)
_junk = st.sampled_from(["", " ", "x", "-", "1/0", "1/2", "3/4", "2.5", "nan", "#",
                         "=", ",", "1e400", "٣", "0x10", "1_0", "\t", "all"])
_tokens = st.one_of(_numbers, _junk, st.text(max_size=4))


@st.composite
def edge_list_texts(draw):
    n = draw(st.integers(-1, 9))
    edges = draw(st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=12))
    m = draw(st.one_of(st.just(len(edges)), st.integers(-1, 14)))
    lines = [f"{n} {m}"] + [f"{u} {v}" for u, v in edges]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))),
                     " ".join(draw(st.lists(_tokens, max_size=3))))
    if draw(st.booleans()):
        lines.insert(0, "# comment")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


_n_list = st.lists(st.integers(1, 8).map(str), min_size=1, max_size=2).map(",".join)
_values = {
    "model": st.sampled_from(MODELS),
    "n": _n_list,
    "p": st.sampled_from(["1/2", "1/3,2/3", "0", "1"]),
    "m": st.integers(0, 20).map(str),
    "k": st.integers(1, 4).map(str),
    "seeds": st.integers(1, 2).map(str),
    "master_seed": st.integers(0, 2**64 - 1).map(str),
    "bounds": st.lists(st.sampled_from(ALL_BOUNDS + ("all",)), min_size=1, max_size=3,
                       unique=True).map(",".join),
    "format": st.sampled_from(["csv", "json"]),
    "out": st.just("result.csv"),
    # t_max below 1 and record_runtime outside its six spellings are bad
    # values that parse as well-formed ones; both must exit 2
    "t_max": st.integers(-2, 3).map(str),
    "record_runtime": st.sampled_from(["0", "1", "yes", "false", "maybe", "Yes", ""]),
}
_PARAMETER_KEY = {"gnp": "p", "bipartite_gnp": "p", "gnm": "m", "bipartite_gnm": "m",
                  "regular": "k"}


@st.composite
def config_texts(draw):
    """Mostly well-formed configs with some keys left out, repeated or
    given a junk value, and sometimes a junk line."""
    model = draw(_values["model"])
    keys = ["model", "n", "seeds", "master_seed", "bounds", "out", _PARAMETER_KEY[model]]
    keys += draw(st.lists(st.sampled_from(["format", "t_max", "record_runtime", "p", "k"]),
                          max_size=2, unique=True))
    keys += draw(st.lists(st.sampled_from(keys), max_size=1))
    drop = draw(st.lists(st.sampled_from(keys), max_size=1))
    lines = []
    for key in keys:
        if key in drop:
            continue
        if draw(st.integers(0, 6)) == 0:
            value = draw(st.one_of(_junk, st.integers(-2, 0).map(str)))
        elif key == "model":
            value = model
        else:
            value = draw(_values[key])
        lines.append(f"{key}={value}")
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(_tokens))
    return "\n".join(draw(st.permutations(lines)))


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        # argparse rejects a malformed command line itself, with code 2
        return exc.code


@FUZZ
@given(edge_list_texts())
def test_parse_edge_list_accepts_or_raises_value_error(text):
    try:
        g = parse_edge_list(text)
    except ValueError:
        return
    assert 1 <= g.n <= 9


@FUZZ
@given(st.text(max_size=40))
def test_parse_edge_list_on_arbitrary_text(text):
    try:
        parse_edge_list(text)
    except ValueError:
        pass


def test_parse_edge_list_rejects_a_huge_vertex_count_before_allocating():
    with pytest.raises(ValueError, match="vertex count"):
        parse_edge_list(f"{10**12} 0\n")


@FUZZ
@given(config_texts())
def test_parse_config_accepts_or_raises_value_error(text):
    try:
        parse_config(text)
    except ValueError:
        pass


@FUZZ
@given(edge_list_texts(),
       st.lists(st.sampled_from(ALL_BOUNDS + ("all", "nope", "")), min_size=1, max_size=3),
       st.sampled_from(["csv", "json", "xml"]),
       st.integers(-2, 3),
       st.sampled_from(["bound", "exact", "spectrum"]))
def test_cli_on_fuzzed_edge_lists_exits_0_2_or_3(tmp_path, text, methods, fmt, t_max, command):
    path = tmp_path / "g.edges"
    path.write_text(text, encoding="utf-8")
    argv = [command, "--input", str(path)]
    if command == "bound":
        argv += ["--methods", ",".join(methods), "--format", fmt, "--t-max", str(t_max)]
    elif command == "exact":
        argv += ["--max-k", str(t_max)]
    assert _exit_code(argv) in (0, 2, 3)


_SMALL_CONFIG = "model=gnp\nn=4\np=1/2\nseeds=1\nmaster_seed=1\nbounds=degree_ratio\nout=r.csv\n"


@FUZZ
@given(config_texts())
@example(_SMALL_CONFIG + "t_max=0")
@example(_SMALL_CONFIG + "record_runtime=maybe")
@example(_SMALL_CONFIG + "record_runtime=")
def test_cli_experiment_on_fuzzed_configs_exits_0_2_or_3(tmp_path, monkeypatch, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(text, encoding="utf-8")
    assert _exit_code(["experiment", "--config", "sweep.cfg"]) in (0, 2, 3)


@FUZZ
@given(st.sampled_from(MODELS + ("nope",)), _numbers, _tokens, _numbers, _numbers,
       st.sampled_from(["gen", "construct"]))
def test_cli_gen_and_construct_on_fuzzed_arguments_exit_0_2_or_3(
        tmp_path, model, n, p, m, k, command):
    out = str(tmp_path / "g.edges")
    if command == "gen":
        argv = ["gen", "--model", model, "--n", n, "--p", p, "--m", m, "--k", k,
                "--seed", "1", "--out", out]
    else:
        argv = ["construct", "--family", "bipartite" if model == "nope" else "cobipartite",
                "--k", n, "--l", k, "--verify", "--out", out]
    assert _exit_code(argv) in (0, 2, 3)


@pytest.mark.parametrize("argv", [
    ["gen", "--model", "gnm", "--n", str(10**9), "--m", "1", "--seed", "1"],
    ["gen", "--model", "gnp", "--n", str(10**6), "--p", "1/2", "--seed", "1"],
    ["construct", "--family", "cobipartite", "--k", str(10**6), "--l", "2"],
    ["construct", "--family", "bipartite", "--k", "2", "--l", str(10**6)],
], ids=["gnm", "gnp", "cobipartite", "bipartite"])
def test_cli_rejects_huge_sizes_before_building(tmp_path, argv):
    if argv[0] == "gen":
        argv = argv + ["--out", str(tmp_path / "g.edges")]
    assert main(argv) == 2
