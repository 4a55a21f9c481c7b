"""Smoke tests for the scripts that import the package."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from boxkit.errors import PROFILE_MAX_VERTICES, SUPERGRAPH_MAX_VERTICES
from boxkit.families import ENUMERATION_MAX_VERTICES
from boxkit.harness import ALL_BOUNDS

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


def test_soundness_table_small():
    proc = _run_script("soundness_table.py", "--max-n", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("graphs enumerated: ")
    rows = [line.split()[0] for line in lines[2:]]
    assert rows == list(ALL_BOUNDS)


@pytest.mark.parametrize("max_n", ["0", str(ENUMERATION_MAX_VERTICES + 1)])
def test_soundness_table_rejects_sizes_outside_the_enumeration(max_n):
    proc = _run_script("soundness_table.py", "--max-n", max_n)
    assert proc.returncode == 2
    assert "--max-n" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_soundness_table_help_names_the_cap():
    proc = _run_script("soundness_table.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert f"1..{ENUMERATION_MAX_VERTICES}" in " ".join(proc.stdout.split())


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dp_scale(monkeypatch, tmp_path):
    """scripts/dp_scale.py as a module, appending its points in tmp_path
    rather than to the checkout's trajectory, under a fixed commit label
    (so that no git process runs)."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))  # as a script run has it
    dp_scale = _script("dp_scale")
    monkeypatch.setattr(dp_scale, "TRAJECTORY", tmp_path / "BENCH_dp_scale.json")
    monkeypatch.setattr(dp_scale, "commit_label", lambda: "abc123")
    return dp_scale


def test_dp_scale_small(monkeypatch, tmp_path, capsys):
    dp_scale = _dp_scale(monkeypatch, tmp_path)
    assert dp_scale.main(["--min-n", "9", "--max-n", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["n", "methods", "wall_s", "peak_rss_mb"]
    rows = [line.split() for line in lines[1:]]
    runs = [(n, methods) for n in (9, 10) for methods in
            ("min_supergraph", "strong_boundary", "all")]
    assert [(int(row[0]), row[1]) for row in rows] == runs
    assert all(float(row[2]) > 0 and float(row[3]) > 0 for row in rows)
    [point] = json.loads(dp_scale.TRAJECTORY.read_text())
    assert [(row["n"], row["methods"], row["exit"]) for row in point["rows"]] == [
        (*run, 0) for run in runs]


def test_dp_scale_runs_the_dp_only_up_to_its_cap(monkeypatch, tmp_path, capsys):
    n = SUPERGRAPH_MAX_VERTICES + 1
    assert _dp_scale(monkeypatch, tmp_path).main(["--min-n", str(n), "--max-n", str(n)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [[str(n), "strong_boundary"], [str(n), "all"]]


def test_dp_scale_point_holds_each_run(monkeypatch, tmp_path):
    dp_scale = _dp_scale(monkeypatch, tmp_path)
    point = dp_scale.scale_point([(18, "min_supergraph", 0.51234, 40.04, 0),
                                  (29, "all", 12.0, 96.46, 3)])
    assert point["commit"] == "abc123"
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", point["date"])
    assert re.fullmatch(r"python [\d.]+, numpy \S+, nproc \d+, \S+", point["host"])
    assert point["rows"] == [
        {"n": 18, "methods": "min_supergraph", "wall_s": 0.512, "peak_rss_mb": 40.0, "exit": 0},
        {"n": 29, "methods": "all", "wall_s": 12.0, "peak_rss_mb": 96.5, "exit": 3}]


def test_dp_scale_appends_one_point_per_run_also_when_a_run_fails(monkeypatch, tmp_path,
                                                                  capsys):
    # canned bound runs: no process is spawned
    dp_scale = _dp_scale(monkeypatch, tmp_path)
    monkeypatch.setattr(dp_scale, "run_bound",
                        lambda path, methods: ((3 if methods == "all" else 0), 0.25, 40.0))
    n = SUPERGRAPH_MAX_VERTICES
    assert dp_scale.main(["--min-n", str(n), "--max-n", str(n + 1)]) == 1
    assert dp_scale.main(["--min-n", "5", "--max-n", "5"]) == 1
    first, second = json.loads(dp_scale.TRAJECTORY.read_text())
    assert [(row["n"], row["methods"], row["exit"]) for row in first["rows"]] == [
        (n, "min_supergraph", 0), (n, "strong_boundary", 0), (n, "all", 3),
        (n + 1, "strong_boundary", 0), (n + 1, "all", 3)]
    assert len(second["rows"]) == 3 and first["commit"] == second["commit"] == "abc123"
    assert capsys.readouterr().out.count("  exit 3\n") == 3


def test_dp_scale_rejects_sizes_past_the_cap():
    proc = _run_script("dp_scale.py", "--max-n", str(PROFILE_MAX_VERTICES + 1))
    assert proc.returncode == 2
    assert "--max-n" in proc.stderr


def _output_digests(seed):
    proc = _run_script("output_digests.py", "--seed", seed)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


def test_output_digests_match_the_determinism_contract():
    # seed 1: the three benchmark workloads and soundness_table.py --max-n 6
    assert _output_digests("1") == {
        "bound-all": "10fa85c201bb233aed22032c3fbbb3403453610df64bbb4c330f56a2c010f152",
        "exact-oracle": "ba3714e325d1adfa142e20ab671eaad9f0c860ef6b970de55d5b8d50d70625ae",
        "sweep": "94d50e1dbaed38cd7edb35ae11e3da1404cc73e734de9150ed91c6b4077b5ff8",
        "soundness_table": "064ccb9cb7925a16158b2800bc98c04b3fd10bb1940c623f085896f4df8aea71",
    }


def test_output_digests_match_the_determinism_contract_at_seed_2():
    # the soundness table draws no seeded graph, so its digest is seed 1's
    assert _output_digests("2") == {
        "bound-all": "58c4a5519cb8a242f812247fb618ff8daec338c86d9f03e8edd0ad1800a2a509",
        "exact-oracle": "18c20176f8ad6a3c0583d80acd51a2848e5eeeb2cfa82efc7cc0e0e3e3ee8027",
        "sweep": "307f24f96de4b6a64693acac8ef35e1d9fe365677fb9d955db74059f38818ff9",
        "soundness_table": "064ccb9cb7925a16158b2800bc98c04b3fd10bb1940c623f085896f4df8aea71",
    }


# One workload's perfbench/run.py output, as bench_point.py reads it.
RUN_OUTPUT = """\
# == exact-oracle: seed 1, 2 s, trace 0
# python 3.11.7, numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0 (1 thread), nproc 2, x86_64
# rounds 69, graphs attempted 828, failed 0, timed samples 828, timed region 1.99 s
# output sha256 ba3714e325d1adfa142e20ab671eaad9f0c860ef6b970de55d5b8d50d70625ae
# checks: all passed
# setup_s samples 0.1624 0.1798 0.1839
 exact-oracle setup_s                                                0.171077 s
 exact-oracle best_ceiling_sum                                             26 count
{"correct": true, "attempted": 828, "failed": 0, "metrics": {"setup_s": \
{"value": 0.1710768510000662, "unit": "s"}, "best_ceiling_sum": {"value": 26, "unit": "count"}}}
"""


def test_bench_point_reads_a_run_output():
    assert _script("bench_point").parse_run_output(RUN_OUTPUT) == {
        "host": "python 3.11.7, numpy 2.4.6, BLAS scipy-openblas 0.3.31.188.0 (1 thread), "
                "nproc 2, x86_64",
        "output_sha256": "ba3714e325d1adfa142e20ab671eaad9f0c860ef6b970de55d5b8d50d70625ae",
        "result": {"correct": True, "attempted": 828, "failed": 0, "metrics": {
            "setup_s": {"value": 0.1710768510000662, "unit": "s"},
            "best_ceiling_sum": {"value": 26, "unit": "count"}}},
    }


@pytest.mark.parametrize("text", ["", "error: exact-oracle: worker exited 1\n",
                                  RUN_OUTPUT.rsplit("\n{", 1)[0] + "\n",
                                  RUN_OUTPUT + RUN_OUTPUT])
def test_bench_point_rejects_other_output(text):
    with pytest.raises(ValueError, match="not the output of one"):
        _script("bench_point").parse_run_output(text)


def test_bench_point_appends_to_the_trajectory(tmp_path):
    bench_point = _script("bench_point")
    path = tmp_path / "BENCH_sweep.json"
    bench_point.append_point(path, {"commit": "a"})
    bench_point.append_point(path, {"commit": "b"})
    assert json.loads(path.read_text()) == [{"commit": "a"}, {"commit": "b"}]


def test_bench_point_rejects_an_unknown_workload():
    proc = _run_script("bench_point.py", "--workload", "nope")
    assert proc.returncode == 2
    assert "--workload" in proc.stderr
