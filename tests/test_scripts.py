"""Smoke tests for the scripts that import the package."""

import os
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


def test_dp_scale_small():
    proc = _run_script("dp_scale.py", "--min-n", "9", "--max-n", "10")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["n", "methods", "wall_s", "peak_rss_mb"]
    rows = [line.split() for line in lines[1:]]
    assert [row[:2] for row in rows] == [[n, methods] for n in ("9", "10") for methods in
                                         ("min_supergraph", "strong_boundary", "all")]
    assert all(float(row[2]) > 0 and float(row[3]) > 0 for row in rows)


def test_dp_scale_runs_the_dp_only_up_to_its_cap():
    n = str(SUPERGRAPH_MAX_VERTICES + 1)
    proc = _run_script("dp_scale.py", "--min-n", n, "--max-n", n)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [row[:2] for row in rows] == [[n, "strong_boundary"], [n, "all"]]


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
