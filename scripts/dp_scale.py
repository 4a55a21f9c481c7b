"""Wall time and peak memory of the 2^n subset scans against vertex count.

For each n from --min-n to --max-n (at most PROFILE_MAX_VERTICES), the
script draws gnp(n, 1/2) with seed 1 and runs ``boxkit bound --methods
min_supergraph`` (the supergraph DP; only up to SUPERGRAPH_MAX_VERTICES),
``--methods strong_boundary`` (the isoperimetric profile) and then
``--methods all`` on it, each in a fresh Python process with BLAS held
to one thread.  Each run prints one line: n, methods, the process's
wall time and its peak resident set size, read from the resource usage
of that child alone.  A run that exits non-zero makes the script exit 1.
When every run has ended, the script appends one point to
``BENCH_dp_scale.json`` at the root of the checkout, as
``scripts/bench_point.py`` does for the benchmark's workloads: the
commit, the UTC date, the host line, and per run n, the methods, the
wall time, the peak RSS and the exit code.

    PYTHONPATH=src python3 scripts/dp_scale.py [--min-n 18] [--max-n 28]
"""

import argparse
import os
import platform
import subprocess
import sys
import tempfile
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from bench_point import append_point, commit_label
from boxkit.edgelist import write_edge_list
from boxkit.errors import PROFILE_MAX_VERTICES, SUPERGRAPH_MAX_VERTICES
from boxkit.families import RandomModelSpec, sample

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRAJECTORY = ROOT / "BENCH_dp_scale.json"
METHODS = ("min_supergraph", "strong_boundary", "all")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_bound(path: str, methods: str) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one bound command."""
    cmd = [sys.executable, "-m", "boxkit.cli", "bound", "--input", path,
           "--methods", methods, "--format", "json"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=_child_env(), stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KB


def scale_point(rows) -> dict:
    """The trajectory point of one script run: rows holds one (n,
    methods, wall_s, peak_rss_mb, exit) tuple per bound command."""
    return {
        "commit": commit_label(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": f"python {platform.python_version()}, numpy {np.__version__}, "
                f"nproc {len(os.sched_getaffinity(0))}, {platform.machine()}",
        "rows": [{"n": n, "methods": methods, "wall_s": round(wall, 3),
                  "peak_rss_mb": round(rss, 1), "exit": code}
                 for n, methods, wall, rss, code in rows],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--min-n", type=int, default=18, help="smallest vertex count")
    parser.add_argument("--max-n", type=int, default=PROFILE_MAX_VERTICES,
                        help=f"largest vertex count (<= {PROFILE_MAX_VERTICES})")
    args = parser.parse_args(argv)
    if not 1 <= args.min_n <= args.max_n <= PROFILE_MAX_VERTICES:
        parser.error(f"need 1 <= --min-n <= --max-n <= {PROFILE_MAX_VERTICES}")

    rows = []
    print(f"{'n':>3}  {'methods':<15} {'wall_s':>7} {'peak_rss_mb':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(args.min_n, args.max_n + 1):
            path = os.path.join(tmp, f"gnp{n}.edges")
            write_edge_list(sample(RandomModelSpec("gnp", n, 1, p=Fraction(1, 2))), path)
            for methods in METHODS:
                if methods == "min_supergraph" and n > SUPERGRAPH_MAX_VERTICES:
                    continue
                code, wall, rss = run_bound(path, methods)
                print(f"{n:>3}  {methods:<15} {wall:>7.2f} {rss:>11.1f}"
                      + ("" if code == 0 else f"  exit {code}"), flush=True)
                rows.append((n, methods, wall, rss, code))
    append_point(TRAJECTORY, scale_point(rows))
    return 1 if any(code != 0 for *_, code in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
