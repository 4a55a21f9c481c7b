"""Run one benchmark workload and append its point to BENCH_<workload>.json.

Runs ``perfbench/run.py --workload W [--seed N] [--seconds S]`` unchanged
from the root of this checkout and reads what it prints.  The point it
appends to ``BENCH_<W>.json`` at the root holds the commit (with
``-dirty`` when a tracked file other than a BENCH_*.json differs from
it), the UTC date, the seed and seconds, the ``# python ...`` host line,
the output sha256 and the run's last-line JSON object.  Each file is a
JSON list of points, oldest first, so the trajectory reads across
commits.

    python3 scripts/bench_point.py --workload bound-all [--seed 1] [--seconds 30]
"""

import argparse
import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_run_output(text: str) -> dict:
    """The host line, output sha256 and last-line JSON of one workload's
    ``perfbench/run.py`` output."""
    lines = text.splitlines()
    host = [line[2:] for line in lines if line.startswith("# python ")]
    digest = [line.split()[-1] for line in lines if line.startswith("# output sha256 ")]
    if len(host) != 1 or len(digest) != 1 or not lines[-1].startswith("{"):
        raise ValueError("not the output of one perfbench/run.py workload")
    return {"host": host[0], "output_sha256": digest[0], "result": json.loads(lines[-1])}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def commit_label() -> str:
    """HEAD's hash, with -dirty when tracked files other than the
    trajectory files have edits."""
    edits = _git("status", "--porcelain", "--untracked-files=no", "--", ".",
                 ":(exclude)BENCH_*.json")
    return _git("rev-parse", "HEAD") + ("-dirty" if edits else "")


def append_point(path: Path, point: dict) -> None:
    points = json.loads(path.read_text()) if path.exists() else []
    points.append(point)
    path.write_text(json.dumps(points, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return 1
    point = {
        "commit": commit_label(),
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "seed": args.seed,
        "seconds": args.seconds,
        **parse_run_output(proc.stdout),
    }
    append_point(ROOT / f"BENCH_{args.workload}.json", point)
    return 0


if __name__ == "__main__":
    sys.exit(main())
