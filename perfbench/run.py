"""Run the boxkit benchmark from the root of a checkout.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh process (``worker.py``), one at a
time, with BLAS held to one thread, so the load is one single-threaded
process on the machine.  With ``--trace 0`` the run prints every
end-to-end metric of BENCHMARK.json; set-up time is the median over the
measuring process and the fresh set-up-only processes it starts all
through its timed region (see ``worker.py``).
With ``--trace 1`` one process alternates traced and untraced rounds,
checks that both produce the same output bytes, prints the tracing
overhead and then every per-layer metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A workload that
crashes or runs out of time prints no such line and exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Each workload must finish within 180 s; keep a margin for start-up.
TIME_BUDGET_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *flags]
    # Its own process group, so that a worker killed for running out of
    # time takes its set-up-only children with it.
    with subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=TIME_BUDGET_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{workload}: worker killed after {TIME_BUDGET_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _describe(res: dict) -> list[str]:
    meta = res["meta"]
    lines = [
        f"# python {meta['python']}, numpy {meta['numpy']}, BLAS {meta['blas']} "
        f"({meta['blas_threads']} thread), nproc {meta['nproc']}, {meta['machine']}",
        f"# rounds {res['rounds']}, graphs attempted {res['attempted']}, "
        f"failed {res['failed']}, timed samples {res['samples']}, "
        f"timed region {res['elapsed_s']:.2f} s",
        f"# output sha256 {res['digest']}",
    ]
    if res["problems"] or res["errors"]:
        lines += [f"# problem: {p}" for p in res["problems"] + res["errors"]]
    else:
        lines.append("# checks: all passed")
    return lines


def run_end_to_end(workload: str, seed: int, seconds: float) -> dict:
    res = _worker(workload, seed, seconds)
    setups = res["setup_samples"]
    figures = dict(res, setup_s=statistics.median(setups))
    for line in _describe(res):
        print(line)
    print("# setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                    for m in SPEC["end_to_end"]},
    }


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    res = _worker(workload, seed, seconds, "--trace")
    for line in _describe(res):
        print(line)
    # Rounds alternate between traced and untraced.
    print(f"# traced rounds {'match' if res['rounds_match'] else 'DO NOT MATCH'} the untraced "
          f"rounds byte for byte; tracing overhead {100 * res['trace_overhead']:+.1f} % "
          f"of time per graph")
    layers = res["layers"]
    # A layer the workload never calls reads 0.
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in SPEC["per_layer"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "boxkit" / "__init__.py").is_file():
        print(f"error: no boxkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else [args.workload]
    run = run_traced if args.trace else run_end_to_end
    results = {}
    for name in names:
        print(f"# == {name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        try:
            results[name] = run(name, args.seed, args.seconds)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for metric, entry in results[name]["metrics"].items():
            print(f"{name:>13} {metric:<48} {entry['value']:>14.6g} {entry['unit']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        for name in names:
            print(json.dumps({"workload": name, **results[name]}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
