"""Steadiness check: run workloads repeatedly and compare spread to bounds.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed N]

Each run is one ``run.py`` invocation of BENCHMARK.json's run length, run
one after another.  Without ``--seed`` run i uses seed i (1, 2, ...), as a
comparison across seeds does; with ``--seed N`` every run uses seed N, so
the spread is the run-to-run noise alone, without the change of input.
For every end-to-end metric the command prints the median and quartiles
of the runs, as ``statistics.quantiles(values, n=4)`` gives them, and the
spread: the distance between the quartiles as a share of the median.  A
metric is ``steady`` when its spread is below a third of its bound in
BENCHMARK.json, ``within`` when it is below the bound, and ``NOISY``
otherwise.  The share of failed graphs must be the same in every run.
The command exits non-zero if any metric is NOISY, a run is incorrect or
the failed share differs.  This is the basis for setting the bounds, or
for dropping a workload that cannot be made steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, help="repeat this one seed in every run")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need at least two runs")
    seeds = ([args.seed] * args.runs if args.seed is not None
             else list(range(1, args.runs + 1)))
    seconds = SPEC["run_seconds"]

    verdict_ok = True
    for workload in args.workload or names:
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        which = (f"seed {args.seed} each time" if args.seed is not None
                 else f"seeds 1..{args.runs}")
        print(f"\n{workload}: {args.runs} runs of {seconds} s, {which}")
        print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound':>6}  verdict")
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            bound = metric["bound"]
            verdict = ("steady" if spread < bound / 3 else
                       "within" if spread <= bound else "NOISY")
            verdict_ok = verdict_ok and verdict != "NOISY"
            print(f"{metric['name']:<18} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.2%} {bound:>6.2f}  {verdict}")
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"failed share per run: {sorted(shares)}; all correct: {correct}\n")
        verdict_ok = verdict_ok and len(shares) == 1 and correct
    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
