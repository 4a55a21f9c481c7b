"""One workload in one fresh process; ``run.py`` starts it.

Usage (from the root of a checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --workload bound-all --seed 1 --seconds 20 [--trace] [--setup-only]

Set-up is timed from just before ``import boxkit`` until the input is
built and every layer the workload uses has run once on a small graph.
The timed region then runs whole rounds over the input and stops at
the round boundary nearest to ``--seconds``.  Without ``--trace`` it
also takes set-up samples all through the timed region: between two
graphs, once every ``--seconds`` / SETUP_SPACING, it waits for a fresh
``--setup-only`` process and leaves that wait out of the timed region.
The checks run afterwards.  The last line of standard output is one
JSON object with the raw figures; ``run.py`` turns them into the
benchmark's metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Layers that draw the input: on workloads that draw it during set-up
# they are reported per graph drawn there, not per graph timed.
DRAWING_LAYERS = ("families.sample", "rng.next_u64")
# Set-up samples are taken about every --seconds / SETUP_SPACING of the
# timed region, and topped up to SETUP_MIN_SAMPLES after it.
SETUP_SPACING = 12
SETUP_MIN_SAMPLES = 9


class SetupSampler:
    """Set-up times of fresh processes, spread over the timed region so
    that their median sees the same spell of machine speed as the
    graphs do.  The time spent waiting for them is ``paused_s``."""

    def __init__(self, args, first_s: float) -> None:
        self.cmd = [sys.executable, __file__, "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--setup-only"]
        self.interval_s = args.seconds / SETUP_SPACING
        self.samples = [first_s]
        self.paused_s = 0.0
        self.last = time.perf_counter()

    def take(self) -> None:
        began = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, check=True,
                              timeout=60)
        self.samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        self.last = time.perf_counter()
        self.paused_s += self.last - began

    def between(self) -> None:
        if time.perf_counter() - self.last >= self.interval_s:
            self.take()


def _metadata() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _layer_figures(tracer, corpus_mark, corpus_end, timed_mark, graphs: int,
                   import_s: float) -> dict:
    timed = tracer.summary(timed_mark)
    drawn = tracer.summary(corpus_mark, corpus_end)
    figures = {}
    for name, entry in timed.items():
        figures[f"{name}.calls"] = entry["calls"] / graphs
        figures[f"{name}.ms"] = entry["ns"] / graphs / 1e6
        figures[f"{name}.self_ms"] = entry["self_ns"] / graphs / 1e6
    draws = drawn.get("families.sample", {}).get("calls", 0)
    if draws:
        for name in DRAWING_LAYERS:
            entry = drawn.get(name, {"calls": 0, "ns": 0, "self_ns": 0})
            figures[f"{name}.calls"] = entry["calls"] / draws
            figures[f"{name}.ms"] = entry["ns"] / draws / 1e6
            figures[f"{name}.self_ms"] = entry["self_ns"] / draws / 1e6
    cold = tracer.first("spectral.symmetric_eigenvalues")
    figures["spectral.symmetric_eigenvalues.cold_ms"] = (
        cold.duration_ns / 1e6 if cold is not None else 0.0)
    figures["boxkit.import_s"] = import_s
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import boxkit  # noqa: F401  (the import is part of set-up)
    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads

    corpus_mark = tracer.mark() if tracer else None
    workload = workloads.WORKLOADS[args.workload](args.seed)
    corpus_end = tracer.mark() if tracer else None
    workload.warm_up()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    # A traced run alternates traced and untraced rounds in this one
    # process, so the overhead and the byte comparison do not depend on
    # how fast the machine happens to be in another process.
    min_rounds = max(workload.min_rounds, 2) if tracer else workload.min_rounds
    timed_mark = tracer.mark() if tracer else None
    sampler = None if tracer else SetupSampler(args, setup_s)
    rounds = []
    digests = []
    round_s = {True: 0.0, False: 0.0}
    round_graphs = {True: 0, False: 0}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 0
        if tracer:
            tracer.enable(traced)
        began = time.perf_counter()
        rounds.append(workload.run_round(sampler.between) if sampler
                      else workload.run_round())
        round_s[traced] += time.perf_counter() - began
        digests.append(hashlib.sha256("".join(rounds[-1].text).encode()).hexdigest())
        if len(rounds) > 1:  # the checks read the first round only
            rounds[-1].text.clear()
            rounds[-1].results.clear()
        round_graphs[traced] += rounds[-1].attempted
        elapsed = time.perf_counter() - start - (sampler.paused_s if sampler else 0.0)
        # Stop at the round boundary nearest to the requested length.
        if (len(rounds) >= min_rounds
                and elapsed + elapsed / len(rounds) / 2 >= args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while sampler and len(sampler.samples) < SETUP_MIN_SAMPLES:
        sampler.take()
    times_ms = [ns / 1e6 for r in rounds for ns in r.times_ns]
    graphs = sum(r.attempted for r in rounds)
    layers = overhead = None
    if tracer:
        tracer.enable(False)
        layers = _layer_figures(tracer, corpus_mark, corpus_end, timed_mark,
                                round_graphs[True], import_s)
        overhead = ((round_s[True] / round_graphs[True])
                    / (round_s[False] / round_graphs[False]) - 1)

    first = rounds[0]
    problems = workload.check(first.results, args.seed)
    if len(set(digests)) != 1:
        problems.append(("rounds", f"{len(set(digests))} different outputs "
                                   f"over {len(rounds)} rounds"))
    # A graph that fails a check fails in every round: all rounds give
    # the same bytes.
    checked_bad = {label for label, _ in problems if label != "rounds"}
    failed = sum(len(r.failed | checked_bad) for r in rounds)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "correct": not problems,
        "problems": [f"{label}: {msg}" for label, msg in problems[:20]],
        "errors": [e for r in rounds for e in r.errors][:20],
        "attempted": graphs,
        "failed": failed,
        "rounds": len(rounds),
        "elapsed_s": elapsed,
        "samples": len(times_ms),
        "graphs_per_s": len(times_ms) / elapsed,
        "graph_p50_ms": statistics.median(times_ms),
        "graph_p99_ms": statistics.quantiles(times_ms, n=100, method="inclusive")[98],
        "peak_rss_mb": peak_rss_mb,
        "best_ceiling_sum": workload.best_ceiling_sum(first.results),
        "setup_s": setup_s,
        "setup_samples": sampler.samples if sampler else [setup_s],
        "import_s": import_s,
        "digest": digests[0],
        "rounds_match": len(set(digests)) == 1,
        "meta": _metadata(),
        "layers": layers,
        "trace_overhead": overhead,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
