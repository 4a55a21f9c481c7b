"""The sha256 digests of the determinism contract, in one command.

Prints one line per output: the digest of one round of each benchmark
workload (perfbench/workloads.py, read as it stands; the same digest
that ``perfbench/run.py`` reports as its output sha256) and the digest
of the standard output of ``scripts/soundness_table.py --max-n 6``.
A change meant to leave output unchanged keeps every line.

    PYTHONPATH=src python3 scripts/output_digests.py [--seed 1]
"""

import argparse
import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "scripts")]

import soundness_table  # noqa: E402
import workloads  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(seed: int) -> dict[str, str]:
    """Workload name (or "soundness_table") to the digest of its output."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        out[name] = _sha256("".join(workload(seed).run_round().text))
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        if soundness_table.main(["--max-n", "6"]) != 0:
            raise SystemExit("soundness_table.py found an unsound bound")
    out["soundness_table"] = _sha256(table.getvalue())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1, help="benchmark workload seed")
    args = parser.parse_args(argv)
    for name, digest in digests(args.seed).items():
        print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
