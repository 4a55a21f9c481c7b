"""Exhaustive soundness table for every bound against exact boxicity.

Walks all isomorphism classes up to --max-n vertices, evaluates every
bound, and tabulates how often each one applies and how often its
ceiling matches the exact value.  Any ceiling above the exact value
would be a soundness bug; the script exits nonzero if one appears.
"""

import argparse
import sys

from boxkit.families import ENUMERATION_MAX_VERTICES, enumerate_graphs
from boxkit.harness import ALL_BOUNDS, run_bounds
from boxkit.intervals import boxicity_exact


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=ENUMERATION_MAX_VERTICES,
                        help="largest vertex count to enumerate "
                             f"(1..{ENUMERATION_MAX_VERTICES})")
    args = parser.parse_args(argv)
    if not 1 <= args.max_n <= ENUMERATION_MAX_VERTICES:
        parser.error(f"--max-n must be in 1..{ENUMERATION_MAX_VERTICES}")

    stats = {name: {"applicable": 0, "tight": 0, "unsound": 0}
             for name in ALL_BOUNDS}
    graphs = 0
    for n in range(1, args.max_n + 1):
        for g in enumerate_graphs(n):
            graphs += 1
            exact = boxicity_exact(g).value
            for rep in run_bounds(g, ["all"]):
                if not rep.applicable:
                    continue
                cell = stats[rep.name]
                cell["applicable"] += 1
                if rep.ceiling == exact:
                    cell["tight"] += 1
                if rep.ceiling > exact:
                    cell["unsound"] += 1

    width = max(len(name) for name in ALL_BOUNDS)
    print(f"graphs enumerated: {graphs} (n <= {args.max_n})")
    print(f"{'bound':<{width}}  applicable  tight  tight%  unsound")
    bad = 0
    for name in ALL_BOUNDS:
        cell = stats[name]
        share = (100 * cell["tight"] / cell["applicable"]
                 if cell["applicable"] else 0.0)
        print(f"{name:<{width}}  {cell['applicable']:>10}  {cell['tight']:>5}"
              f"  {share:>5.1f}  {cell['unsound']:>7}")
        bad += cell["unsound"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
