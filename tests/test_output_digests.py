"""Golden bytes for `run_bounds(g, ["all"])`.

Each digest is the sha256 of one line per report, "name value
repr(certificate)", so it covers every value and certificate, orderings
and traces included.  A change meant to keep output unchanged (a faster
DP, a shared table) must keep these digests; a change that alters output
on purpose updates them and says so.
"""

import hashlib
from fractions import Fraction

import pytest

from boxkit.families import RandomModelSpec, complement_cycle, sample
from boxkit.harness import run_bounds


def _report_text(g) -> str:
    return "".join(f"{r.name} {r.value!r} {r.certificate!r}\n"
                   for r in run_bounds(g, ["all"]))


GOLDEN = [
    (lambda: complement_cycle(14),
     "92875d2f3ae661f11902097af8065567cdaa758c891d5e2c6575db3cfdd6a9aa"),
    (lambda: sample(RandomModelSpec("gnp", 13, 5, p=Fraction(1, 2))),
     "e45195bdb4d51f476bc5b8e7e5910141db5bf6b1a6affef5d9cf6f311c601347"),
    (lambda: sample(RandomModelSpec("bipartite_gnp", 12, 3, p=Fraction(1, 2))).to_graph(),
     "0d9992a0e45ebb48b635358eea653208c2aa4df4ca47412153d51a741fcfba55"),
]


@pytest.mark.parametrize("build, digest", GOLDEN,
                         ids=["co-C14", "gnp13-seed5", "bipartite_gnp12-seed3"])
def test_run_bounds_all_output_bytes_are_pinned(build, digest):
    text = _report_text(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
