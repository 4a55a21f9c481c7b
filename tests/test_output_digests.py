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

from boxkit.families import (
    RandomModelSpec,
    bipartite_tight_family,
    cobipartite_tight_family,
    complement_cycle,
    complete_multipartite,
    sample,
)
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


# The named graphs of the bound-all benchmark and one draw of each of two
# of its models, at its n = 18.  complete_multipartite(2, 9) takes the
# c4free branch of the family bound.
GOLDEN_18 = [
    (lambda: complement_cycle(18),
     "9c13974086499fe13c85bfaf4089f383694fc5dcb1908c9aa57c0e30c2cb2549"),
    (lambda: complete_multipartite(2, 9),
     "3352e9cac9179c64a177098aa1c2b98508f986a7cb4532fba9d3d13b38704918"),
    (lambda: cobipartite_tight_family(3, 3).graph,
     "744e65513e70d97915d12723ffacb2614fd70151f6153a84fe0731dcc3203a5c"),
    (lambda: bipartite_tight_family(3, 3).graph,
     "cc3d4f3fed540eb2a0b637fd623c8de57095a3663c9a19297e1abf95eecae2d5"),
    (lambda: sample(RandomModelSpec("regular", 18, 1, k=13)),
     "403a29b8e718cac035a49e200b7b225366776f64c92af706c0ec8fa8f708f65c"),
    (lambda: sample(RandomModelSpec("bipartite_gnp", 18, 1, p=Fraction(1, 2))).to_graph(),
     "2c1342f2ca1902a9cbc06fbe92c6be3abed4ce475823031d5c264f48bd023237"),
]


@pytest.mark.parametrize("build, digest", GOLDEN + GOLDEN_18,
                         ids=["co-C14", "gnp13-seed5", "bipartite_gnp12-seed3",
                              "co-C18", "K_2x9", "cobipartite(3,3)", "bipartite(3,3)",
                              "regular18-k13-seed1", "bipartite_gnp18-seed1"])
def test_run_bounds_all_output_bytes_are_pinned(build, digest):
    text = _report_text(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest
