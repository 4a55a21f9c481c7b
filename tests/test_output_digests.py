"""Golden bytes for `run_bounds(g, ["all"])`.

Each certificate digest is the sha256 of one line per report, "name
value repr(certificate)", so it covers every value and certificate,
orderings and traces included.  Each CSV digest is the sha256 of the
reports' CSV rows as `bound` writes them, so it covers every emitted
value, ceiling and reason but no certificate.  A change meant to keep
output unchanged (a faster DP, a shared table) must keep both; a change
that reshapes a certificate on purpose updates the certificate digests,
says so, and keeps the CSV digests.
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
from boxkit.harness import emit, rows_from_reports, run_bounds


def _report_text(g) -> str:
    return "".join(f"{r.name} {r.value!r} {r.certificate!r}\n"
                   for r in run_bounds(g, ["all"]))


GOLDEN = [
    (lambda: complement_cycle(14),
     "a07047b3ef444f529c89da80159b0c2300d6ccc4bae34bd2934535ea970a5780"),
    (lambda: sample(RandomModelSpec("gnp", 13, 5, p=Fraction(1, 2))),
     "0df2c37fd8b82a2e8461ae0503f07a71fe237e3389eb5cc9fe8bbc250c8f92a5"),
    (lambda: sample(RandomModelSpec("bipartite_gnp", 12, 3, p=Fraction(1, 2))).to_graph(),
     "9183ff342082de7c5e16a9fcae741dbb555d278cf9d78f906e452aad19a0b0a6"),
]


# The named graphs of the bound-all benchmark and one draw of each of two
# of its models, at its n = 18.  complete_multipartite(2, 9) takes the
# c4free branch of the family bound.
GOLDEN_18 = [
    (lambda: complement_cycle(18),
     "18df1014bd61a88e3bb920446d79b84d0e7a73803f820b7c298a7a0f786f7b14"),
    (lambda: complete_multipartite(2, 9),
     "fe1cc040922e9c7ff492cb10b5a74d23b6ec37e75c666743995159b42ba2e7ee"),
    (lambda: cobipartite_tight_family(3, 3).graph,
     "c4a6308be0af1c6da70aa593f6bb6747e1a8c5c3090cfc7b4e9ba5c793d003fa"),
    (lambda: bipartite_tight_family(3, 3).graph,
     "859f94228cb1752dc3c23672820fc9831f6636b05ee68162a8948fdccba3c247"),
    (lambda: sample(RandomModelSpec("regular", 18, 1, k=13)),
     "8e7d449d52e883132a25803b367309668d8ac62a3885baf0c85a2bd62a0375e8"),
    (lambda: sample(RandomModelSpec("bipartite_gnp", 18, 1, p=Fraction(1, 2))).to_graph(),
     "4f2e72d15976572aa731e83387143d81df002d4073b198e1d7e824593ef92702"),
]


IDS = ["co-C14", "gnp13-seed5", "bipartite_gnp12-seed3",
       "co-C18", "K_2x9", "cobipartite(3,3)", "bipartite(3,3)",
       "regular18-k13-seed1", "bipartite_gnp18-seed1"]


@pytest.mark.parametrize("build, digest", GOLDEN + GOLDEN_18, ids=IDS)
def test_run_bounds_all_output_bytes_are_pinned(build, digest):
    text = _report_text(build())
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# The CSV rows of the same graphs, in the order of GOLDEN + GOLDEN_18.
CSV_DIGESTS = [
    "d838451e8cd8cb6f13862a2c41ae453c15e3ea20c1e28900c76e09520a164778",
    "f3fb28be26a598aac9a8e1eff6d566647cf8b575d351efa0ee68278a3c4efd7c",
    "87b86bbcd910c820fbd2b6ba1c50b1323fc8718717df7e2c0509afbc6cebeddd",
    "b83309533717eaf009f6e7d13cd95291599bc40130aac46420e70af05bb957cb",
    "144ce950c29f14affcb255e213953d407b1d38a1082498e6c788c986ae7f81ba",
    "c6b8f0a18a30f89ff836d4c54cd498b13351c818fa826650054e1c71a51469b3",
    "88d0cb9819b452d4352e8a709a31ef3be7aac2e837e1b7e0535dd14fdd64997b",
    "c0d8bca64e86e7c2af96c709f22a0669dd1da6947d064305db36c402279bbd55",
    "24b1c2ea46353d9cb1e0ab78fef3922cc7b2f92b1023a47cee57a7f708d182ef",
]


@pytest.mark.parametrize("build, digest",
                         [(build, digest) for (build, _), digest in
                          zip(GOLDEN + GOLDEN_18, CSV_DIGESTS, strict=True)], ids=IDS)
def test_run_bounds_all_csv_bytes_are_pinned(build, digest):
    g = build()
    rows = rows_from_reports(run_bounds(g, ["all"]), seed=0, model="input", n=g.n,
                             m=g.edge_count, param="")
    assert hashlib.sha256(emit(rows, "csv").encode()).hexdigest() == digest
