"""Pinned study outputs of the bias-accounting and adder-aging paths.

Each case runs one small study point and hashes its canonical store row
(``study`` + bound ``params`` + flattened ``metrics``, sorted-key
compact JSON, the row format ``perfbench`` digests).  The literals were
recorded before the word-level bias accounting, the precomputed
scheduler repair words and the bit-parallel adder aging landed: those
rewrites must reproduce every output bit for bit, with or without
numpy.  A change here means the studies' results changed.
"""

import hashlib
import json

import pytest

from repro.experiments import get_study

#: (study, params) -> SHA-256 of the canonical row.
PINNED_ROWS = [
    ("penelope", {"suite": "specint2000", "length": 2000},
     "22cf4537a57a3a338e0c8990153202df985b40cf8c9240911a96b0175984dd3d"),
    ("penelope", {"suite": "specfp2000", "length": 2000},
     "bdced55f4359e990b705d8dfb67504c7a12c3473c355b894277bcef07a9cc4ec"),
    ("regfile", {"suite": "specint2000", "length": 2000},
     "6648b4072083b0120ff5aa7c51526cf9968e1462d41aa0220f63afd359d22003"),
    ("regfile", {"suite": "multimedia", "length": 3000, "seed": 5},
     "dd22fca3c978357b8e7356897d112f3c8cc8e3f7f278a00732d2a5dc3ea54fa8"),
    ("vmin_power", {"suite": "specint2000", "length": 2000},
     "d7f764f8793fb3bcf5d337371f5597ae89fcfee85ec8e7b31a8c69408d895312"),
]


def canonical_row(study: str, params: dict) -> str:
    definition = get_study(study)
    return json.dumps({"study": study,
                       "params": definition.bind(params),
                       "metrics": definition.execute(params)},
                      sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize(
    "study,params,expected", PINNED_ROWS,
    ids=[f"{s}-{p['suite']}-{p['length']}" for s, p, __ in PINNED_ROWS])
def test_study_row_is_pinned(study, params, expected):
    row = canonical_row(study, params)
    assert hashlib.sha256(row.encode("utf-8")).hexdigest() == expected, row
