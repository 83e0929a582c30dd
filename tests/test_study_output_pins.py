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


# ----------------------------------------------------------------------
# Whole-sweep outputs through the CLI
# ----------------------------------------------------------------------
#: SHA-256 over the sorted canonical rows of a 2-ratio x 2-suite
#: ``caches`` sweep at length 500, recorded with the flat-store sweep
#: runner before every sweep moved onto the journaled fabric runner.
#: Serial and spawned workers, with and without a store, must all
#: reproduce it.
SWEEP_ARGV = ["sweep", "caches", "--grid", "ratio=0.4,0.6",
              "--suites", "specint2000", "office", "--length", "500",
              "--quiet"]
PINNED_SWEEP = (
    "2b56093918571be7849d9c35af8898e20407cc93c021953545af669138c240d3")


def _row(study, params, metrics) -> str:
    return json.dumps({"study": study, "params": params,
                       "metrics": metrics},
                      sort_keys=True, separators=(",", ":"))


def _digest(rows) -> str:
    blob = "\n".join(sorted(rows)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _stored_rows(path: str):
    """Canonical rows of a store: a JSONL file or a directory of them."""
    import os

    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(root, name)
                 for root, __, names in os.walk(path) for name in names
                 if name.endswith(".jsonl") and name != "events.jsonl"]
    records = {}
    for name in files:
        with open(name, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    records[record["key"]] = record
    return [_row(r["study"], r["params"], r["metrics"])
            for r in records.values()]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("stored", [False, True],
                         ids=["no-store", "store"])
def test_cli_sweep_rows_are_pinned(workers, stored, tmp_path,
                                   monkeypatch):
    import repro.experiments
    from repro.cli import main

    captured = []
    real_summary = repro.experiments.format_summary

    def capture(results, **kwargs):
        captured.extend(results)
        return real_summary(results, **kwargs)

    # --quiet skips the summary table; drop it so the results reach
    # format_summary, where the test reads them.
    argv = [arg for arg in SWEEP_ARGV if arg != "--quiet"]
    monkeypatch.setattr(repro.experiments, "format_summary", capture)
    store = str(tmp_path / "store")
    argv += ["--workers", workers]
    argv += ["--store", store] if stored else ["--no-store"]
    assert main(argv) == 0
    rows = [_row(r.point.study, r.params, r.metrics) for r in captured]
    assert len(rows) == 4
    assert _digest(rows) == PINNED_SWEEP
    if stored:
        assert _digest(_stored_rows(store)) == PINNED_SWEEP
