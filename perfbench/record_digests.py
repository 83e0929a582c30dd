"""Re-record ``expected_digests.json`` from the program in this tree.

Runs every op of the committed op universes (all of them, whatever the
seed: each seed's schedule is a permutation of its universe) through the
same in-process CLI path as the benchmark and stores each op's output
digest.  Only do this when the program's outputs are meant to change::

    PYTHONPATH=src python3 perfbench/record_digests.py

Takes about ten minutes on two CPUs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import ops as opslib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(BENCH_DIR, "expected_digests.json")


def universe():
    yield opslib.warm_fill_op()
    yield from opslib.cold_ops(opslib.DEFAULT_SEED)
    yield from opslib.penelope_ops(opslib.DEFAULT_SEED)


def main() -> int:
    digests = {}
    scratch = os.path.join(os.path.dirname(BENCH_DIR), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=scratch)
    try:
        for op in universe():
            store = os.path.join(work, "op")
            # Against no expected digests a correct op fails only the
            # digest comparison; its outcome still carries the digest.
            __, outcome = opslib.run_op(op, store, {})
            shutil.rmtree(store, ignore_errors=True)
            if not outcome.digest:
                print(f"{op.label}: {outcome.error}", file=sys.stderr)
                return 1
            digests[op.digest_id] = outcome.digest
            print(f"{op.digest_id} {outcome.digest[:16]}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED, "w") as handle:
        json.dump({"about": "sha256 of each op's sorted canonical-JSON "
                            "store rows; see README.md",
                   "digests": dict(sorted(digests.items()))},
                  handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
