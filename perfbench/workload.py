"""One workload process: set up, run ops, write a result file.

Started by ``run.py`` in a fresh interpreter with ``src`` on the path.
``--t0`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` covers interpreter start, imports and
the workload's set-up up to the moment the first op can be issued.

Modes:

- ``setup``: set up, then stop (``run.py`` takes the median of several).
- ``measure``: set up, then issue ops in a closed loop until
  ``--seconds`` have passed (at least one op).
- ``block``: set up, then run exactly ``--ops`` ops; with ``--traced``
  the layer spans of :mod:`spans` are installed after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

import ops as opslib

#: ``peak_rss_mb`` is read after this many ops, so that it does not grow
#: with the number of ops a faster program fits into a run (memoised
#: workloads are kept per process).
RSS_OPS = 5


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def set_up(workload: str, work: str):
    """Imports, and for the warm workload the filled store.

    Returns the fill's (exit code, stdout, stderr), or ``None`` when the
    workload has no store to fill.  Checking the fill is the
    benchmark's own work and happens after the set-up clock stops, in
    :func:`check_fill`.
    """
    import repro.cli  # noqa: F401  (the import is part of set-up)

    if workload != "stored_rerun_warm":
        return None
    fill = opslib.warm_fill_op()
    code, stdout, stderr = opslib.call_cli(
        [*fill.argv, "--store", os.path.join(work, "warm", "store"),
         "--progress", "json"])
    return code, stdout, stderr


def check_fill(fill_result, work: str, expected: dict):
    """(stored records of the warm sweep, the fill's error or "")."""
    fill = opslib.warm_fill_op()
    store = os.path.join(work, "warm", "store")
    outcome = opslib.check(fill, *fill_result, store, expected)
    records = opslib.read_store(store) if os.path.exists(store) else {}
    return records, outcome.error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=opslib.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "block"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--chrome-trace", default=None)
    args = parser.parse_args(argv)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    expected = opslib.load_expected(bench_dir)
    os.makedirs(args.work, exist_ok=True)
    fill_result = set_up(args.workload, args.work)
    setup_s = time.monotonic() - args.t0
    stored, errors = None, []
    if fill_result is not None:
        stored, fill_error = check_fill(fill_result, args.work, expected)
        if fill_error:
            errors.append(f"warm fill: {fill_error}")
    warm_store = os.path.join(args.work, "warm", "store")
    warm_bytes = opslib.store_bytes(warm_store) if stored else 0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        return _write(args.result, result)

    recorder = None
    if args.mode == "block":
        import spans

        # Both passes import the same modules before their first op,
        # so the traced/untraced comparison times the same work.
        spans.import_targets()
        if args.traced:
            spool = os.path.join(args.work, "spool")
            os.makedirs(spool, exist_ok=True)
            recorder = spans.Recorder(spool)
            spans.install(recorder)

    schedule = opslib.schedule(args.workload, args.seed)
    deadline = time.monotonic() + args.seconds
    latencies, points, digests = [], [], []
    failed = 0
    rss = None
    for index, op in enumerate(schedule):
        if args.mode == "block" and index >= args.ops:
            break
        if args.mode == "measure" and latencies and \
                time.monotonic() >= deadline:
            break
        store = (os.path.join(args.work, f"op-{index}") if op.cold
                 else os.path.join(args.work, "warm"))
        latency, outcome = opslib.run_op(op, store, expected, stored)
        if op.cold:
            shutil.rmtree(store, ignore_errors=True)
        latencies.append(latency)
        points.append(op.points)
        digests.append([op.label, outcome.digest])
        if not outcome.ok:
            failed += 1
            errors.append(f"{op.label}: {outcome.error}")
        if index + 1 == RSS_OPS:
            rss = peak_rss_mb()
    if stored and opslib.store_bytes(warm_store) != warm_bytes:
        errors.append("warm reruns wrote to the stored sweep")

    result.update(latencies=latencies, points=points, digests=digests,
                  failed=failed, errors=errors[:20],
                  peak_rss_mb=rss if rss is not None else peak_rss_mb())
    if recorder is not None:
        merged = recorder.collect()
        result["layers"] = {name: list(value) for name, value
                            in spans.layer_metrics(merged).items()}
        result["missing"] = recorder.missing
        if args.chrome_trace:
            result["trace_events"] = spans.write_chrome_trace(
                merged, args.chrome_trace)
    return _write(args.result, result)


def _write(path: str, result: dict) -> int:
    with open(path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
