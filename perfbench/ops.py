"""The three workloads: seeded op schedules, CLI calls and output checks.

Every op is one ``repro sweep`` invocation through ``repro.cli.main``,
in process, with study defaults, a directory store and no
``--backend`` / ``--fabric``.  The schedules draw from fixed op
universes whose output digests are committed in
``expected_digests.json``, so every op of every seed is checked.

- ``penelope_points``: one ``penelope`` point at the study's default
  length per op, serially; each op a fresh (suite, seed) pair, so no
  memoised trace is reused.  Each run of ten ops covers every suite.
- ``cache_sweep_cold``: one cold two-worker sweep into a fresh store
  per op, rotating ``caches`` (4 schemes x 2 ratios x 10 suites),
  ``victim_policy`` and ``multiprog`` grids, each with a fresh seed.
- ``stored_rerun_warm``: set-up fills one store with a 2400-point
  short-length ``caches`` grid; each op re-issues a random sub-grid,
  in random value order, of that sweep — every point a stored hit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

WORKLOADS = ("penelope_points", "cache_sweep_cold", "stored_rerun_warm")

#: ``--seed`` default.  Every seed's schedule is a permutation of the
#: same committed op universe, so every seed's ops are checked.
DEFAULT_SEED = 0

SUITES = ("encoder", "specfp2000", "specint2000", "kernels", "multimedia",
          "office", "productivity", "server", "workstation", "spec2006")
SCHEMES = ("line_dynamic", "line_fixed", "set_fixed", "way_fixed")

#: Trace seeds of the penelope universe (10 suites x 10 seeds).
PENELOPE_SEEDS = tuple(range(100, 110))
#: Sweep seeds of the cold universe, per study.
COLD_SEEDS = tuple(range(200, 232))
COLD_ROTATION = ("caches", "victim_policy", "multiprog")
COLD_GRIDS = {
    "caches": ["--grid", "scheme=" + ",".join(SCHEMES),
               "--grid", "ratio=0.4,0.6", "--length", "6000"],
    "victim_policy": ["--grid", "ratio=0.3,0.5,0.7", "--length", "10000"],
    "multiprog": ["--grid", "scheme=" + ",".join(SCHEMES),
                  "--grid", "ratio=0.4,0.6",
                  "--grid", "policy=round_robin,random_slice",
                  "--grid", "slice_length=32,256",
                  "--suites", "specint2000", "office", "server",
                  "--length", "4000"],
}
COLD_POINTS = {"caches": 80, "victim_policy": 30, "multiprog": 32}

#: The stored sweep of the warm workload.
WARM_SEED = 7
WARM_AXES = {
    "scheme": list(SCHEMES),
    "ratio": ["0.3", "0.4", "0.5", "0.6", "0.7"],
    "size_kb": ["8", "16", "32"],
    "ways": ["2", "4", "8", "16"],
    "suite": list(SUITES),
}
#: Most values per axis one warm op re-issues.
WARM_PICK = {"scheme": 4, "ratio": 3, "size_kb": 2, "ways": 2, "suite": 10}
WORKERS = "2"


@dataclass
class Op:
    """One CLI call and what its output must be."""

    label: str
    argv: List[str]
    points: int
    #: Key into the committed digests, or ``None`` (warm reruns are
    #: checked against the stored sweep instead).
    digest_id: Optional[str] = None
    cold: bool = True
    #: Warm reruns: the sub-grid, axis -> values.
    subgrid: Dict[str, List[str]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def penelope_ops(seed: int) -> Iterator[Op]:
    rng = _rng("penelope_points", seed)
    trace_seeds = list(PENELOPE_SEEDS)
    rng.shuffle(trace_seeds)
    for trace_seed in trace_seeds:
        suites = list(SUITES)
        rng.shuffle(suites)
        for suite in suites:
            yield Op(
                label=f"penelope {suite} seed={trace_seed}",
                argv=["sweep", "penelope", "--suites", suite,
                      "--seed", str(trace_seed), "--length", "5000",
                      "--workers", "1"],
                points=1,
                digest_id=f"penelope/{suite}/{trace_seed}",
            )


def cold_ops(seed: int) -> Iterator[Op]:
    rng = _rng("cache_sweep_cold", seed)
    order = {study: rng.sample(COLD_SEEDS, len(COLD_SEEDS))
             for study in COLD_ROTATION}
    for index in range(len(COLD_SEEDS)):
        for study in COLD_ROTATION:
            sweep_seed = order[study][index]
            yield Op(
                label=f"{study} seed={sweep_seed}",
                argv=["sweep", study, *COLD_GRIDS[study],
                      "--seed", str(sweep_seed), "--workers", WORKERS],
                points=COLD_POINTS[study],
                digest_id=f"{study}/{sweep_seed}",
            )


def _warm_sweep(axes: Dict[str, List[str]]):
    """(argv, points) of a short ``caches`` sweep over ``axes``."""
    argv = ["sweep", "caches"]
    for axis, values in axes.items():
        if axis != "suite":
            argv += ["--grid", f"{axis}={','.join(values)}"]
    argv += ["--suites", *axes["suite"], "--length", "300",
             "--seed", str(WARM_SEED), "--workers", WORKERS]
    return argv, math.prod(len(values) for values in axes.values())


def warm_fill_op() -> Op:
    argv, points = _warm_sweep(WARM_AXES)
    return Op(label="warm fill", argv=argv, points=points,
              digest_id=f"warm_fill/{WARM_SEED}")


def warm_ops(seed: int) -> Iterator[Op]:
    rng = _rng("stored_rerun_warm", seed)
    while True:
        subgrid = {
            axis: rng.sample(values, rng.randint(1, WARM_PICK[axis]))
            for axis, values in WARM_AXES.items()
        }
        argv, points = _warm_sweep(subgrid)
        yield Op(label=f"rerun {points} points", argv=argv, points=points,
                 cold=False, subgrid=subgrid)


def schedule(workload: str, seed: int) -> Iterator[Op]:
    if workload == "penelope_points":
        return penelope_ops(seed)
    if workload == "cache_sweep_cold":
        return cold_ops(seed)
    return warm_ops(seed)


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
def canonical_row(record: dict) -> str:
    return json.dumps({"study": record["study"], "params": record["params"],
                       "metrics": record["metrics"]},
                      sort_keys=True, separators=(",", ":"))


def digest(rows: List[str]) -> str:
    """SHA-256 over the sorted canonical rows."""
    blob = "\n".join(sorted(rows)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def read_store(path: str) -> Dict[str, dict]:
    """key -> record of a store: a JSONL file, or a directory of them.

    Read straight from the on-disk record format (one canonical JSON
    object per line, last record per key wins), so the check does not
    depend on which store class wrote it.
    """
    files = [path]
    if os.path.isdir(path):
        files = sorted(
            os.path.join(root, name)
            for root, __, names in os.walk(path) for name in names
            if name.endswith(".jsonl") and name != "events.jsonl")
    records: Dict[str, dict] = {}
    for name in files:
        with open(name, encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    record = json.loads(line)
                    records[record["key"]] = record
    return records


def store_bytes(path: str) -> int:
    """Total size of a store's files (a file, or a directory tree)."""
    if not os.path.isdir(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(root, name))
               for root, __, names in os.walk(path) for name in names)


def load_expected(bench_dir: str) -> Dict[str, str]:
    with open(os.path.join(bench_dir, "expected_digests.json")) as handle:
        return json.load(handle)["digests"]


def subgrid_rows(records: Dict[str, dict],
                 subgrid: Dict[str, List[str]]) -> List[str]:
    """Canonical rows of the stored points inside ``subgrid``."""
    wanted = {axis: {_plain(v) for v in values}
              for axis, values in subgrid.items()}
    return [canonical_row(r) for r in records.values()
            if all(r["params"].get(axis) in values
                   for axis, values in wanted.items())]


def _plain(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


# ----------------------------------------------------------------------
# Running one op
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    ok: bool
    digest: str = ""
    error: str = ""


def call_cli(argv: List[str]):
    """``repro.cli.main(argv)`` in process; (exit code, stdout, stderr).

    ``main`` is looked up at call time so a wrapper installed on the
    module attribute is the one called.
    """
    import repro.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repro.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def summary_event(stdout: str) -> Optional[dict]:
    """The ``--progress json`` summary event of a sweep's stdout."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            try:
                event = json.loads(line)
            except ValueError:
                return None
            return event if event.get("event") == "summary" else None
    return None


def check(op: Op, code: int, stdout: str, stderr: str, store: str,
          expected: Dict[str, str],
          stored: Optional[Dict[str, dict]] = None) -> Outcome:
    """Whether ``op`` did what it must; its output digest either way."""
    if code != 0:
        return Outcome(False, error=f"exit {code}: {stderr.strip()[-300:]}")
    summary = summary_event(stdout)
    if summary is None:
        return Outcome(False, error="no summary event on stdout")
    if summary.get("points") != op.points:
        return Outcome(False, error=f"{summary.get('points')} points, "
                                    f"expected {op.points}")
    if op.cold:
        if summary.get("executed") != op.points:
            return Outcome(False, error="cold sweep served stored points")
        rows = [canonical_row(r) for r in read_store(store).values()]
    else:
        if summary.get("cache_hits") != op.points:
            return Outcome(False, error="warm rerun executed points")
        rows = subgrid_rows(stored or {}, op.subgrid)
    if len(rows) != op.points:
        return Outcome(False, error=f"{len(rows)} rows, expected "
                                    f"{op.points}")
    found = digest(rows)
    if op.digest_id is not None and expected.get(op.digest_id) != found:
        return Outcome(False, found, error=f"digest mismatch for "
                                           f"{op.digest_id}")
    return Outcome(True, found)


def run_op(op: Op, store: str, expected: Dict[str, str],
           stored: Optional[Dict[str, dict]] = None):
    """Run and check one op; (latency seconds, outcome).

    ``store`` is the op's store directory: a fresh one for cold ops,
    the filled one for warm reruns.
    """
    clock = time.perf_counter
    argv = [*op.argv, "--store", os.path.join(store, "store"),
            "--progress", "json"]
    start = clock()
    try:
        code, stdout, stderr = call_cli(argv)
    except Exception as exc:  # an op that raises is a failed op
        latency = clock() - start
        return latency, Outcome(False, error=f"{type(exc).__name__}: {exc}")
    latency = clock() - start
    outcome = check(op, code, stdout, stderr, os.path.join(store, "store"),
                    expected, stored)
    return latency, outcome
