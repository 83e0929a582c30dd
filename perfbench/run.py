"""End-to-end and per-layer benchmark of the Penelope reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload penelope_points --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` runs the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs a fixed, seed-determined block of ops three
times — untraced, with the benchmark's layer spans installed, untraced
again — and prints the per-layer table and writes a Chrome trace.  Either way every op's
output is checked against the committed digests, a human-readable
report comes first and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run writes its full record — fingerprint, samples, per-op
digests — to ``.perfbench/out/`` in the checkout.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, BENCH_DIR)
import ops as opslib  # noqa: E402

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 3
#: Wall-clock budget of one benchmark run, children included.
RUN_BUDGET_S = 170.0

#: src/repro paths per layer, for ``<layer>.src_lines``.
LAYER_SOURCES = {
    "cli": ["cli.py"],
    "experiments": ["experiments"],
    "workloads": ["workloads"],
    "uarch": ["uarch"],
    "core": ["core"],
    "circuits": ["circuits"],
    "store": ["experiments/store.py", "fabric/store.py", "fabric/index.py"],
    "obs": ["obs"],
    "all": ["."],
}
LAYER_EXCLUDES = {"experiments": ["experiments/store.py"]}


class BenchError(RuntimeError):
    """The benchmark could not run (no result is printed)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("REPRO_TRACE", None)  # the program's own tracer stays off
    return env


def _spawn(cmd, deadline: float) -> None:
    """Run ``cmd`` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        __, stderr = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:4])} timed out")
    finally:
        try:  # stray pool workers of a child that died
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(
            f"workload process exited {proc.returncode}: "
            f"{stderr.decode(errors='replace').strip()[-800:]}")


def workload_process(args, work: str, mode: str, deadline: float,
                     **options) -> dict:
    """Start ``workload.py`` in a fresh interpreter; its result dict."""
    tag = f"{mode}-{len(os.listdir(work))}"
    result = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--work", os.path.join(work, tag),
           "--result", result]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        cmd += [flag] if value is True else [flag, str(value)]
    cmd += ["--t0", repr(time.monotonic())]
    _spawn(cmd, deadline)
    with open(result) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _git(*argv: str) -> str:
    done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=10)
    if done.returncode != 0:
        raise OSError(done.stderr)
    return done.stdout.strip()


def git_state():
    """(revision, dirty) of the checkout, or (None, None) outside git."""
    try:
        if os.path.realpath(_git("rev-parse", "--show-toplevel")) != \
                os.path.realpath(ROOT):
            return None, None
        return _git("rev-parse", "HEAD"), bool(_git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        return None, None


def _count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for __ in handle)


def src_lines() -> dict:
    """Python source lines under ``src/repro`` per layer."""
    package = os.path.join(SRC, "repro")
    counts = {}
    for layer, paths in LAYER_SOURCES.items():
        excluded = {os.path.join(package, p)
                    for p in LAYER_EXCLUDES.get(layer, ())}
        total = 0
        for rel in paths:
            path = os.path.normpath(os.path.join(package, rel))
            files = [path] if os.path.isfile(path) else [
                os.path.join(root, name)
                for root, __, names in os.walk(path) for name in names
                if name.endswith(".py")]
            total += sum(_count_lines(f) for f in files
                         if os.path.normpath(f) not in excluded)
        counts[layer] = total
    return counts


def fingerprint(args) -> dict:
    from importlib import metadata, util

    revision, dirty = git_state()
    numpy = None
    if util.find_spec("numpy") is not None:
        try:
            numpy = metadata.version("numpy")
        except metadata.PackageNotFoundError:
            numpy = "unknown"
    return {
        "git_revision": revision,
        "git_dirty": dirty,
        "python": sys.version.split()[0],
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(),
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def p90(samples) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(setups, measured) -> dict:
    """``{metric: (value, unit, samples)}`` of an untraced run."""
    latencies = measured["latencies"]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "points_per_s": (sum(measured["points"]) / sum(latencies), "1/s",
                         len(latencies)),
        "op_s.p50": (statistics.median(latencies), "s", len(latencies)),
        "peak_rss_mb": (measured["peak_rss_mb"], "MB", 1),
    }


def tail_latency(measured) -> dict:
    """``op_s.p90``: printed, not in the result line.

    The result line must carry the same metrics on every workload, and
    only ``stored_rerun_warm`` runs the >=100 ops that leave ten samples
    beyond a 90th percentile; elsewhere it is close to the slowest op.
    """
    latencies = measured["latencies"]
    return {"op_s.p90": (p90(latencies), "s", len(latencies))}


def block_ops(workload: str, seconds: float) -> int:
    """Ops in a traced block: about a third of the run per pass, whole
    rotations of the cold workload."""
    if workload == "penelope_points":
        return max(1, int(seconds // 10))
    if workload == "cache_sweep_cold":
        return 3 * max(1, int(seconds // 15))
    return max(10, int(seconds * 3))


def per_layer(passes, lines) -> dict:
    """Per-layer metrics of the traced pass ``passes[1]``; the overhead
    ratio is its op time over the mean of the untraced passes'."""
    traced = passes[1]
    untraced = [sum(p["latencies"]) for p in passes if p is not traced]
    metrics = {name: (value, unit, 1)
               for name, (value, unit) in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (
        sum(traced["latencies"]) / statistics.mean(untraced), "ratio",
        len(untraced))
    for layer, count in lines.items():
        metrics[f"{layer}.src_lines"] = (count, "lines", 1)
    return metrics


def layer_table(metrics, ops: int) -> str:
    """Spans by self time, then the counts, as text."""
    spans = sorted({m.rsplit(".", 1)[0] for m in metrics
                    if m.endswith(".self_s")},
                   key=lambda s: -metrics[f"{s}.self_s"][0])
    lines = [f"per-layer self time over a traced block of {ops} ops",
             f"{'span':<30} {'calls':>8} {'self_s':>10} {'share':>7}"]
    for span in spans:
        lines.append(f"{span:<30} {metrics[f'{span}.calls'][0]:>8} "
                     f"{metrics[f'{span}.self_s'][0]:>10.4f} "
                     f"{metrics[f'{span}.share'][0]:>7.1%}")
    lines.append(f"{'count':<40} {'value':>14} unit")
    for metric, (value, unit, __) in metrics.items():
        if metric.rsplit(".", 1)[0] not in spans:
            lines.append(f"{metric:<40} {value:>14.6g} {unit}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=opslib.WORKLOADS)
    parser.add_argument("--seed", type=int, default=opslib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args) -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"no program to benchmark: {SRC}/repro/cli.py "
                         f"is missing (run from a full checkout)")
    out_dir = os.path.join(ROOT, ".perfbench", "out")
    work = os.path.join(ROOT, ".perfbench", "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        # Unmeasured warm-up: byte-compile and page in the package.
        _spawn([sys.executable, "-c", "import repro.cli"], deadline)
        if args.trace:
            # Untraced, traced, untraced: the overhead ratio compares
            # the traced pass with both neighbours, so a drift in
            # machine speed during the run does not bias it.
            count = block_ops(args.workload, args.seconds)
            chrome = os.path.join(out_dir, f"{name}.trace.json")
            passes = [
                workload_process(args, work, "block", deadline, ops=count),
                workload_process(args, work, "block", deadline, ops=count,
                                 traced=True, chrome_trace=chrome),
                workload_process(args, work, "block", deadline, ops=count),
            ]
        else:
            passes = [workload_process(args, work, "setup", deadline)
                      for __ in range(SETUP_SAMPLES - 1)]
            passes.append(workload_process(args, work, "measure", deadline,
                                           seconds=args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print_ = sys.stdout.write
    facts = fingerprint(args)
    if args.trace:
        metrics = per_layer(passes, facts["src_lines"])
        wanted = passes
        reported = {}
    else:
        metrics = end_to_end([p["setup_s"] for p in passes], passes[-1])
        wanted = passes[-1:]
        reported = tail_latency(passes[-1])
    attempted = sum(len(p["latencies"]) for p in wanted)
    failed = sum(p["failed"] for p in wanted)
    errors = [e for p in wanted for e in p["errors"]]
    correct = not errors
    reported["error_rate"] = (failed / attempted, "fraction", attempted)

    print_(f"perfbench {args.workload} seed={args.seed} "
           f"seconds={args.seconds:g} trace={args.trace}\n")
    print_("fingerprint: " + " ".join(
        f"{k}={v}" for k, v in facts.items() if k != "src_lines") + "\n")
    print_("src_lines: " + " ".join(
        f"{k}={v}" for k, v in facts["src_lines"].items()) + "\n")
    if args.trace:
        print_(layer_table(metrics, len(passes[1]["latencies"])))
    else:
        print_(f"{'metric':<40} {'value':>14} {'unit':<9} samples\n")
        for metric, (value, unit, samples) in metrics.items():
            print_(f"{metric:<40} {value:>14.6g} {unit:<9} {samples}\n")
    print_("reported, not in the result line:\n")
    for metric, (value, unit, samples) in reported.items():
        print_(f"{metric:<40} {value:>14.6g} {unit:<9} {samples}\n")
    for error in errors:
        print_(f"error: {error}\n")
    if args.trace:
        missing = passes[1].get("missing", [])
        if missing:
            print_("not wrapped (absent in this tree): "
                   + ", ".join(missing) + "\n")
        print_(f"chrome trace: {passes[1].get('trace_events', 0)} events "
               f"-> {os.path.relpath(chrome, ROOT)}\n")
    record = os.path.join(out_dir, f"{name}.json")
    with open(record, "w") as handle:
        json.dump({"fingerprint": facts, "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "errors": errors,
                   "metrics": {k: {"value": v, "unit": u, "samples": n}
                               for k, (v, u, n) in metrics.items()},
                   "reported": {k: {"value": v, "unit": u, "samples": n}
                                for k, (v, u, n) in reported.items()},
                   "digests": [d for p in wanted for d in p["digests"]],
                   "latencies": [p["latencies"] for p in wanted]},
                  handle, indent=1)
    print_(f"record (fingerprint, per-op digests): "
           f"{os.path.relpath(record, ROOT)}\n")
    print_(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, __) in metrics.items()},
    }) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
