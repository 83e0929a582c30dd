"""Layer spans recorded from outside the program.

The benchmark wraps public callables of ``repro`` in the workload
process (the program's own tracer stays off) and keeps, per span name,
the call count, the inclusive time and the self time: a span's duration
minus the time its child spans cover.  Counts the layers produce
(uops, simulated cycles, cache accesses, store records, ...) are read
at the same boundaries.

Sweep pool workers are forked from the workload process, so they
inherit the wrappers.  Each worker appends what it recorded to a
per-pid file whenever its outermost span closes (pool workers are
terminated, never exited, so nothing may wait for interpreter exit);
the workload process merges those files at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: Cap on Chrome trace events kept per process (the trace stays small).
MAX_EVENTS = 200_000

#: Items pulled from a lazy address stream per timed batch.
STREAM_CHUNK = 4096


class Recorder:
    """Span statistics, counts and Chrome events of one process."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self.missing: list = []
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.stats: dict = {}    # name -> [calls, self_s, total_s]
        self.counts: dict = {}
        self.events: list = []
        self.stack: list = []    # frames: [name, child_s]

    # -- recording -------------------------------------------------------
    def count(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _close(self, name: str, start: float, duration: float,
               child: float) -> None:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration - child
        entry[2] += duration
        if len(self.events) < MAX_EVENTS:
            self.events.append((name, start, duration, threading.get_ident()))

    def wrap(self, name: str, func, pre=None, post=None):
        """``func`` wrapped in span ``name``.

        A call made while span ``name`` is already the innermost open
        span runs unwrapped (``put`` -> ``put_record`` is one write).
        ``pre(args)`` runs before and ``post(token, args, result,
        duration)`` after the timed call; ``post`` returns the result
        handed back to the caller.
        """
        recorder = self
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = recorder.stack
            if stack and stack[-1][0] == name:
                return func(*args, **kwargs)
            token = pre(args) if pre is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                recorder._close(name, start, duration, frame[1])
                if stack:
                    stack[-1][1] += duration
            if post is not None:
                result = post(token, args, result, duration)
            if not stack and os.getpid() != recorder.main_pid:
                recorder.flush()
            return result

        return wrapper

    def timed_stream(self, name: str, iterator, items_counter: str):
        """Re-yield a lazy stream, charging its production to ``name``.

        The stream is pulled in batches of :data:`STREAM_CHUNK`; each
        batch's time moves from the consuming span to ``name``'s self
        time, so a lazy generator's work is attributed to the workload
        layer rather than to the cache replay that consumes it.
        """
        recorder = self
        clock = time.perf_counter
        islice = itertools.islice

        def generate():
            while True:
                start = clock()
                batch = list(islice(iterator, STREAM_CHUNK))
                spent = clock() - start
                entry = recorder.stats.setdefault(name, [0, 0.0, 0.0])
                entry[1] += spent
                entry[2] += spent
                if recorder.stack:
                    recorder.stack[-1][1] += spent
                recorder.count(items_counter, len(batch))
                if not batch:
                    return
                yield from batch

        return generate()

    # -- cross-process merge ----------------------------------------------
    def _payload(self) -> dict:
        pid = os.getpid()
        return {
            "pid": pid,
            "stats": self.stats,
            "counts": self.counts,
            "events": [[n, s, d, pid, t] for n, s, d, t in self.events],
        }

    def flush(self) -> None:
        """Append this process's records to its spool file, then reset."""
        data = (json.dumps(self._payload()) + "\n").encode("utf-8")
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self._reset()

    def collect(self) -> dict:
        """Merge this process's records with every worker's spool (this
        process's pid first)."""
        parts = [self._payload()]
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                with open(os.path.join(self.spool_dir, entry)) as handle:
                    parts.extend(json.loads(line) for line in handle
                                 if line.strip())
        stats: dict = {}
        counts: dict = {}
        events: list = []
        for part in parts:
            for name, (calls, self_s, total_s) in part["stats"].items():
                entry = stats.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += self_s
                entry[2] += total_s
            for name, value in part["counts"].items():
                counts[name] = counts.get(name, 0) + value
            events.extend(part["events"])
        pids = list(dict.fromkeys(part["pid"] for part in parts))
        return {"stats": stats, "counts": counts, "events": events,
                "pids": pids}


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _stats_delta(counter: str, field: str):
    """pre/post pair adding the growth of ``self.stats.<field>``."""
    def pre(args):
        stats = getattr(args[0], "stats", None)
        return getattr(stats, field, None)

    def post(recorder, token, args, result, duration):
        after = getattr(getattr(args[0], "stats", None), field, None)
        if token is not None and after is not None:
            recorder.count(counter, after - token)
        return result
    return pre, post


def _core_run_post(recorder, token, args, result, duration):
    recorder.count("uarch.core.uops", result.uops)
    recorder.count("uarch.core.sim_cycles", result.cycles)
    return result


def _items_post(recorder, token, args, result, duration):
    recorder.count("workloads.generate.items", len(result))
    return result


def _stream_post(recorder, token, args, result, duration):
    return recorder.timed_stream("workloads.generate", iter(result),
                                 "workloads.generate.items")


def _runner_post(recorder, token, args, result, duration):
    points = len(result)
    recorder.count("experiments.points", points)
    recorder.count("experiments.cached_points", result.cache_hits)
    workers = int(getattr(args[0], "workers", 1) or 1)
    recorder.count("experiments.worker_capacity_s", duration * workers)
    return result


def _record_bytes(record) -> int:
    return len(record.to_json().encode("utf-8")) + 1


def _store_write_post(recorder, token, args, result, duration):
    # put() returns its record; put_record(record) / put_many(records)
    # return None.
    if result is not None:
        records = [result]
    else:
        records = args[1] if isinstance(args[1], list) else [args[1]]
    recorder.count("store.write.records", len(records))
    recorder.count("store.write.bytes",
                   sum(_record_bytes(r) for r in records))
    return result


def _store_read_post(recorder, token, args, result, duration):
    recorder.count("store.read.misses" if result is None
                   else "store.read.hits", 1)
    return result


def _netlist_post(recorder, token, args, result, duration):
    recorder.count("circuits.netlist_evaluate.vectors", 1)
    return result


_replay_pre, _replay_post = _stats_delta("uarch.cache_replay.accesses",
                                         "accesses")

#: (span, module, attribute path, pre, post); ``post`` takes
#: (recorder, token, args, result, duration).
TARGETS = [
    ("cli.main", "repro.cli", "main", None, None),
    ("experiments.runner", "repro.experiments.runner", "SweepRunner.run",
     None, _runner_post),
    ("experiments.runner", "repro.fabric.runner", "FabricRunner.run",
     None, _runner_post),
    ("experiments.study", "repro.experiments.registry",
     "StudyDefinition.execute_metrics", None, None),
    ("workloads.generate", "repro.workloads.generator",
     "TraceGenerator.generate", None, _items_post),
    ("workloads.generate", "repro.workloads.generator",
     "generate_address_stream", None, _items_post),
    ("workloads.generate", "repro.workloads.multiprog",
     "multiprog_address_stream", None, _stream_post),
    ("uarch.core_run", "repro.uarch.core", "TraceDrivenCore.run",
     None, _core_run_post),
    ("core.penelope_evaluate", "repro.core.penelope",
     "PenelopeProcessor.evaluate", None, None),
    ("core.penelope_derive_policy", "repro.core.penelope",
     "PenelopeProcessor.derive_policy", None, None),
    ("core.penelope_run_baseline", "repro.core.penelope",
     "PenelopeProcessor.run_baseline", None, None),
    ("core.penelope_run_protected", "repro.core.penelope",
     "PenelopeProcessor.run_protected", None, None),
    ("circuits.adder_build", "repro.circuits.ladner_fischer",
     "build_ladner_fischer_adder", None, None),
    ("circuits.age", "repro.core.combinational", "IdleInputInjector.age",
     None, None),
    ("circuits.netlist_evaluate", "repro.circuits.netlist",
     "Circuit.evaluate", None, _netlist_post),
    ("core.cache_study", "repro.core.cache_like", "run_cache_study",
     None, None),
    ("core.protected_replay", "repro.core.cache_like",
     "ProtectedCache.replay", None, None),
    ("uarch.cache_replay", "repro.uarch.backends.reference",
     "Cache.replay", _replay_pre, _replay_post),
    ("uarch.cache_replay", "repro.uarch.backends.vectorized",
     "VectorCache.replay", _replay_pre, _replay_post),
    ("store.write", "repro.experiments.store", "ResultStore.put",
     None, _store_write_post),
    ("store.write", "repro.experiments.store", "ResultStore.put_record",
     None, _store_write_post),
    ("store.write", "repro.fabric.store", "ShardedResultStore.put",
     None, _store_write_post),
    ("store.write", "repro.fabric.store", "ShardedResultStore.put_record",
     None, _store_write_post),
    ("store.write", "repro.fabric.store", "ShardedResultStore.put_many",
     None, _store_write_post),
    ("store.read", "repro.experiments.store", "ResultStore.get",
     None, _store_read_post),
    ("store.read", "repro.experiments.store", "ResultStore.get_point",
     None, _store_read_post),
    ("store.read", "repro.fabric.store", "ShardedResultStore.get",
     None, _store_read_post),
    ("store.read", "repro.fabric.store", "ShardedResultStore.get_point",
     None, _store_read_post),
    ("store.load", "repro.experiments.store", "ResultStore.load",
     None, None),
    ("obs.event", "repro.obs.log", "EventLog.emit", None, None),
    ("obs.manifest", "repro.obs.provenance", "build_manifest", None, None),
    ("obs.manifest", "repro.obs.provenance", "write_manifest", None, None),
]

#: Every span name the per-layer table reports, in table order.
SPAN_NAMES = list(dict.fromkeys(name for name, *__ in TARGETS))


def import_targets() -> dict:
    """Import every module a target lives in; name -> module.

    Modules absent from the tree under test are skipped.
    """
    modules = {}
    for module_name in dict.fromkeys(target[1] for target in TARGETS):
        try:
            modules[module_name] = importlib.import_module(module_name)
        except ImportError:
            pass
    return modules


def install(recorder: Recorder) -> None:
    """Wrap every reachable target; unreachable ones land in ``missing``.

    A module-level function is replaced in every loaded ``repro``
    module that bound it by name, so callers that imported it directly
    see the wrapper too.
    """
    modules = import_targets()
    for name, module_name, path, pre, post in TARGETS:
        module = modules.get(module_name)
        owner_name, __, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if module is None or original is None:
            recorder.missing.append(f"{module_name}.{path}")
            continue
        wrapper = recorder.wrap(
            name, original, pre,
            None if post is None else functools.partial(post, recorder))
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for loaded in list(sys.modules.values()):
            if (getattr(loaded, "__name__", "").startswith("repro")
                    and getattr(loaded, attr, None) is original):
                setattr(loaded, attr, wrapper)


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def layer_metrics(merged: dict) -> dict:
    """``{metric: (value, unit)}`` for every span and count."""
    stats, counts = merged["stats"], merged["counts"]
    total_self = sum(entry[1] for entry in stats.values()) or 1.0
    out: dict = {}
    for name in SPAN_NAMES:
        calls, self_s, __ = stats.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.share"] = (self_s / total_self, "fraction")
    for name, unit in (("uarch.core.uops", "count"),
                       ("uarch.core.sim_cycles", "cycles"),
                       ("uarch.cache_replay.accesses", "count"),
                       ("workloads.generate.items", "count"),
                       ("store.write.records", "count"),
                       ("store.read.hits", "count"),
                       ("store.read.misses", "count"),
                       ("experiments.points", "count"),
                       ("experiments.cached_points", "count"),
                       ("circuits.netlist_evaluate.vectors", "count")):
        out[name] = (counts.get(name, 0), unit)
    records = counts.get("store.write.records", 0)
    out["store.bytes_per_record"] = (
        counts.get("store.write.bytes", 0) / records if records else 0.0,
        "B")
    points = counts.get("experiments.points", 0)
    out["experiments.hit_ratio"] = (
        counts.get("experiments.cached_points", 0) / points
        if points else 0.0, "fraction")
    capacity = counts.get("experiments.worker_capacity_s", 0.0)
    busy = stats.get("experiments.study", (0, 0.0, 0.0))[2]
    out["experiments.worker_busy_ratio"] = (
        busy / capacity if capacity else 0.0, "fraction")
    return out


def write_chrome_trace(merged: dict, path: str) -> int:
    """Chrome trace-event JSON (``"X"`` events), loadable in Perfetto."""
    events = merged["events"]
    origin = min((e[1] for e in events), default=0.0)
    trace = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
              "args": {"name": "workload" if i == 0 else f"worker {pid}"}}
             for i, pid in enumerate(merged["pids"])]
    trace.extend({
        "name": name, "cat": name.split(".")[0], "ph": "X",
        "ts": round((start - origin) * 1e6, 3),
        "dur": round(duration * 1e6, 3),
        "pid": pid, "tid": tid,
    } for name, start, duration, pid, tid in events)
    with open(path, "w") as handle:
        json.dump({"traceEvents": trace, "displayTimeUnit": "ms"}, handle)
    return len(events)
