"""Sweep execution: cache lookup, then serial or multiprocessing fan-out.

The runner expands a :class:`~repro.experiments.spec.SweepSpec`, checks
each point against the :class:`~repro.experiments.store.ResultStore`,
dedupes points with identical content hashes, and executes only the
distinct misses — serially for ``workers=1``, over a
``multiprocessing`` pool otherwise.  Results come back in spec order
regardless of completion order, so parallel and serial sweeps produce
identical output (a property the test suite asserts).

Observability (PR 6): every run carries a ``run_id``; workers emit
``worker_heartbeat`` / ``point_error`` events and per-point
``sweep.queue_wait`` / ``sweep.execute`` / ``sweep.store_write`` spans
(shipped back through the pool and merged into the parent tracer ring);
and every store-backed sweep writes a provenance manifest next to the
store (``manifests/<run_id>.json``, copied to ``manifest.json``) — git
revision, spec hash, environment, per-point wall times — plus an
``events.jsonl`` structured log.  All of it is inert
unless enabled (tracer off, log auto-created only with a store), and
none of it touches the computation: results are bit-identical with
observability on or off (differential-tested).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.experiments.registry import get_study
from repro.experiments.spec import ExperimentPoint, SweepSpec
from repro.experiments.store import ResultStore
from repro.metrics import MetricSet
from repro.obs.log import EventLog, new_run_id
from repro.obs.provenance import (
    build_manifest,
    publish_manifest,
)
from repro.obs.trace import TRACER

#: Event-log filename written next to a sweep's result store.
EVENTS_NAME = "events.jsonl"


class PointExecutionError(RuntimeError):
    """A study function raised while executing one design point.

    Wraps the original error with the point's content hash and bound
    parameters, so a sweep failure names *which* point died instead of
    surfacing a bare worker traceback.  Picklable across pool workers
    (``__reduce__`` re-carries the structured fields).
    """

    def __init__(self, message: str, key: str = "", study: str = "",
                 params: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.key = key
        self.study = study
        self.params = dict(params or {})

    @classmethod
    def wrap(cls, point: ExperimentPoint,
             cause: BaseException) -> "PointExecutionError":
        return cls(
            f"study {point.study!r} point {point.key} "
            f"({point.describe()}) failed: "
            f"{type(cause).__name__}: {cause}",
            key=point.key, study=point.study, params=point.as_dict(),
        )

    def __reduce__(self):
        return (type(self),
                (self.args[0], self.key, self.study, self.params))


def bind_spec_points(spec: SweepSpec) -> List[ExperimentPoint]:
    """Expand a spec into fully-bound, cache-keyed points.

    Binds the study's defaults into every point before hashing: the
    cache key must cover the *full* parameterisation of the
    computation, or a later change to a registry default would silently
    serve stale results.  Binding also unifies the keys of explicit and
    defaulted spellings of the same point.  Shared by the in-process
    :class:`SweepRunner` and the fabric scheduler so both plan the
    identical key set for the same spec.
    """
    study = get_study(spec.study)
    # Every study parametrizes exclusively through its defaults, so a
    # key outside them is a typo that would otherwise produce a grid of
    # byte-identical points presented as a real sweep.
    unknown = (set(spec.base) | set(spec.grid)) - set(study.defaults)
    if unknown:
        raise ValueError(
            f"unknown parameter(s) for study {spec.study!r}: "
            f"{', '.join(sorted(unknown))}; known: "
            f"{', '.join(sorted(study.defaults))}"
        )
    return [
        ExperimentPoint.from_dict(spec.study, study.bind(p.as_dict()))
        for p in spec.iter_points()
    ]


def execute_point(
    point: ExperimentPoint,
) -> Tuple[str, MetricSet, float]:
    """Run one point; module-level so worker pools can pickle it.

    Returns the study's typed :class:`MetricSet` (study sets are
    value-backed, so they pickle back from pool workers); callers
    needing the legacy flat dict take ``metric_set.flatten()``.
    Study errors surface as :class:`PointExecutionError` naming the
    point's content hash and parameters.
    """
    started = time.perf_counter()
    try:
        metric_set = get_study(point.study).execute_metrics(
            point.as_dict())
    except PointExecutionError:
        raise
    except Exception as exc:
        raise PointExecutionError.wrap(point, exc) from exc
    return point.key, metric_set, time.perf_counter() - started


@dataclass(frozen=True)
class _ObsContext:
    """Picklable observability context shipped to pool workers."""

    run_id: str
    log_path: Optional[str]
    log_level: str
    trace: bool

    def worker_log(self) -> Optional[EventLog]:
        if self.log_path is None:
            return None
        return EventLog(path=self.log_path, run_id=self.run_id,
                        level=self.log_level)


def _execute_indexed(
    task: Tuple[int, ExperimentPoint, Optional[_ObsContext]],
) -> Tuple[int, MetricSet, float, float, List[Dict[str, Any]]]:
    """Pool task keyed by slot index, so duplicate points (identical
    content hash) still fill distinct result slots.

    Besides the metric set it returns the worker-side execution start
    (epoch seconds, for parent-side queue-wait spans) and the span
    records the worker traced, to be merged into the parent's ring.
    """
    index, point, ctx = task
    if ctx is not None and ctx.trace and not TRACER.enabled:
        # spawn-started worker: globals were re-imported, re-enable.
        TRACER.enable()
    if TRACER.enabled:
        # fork-started workers inherit the parent's pre-fork ring;
        # drop it so drain() ships only this task's spans.
        TRACER.clear()
    log = ctx.worker_log() if ctx is not None else None
    if log is not None:
        log.info("worker_heartbeat", worker=os.getpid(),
                 key=point.key, point=point.describe())
    started_wall = time.time()
    _t = TRACER.begin()
    try:
        __, metric_set, elapsed = execute_point(point)
    except PointExecutionError as exc:
        if log is not None:
            log.error("point_error", key=exc.key, study=exc.study,
                      params=exc.params, error=str(exc),
                      worker=os.getpid())
        raise
    if _t is not None:
        TRACER.end(_t, "sweep.execute", key=point.key,
                   study=point.study, worker=os.getpid())
    spans = TRACER.drain() if TRACER.enabled else []
    return index, metric_set, elapsed, started_wall, spans


@dataclass
class PointResult:
    """Outcome of one design point within a sweep."""

    point: ExperimentPoint
    metrics: Dict[str, Any]
    cached: bool
    elapsed: float
    #: The typed stat tree of a freshly executed point; ``None`` for
    #: store cache hits (the JSONL rows only keep the flat view).
    metric_set: Optional[MetricSet] = None

    @property
    def params(self) -> Dict[str, Any]:
        return self.point.as_dict()

    @property
    def metric_tree(self) -> MetricSet:
        """The typed tree view of this point's metrics.

        Fresh executions return the study's own set (Ratio/Derived
        stats intact); cached results are lifted from the flat row with
        value-derived kinds, so both views always exist.
        """
        if self.metric_set is not None:
            return self.metric_set
        return MetricSet.from_flat(self.metrics)

    def value(self, name: str, default: Any = None) -> Any:
        return self.metrics.get(name, default)


@dataclass
class SweepResult:
    """All point results of one sweep, in spec expansion order."""

    spec: SweepSpec
    results: List[PointResult] = field(default_factory=list)
    wall_time: float = 0.0
    #: Provenance identity of this execution (stamped into the event
    #: log and the manifest).
    run_id: str = ""
    #: This run's own manifest (``manifests/<run_id>.json`` next to
    #: the store); ``None`` without a store.
    manifest_path: Optional[str] = None

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def executed(self) -> int:
        return len(self.results) - self.cache_hits

    def slowest(self) -> Optional[PointResult]:
        """The longest freshly-executed point (None if all were cached)."""
        fresh = [r for r in self.results if not r.cached]
        if not fresh:
            return None
        return max(fresh, key=lambda r: r.elapsed)

    def metrics_by_key(self) -> Dict[str, Dict[str, Any]]:
        return {r.point.key: r.metrics for r in self.results}


class SweepRunner:
    """Fans a sweep out over workers, short-circuiting cached points.

    Parameters
    ----------
    store:
        Result cache; ``None`` disables caching entirely (every point
        executes — what benchmarks want so timings stay honest).
    workers:
        Process count.  ``1`` runs in-process; higher counts use a
        ``multiprocessing`` pool and fall back to serial execution when
        the platform cannot start one.
    progress:
        Optional callback invoked with each finished
        :class:`PointResult` (CLI progress lines).
    log:
        Structured :class:`~repro.obs.log.EventLog`.  When ``None`` and
        a store is present, a file-only log is created next to the
        store (``events.jsonl``); pass an explicit log to control path,
        level or console rendering, or ``manifest=False`` plus
        ``log=EventLog()`` shapes to keep a sweep fully quiet.
    run_id:
        Provenance id; freshly generated when omitted.
    manifest:
        Write this run's manifest next to the store after the run
        (ignored without a store).
    trace_path:
        Where the caller intends to export this run's trace — recorded
        in the manifest so stored results can name their trace file.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        progress: Optional[Callable[[PointResult], None]] = None,
        log: Optional[EventLog] = None,
        run_id: Optional[str] = None,
        manifest: bool = True,
        trace_path: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.workers = workers
        self.progress = progress
        self.run_id = run_id or new_run_id()
        self.manifest = manifest
        self.trace_path = trace_path
        if log is None and store is not None:
            log = EventLog(path=self._events_path(), run_id=self.run_id)
        elif log is not None:
            log.run_id = self.run_id
        self.log = log

    def _events_path(self) -> Optional[str]:
        if self.store is None:
            return None
        return os.path.join(
            os.path.dirname(self.store.path) or ".", EVENTS_NAME)

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        started = time.perf_counter()
        started_wall = time.time()
        _t = TRACER.begin()
        points = bind_spec_points(spec)
        if self.log is not None:
            self.log.info("run_start", study=spec.study,
                          points=len(points), workers=self.workers,
                          axes=spec.axis_names())
        slots: List[Optional[PointResult]] = [None] * len(points)
        pending: List[Tuple[int, ExperimentPoint]] = []

        for index, point in enumerate(points):
            record = self.store.get_point(point) if self.store else None
            if record is not None:
                slots[index] = PointResult(
                    point=point, metrics=dict(record.metrics),
                    cached=True, elapsed=record.elapsed,
                )
                self._report(slots[index])
            else:
                pending.append((index, point))

        if pending:
            # Duplicate grid points (identical content hash at different
            # slots — repeated grid values, collapsed axes) used to
            # execute once per slot and double-write the store.  Execute
            # each distinct key once and fan the result back out; the
            # extra slots report cached=True since they cost nothing.
            first_slot: Dict[str, int] = {}
            duplicates: Dict[int, List[int]] = {}
            unique: List[Tuple[int, ExperimentPoint]] = []
            for index, point in pending:
                key = point.key
                if key in first_slot:
                    duplicates.setdefault(first_slot[key], []).append(index)
                else:
                    first_slot[key] = index
                    unique.append((index, point))
            for index, result in self._execute(unique):
                slots[index] = result
                if self.store is not None:
                    _tw = TRACER.begin()
                    self.store.put(result.point, result.metrics,
                                   result.elapsed)
                    if _tw is not None:
                        TRACER.end(_tw, "sweep.store_write",
                                   key=result.point.key)
                self._report(result)
                for dup_index in duplicates.get(index, ()):
                    duplicate = PointResult(
                        point=points[dup_index],
                        metrics=dict(result.metrics),
                        cached=True,
                        elapsed=result.elapsed,
                        metric_set=result.metric_set,
                    )
                    slots[dup_index] = duplicate
                    self._report(duplicate)

        assert all(slot is not None for slot in slots)
        outcome = SweepResult(
            spec=spec,
            results=[slot for slot in slots if slot is not None],
            wall_time=time.perf_counter() - started,
            run_id=self.run_id,
        )
        outcome.manifest_path = self._write_manifest(
            spec, outcome, started_wall)
        if self.log is not None:
            self.log.info("run_end", study=spec.study,
                          points=len(outcome),
                          cache_hits=outcome.cache_hits,
                          executed=outcome.executed,
                          wall_time=outcome.wall_time)
        if _t is not None:
            TRACER.end(_t, "sweep.run", study=spec.study,
                       points=len(points), workers=self.workers,
                       cache_hits=outcome.cache_hits)
        return outcome

    # ------------------------------------------------------------------
    def _write_manifest(self, spec: SweepSpec, outcome: SweepResult,
                        started_wall: float) -> Optional[str]:
        if self.store is None or not self.manifest:
            return None
        spec_payload = spec.payload()
        manifest = build_manifest(
            run_id=self.run_id,
            spec_payload=spec_payload,
            points=[{
                "key": r.point.key,
                "params": r.point.as_dict(),
                "cached": r.cached,
                "elapsed": r.elapsed,
            } for r in outcome.results],
            workers=self.workers,
            started=started_wall,
            finished=time.time(),
            store_path=self.store.path,
            trace_path=self.trace_path,
            events_path=self._events_path(),
        )
        try:
            return publish_manifest(self.store.path, manifest)
        except OSError as exc:
            # Provenance must never take the sweep down; the results
            # themselves are already safely in the store.
            if self.log is not None:
                self.log.warning("manifest_error", path=self.store.path,
                                 error=str(exc))
            return None

    # ------------------------------------------------------------------
    def _report(self, result: PointResult) -> None:
        if self.log is not None:
            self.log.info("point_done", key=result.point.key,
                          point=result.point.describe(),
                          cached=result.cached, elapsed=result.elapsed)
        if self.progress is not None:
            self.progress(result)

    def _obs_context(self) -> Optional[_ObsContext]:
        if self.log is None and not TRACER.enabled:
            return None
        return _ObsContext(
            run_id=self.run_id,
            log_path=self.log.path if self.log is not None else None,
            log_level=self.log.level if self.log is not None else "info",
            trace=TRACER.enabled,
        )

    def _execute(self, pending):
        pool = None
        if self.workers > 1 and len(pending) > 1:
            # Only pool *creation* is allowed to fall back to serial
            # (sandboxes/platforms without process support).  A failure
            # mid-iteration must propagate: falling back then would
            # re-execute points the pool already yielded, duplicating
            # store writes and progress reports.
            try:
                pool = multiprocessing.Pool(
                    processes=min(self.workers, len(pending))
                )
            except (OSError, ImportError, PermissionError):
                pool = None
        if pool is None:
            yield from self._execute_serial(pending)
            return
        with pool:
            yield from self._execute_pool(pool, pending)

    def _execute_serial(self, pending):
        log = self.log
        for index, point in pending:
            if log is not None:
                log.info("worker_heartbeat", worker=os.getpid(),
                         key=point.key, point=point.describe())
            _t = TRACER.begin()
            try:
                key, metric_set, elapsed = execute_point(point)
            except PointExecutionError as exc:
                if log is not None:
                    log.error("point_error", key=exc.key,
                              study=exc.study, params=exc.params,
                              error=str(exc), worker=os.getpid())
                raise
            if _t is not None:
                TRACER.end(_t, "sweep.execute", key=point.key,
                           study=point.study, worker=os.getpid())
            assert key == point.key
            yield index, PointResult(point=point,
                                     metrics=metric_set.flatten(),
                                     cached=False, elapsed=elapsed,
                                     metric_set=metric_set)

    def _execute_pool(self, pool, pending):
        point_by_index = dict(pending)
        ctx = self._obs_context()
        submitted = time.time()
        last_heartbeat = submitted
        tasks = [(index, point, ctx) for index, point in pending]
        try:
            for index, metric_set, elapsed, exec_started, spans in (
                pool.imap_unordered(_execute_indexed, tasks)
            ):
                last_heartbeat = time.time()
                if spans:
                    TRACER.extend(spans)
                # Queue wait = worker pickup time minus submission time:
                # the span every "why is my sweep slow" question needs
                # (workers starved vs points genuinely expensive).
                TRACER.record_span(
                    "sweep.queue_wait", submitted,
                    max(0.0, exec_started - submitted),
                    key=point_by_index[index].key,
                )
                yield index, PointResult(
                    point=point_by_index[index],
                    metrics=metric_set.flatten(),
                    cached=False, elapsed=elapsed, metric_set=metric_set,
                )
        except PointExecutionError:
            # A study raising is the *point* failing, not the pool: the
            # worker is alive and already logged point_error.
            raise
        except Exception as exc:
            # Anything else escaping imap_unordered means the pool
            # machinery itself broke — typically a worker hard-killed
            # (SIGKILL/OOM) mid-task.  Leave a structured trace naming
            # the run and the last time a worker produced anything, so
            # the fabric (or an operator) knows what to retry, then
            # re-raise: results so far are already in the store.
            if self.log is not None:
                self.log.error(
                    "worker_lost", run_id=self.run_id,
                    error=f"{type(exc).__name__}: {exc}",
                    last_heartbeat=last_heartbeat,
                    workers=self.workers,
                )
            raise


def run_sweep(
    spec: SweepSpec,
    store: Optional[ResultStore] = None,
    workers: int = 1,
    progress: Optional[Callable[[PointResult], None]] = None,
    **runner_options: Any,
) -> SweepResult:
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(store=store, workers=workers,
                       progress=progress, **runner_options).run(spec)
