"""The sweep runner: journaled, lease-driven execution of every sweep.

Every sweep — ``repro sweep``/``run``/``--resume``, the sweep service,
:func:`repro.api.run_study`, :func:`repro.experiments.run_sweep` — runs
on :class:`FabricRunner`:

1. **Plan** — bind the spec, drop points already in the store (index
   lookups, no record reads), execute repeated grid points once, chunk
   the rest into hash-range batches and journal the plan atomically
   (``journal-<run_id>.json``).  A run with nothing to execute writes
   no journal and leases nothing.
2. **Execute** — ``workers=1`` drains the lease board in process; more
   spawns ``multiprocessing.Process`` workers sharing only the store
   directory (or drains in process when none can start).  A worker
   leases a batch, executes and stores its points, renews the lease
   and completes it; a worker that dies stops renewing, and a sibling
   steals its batch once the lease expires.
3. **Resume** — ``FabricRunner.resume(run_id)`` re-drives the batches
   the board has not marked done; points the dead run stored come back
   as cache hits, so a killed-and-resumed sweep is bit-identical to an
   uninterrupted one.

Studies are deterministic, so a study raising is not retried: the run
stops with :class:`~repro.experiments.runner.PointExecutionError`.
Timeouts are the transient failure that retries and re-leases are for.
Every durable write goes through :mod:`repro.fabric.io` (lint rule
FAB001).
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.experiments.runner import (
    EVENTS_NAME,
    PointExecutionError,
    PointResult,
    SweepResult,
    bind_spec_points,
    execute_point,
)
from repro.experiments.spec import ExperimentPoint, SweepSpec
from repro.experiments.store import StoredResult
from repro.fabric.io import atomic_write_json
from repro.fabric.journal import (
    SweepJournal,
    journal_path,
    load_journal,
    plan_batches,
)
from repro.fabric.lease import LEASES_NAME, LeaseBoard
from repro.fabric.store import ShardedResultStore
from repro.obs.log import EventLog, new_run_id
from repro.obs.provenance import (
    build_manifest,
    publish_manifest,
    spec_hash,
)
from repro.obs.trace import TRACER

__all__ = [
    "FabricConfig",
    "FabricIncompleteError",
    "FabricRunner",
    "FAULT_ENV",
]

#: Env-var fault hook: set to ``kill-worker`` to make exactly one
#: spawned fabric worker SIGKILL itself after its first stored point —
#: the CI resume-smoke (and the crash/resume tests) use this to produce
#: a deterministic mid-batch death without racing on pids.
FAULT_ENV = "REPRO_FABRIC_FAULT"
FAULT_MARKER = ".fault-fired"


class FabricIncompleteError(RuntimeError):
    """A fabric run stopped with work remaining (resume to continue)."""

    def __init__(self, message: str, run_id: str,
                 counts: Optional[Dict[str, int]] = None,
                 failed: Optional[List[Dict[str, str]]] = None) -> None:
        super().__init__(message)
        self.run_id = run_id
        self.counts = dict(counts or {})
        self.failed = list(failed or [])


@dataclass(frozen=True)
class FabricConfig:
    """Picklable knobs shipped to every worker."""

    lease_ttl: float = 5.0
    max_batch_attempts: int = 3
    point_timeout: Optional[float] = None
    point_retries: int = 1
    poll_interval: float = 0.05
    log_level: str = "info"
    #: Whether spawned workers record spans (and spool them back).
    trace: bool = False


class _PointTimeout(Exception):
    pass


class _PointTimedOut(PointExecutionError):
    """A point ran out of in-lease timeout retries.

    Transient, unlike a study error: the batch fails and is re-leased.
    """


@contextmanager
def _alarm(seconds: Optional[float]):
    """Raise ``_PointTimeout`` after ``seconds`` of wall clock.

    SIGALRM-based, so it only arms in a main thread on POSIX; elsewhere
    the timeout is advisory (unenforced) rather than wrong.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _handler(signum, frame):
        raise _PointTimeout()

    old = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _maybe_fault(directory: str, allow_fault: bool) -> None:
    """Honour the env-var fault hook (test/CI worker-kill injection).

    The marker file is claimed with ``O_CREAT | O_EXCL`` so exactly one
    worker dies per store directory no matter how many race, and a
    resumed run (marker already present) proceeds unharmed.
    """
    if not allow_fault or os.environ.get(FAULT_ENV) != "kill-worker":
        return
    marker = os.path.join(directory, FAULT_MARKER)
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _drain_board(
    store: ShardedResultStore,
    journal: SweepJournal,
    board: LeaseBoard,
    log: Optional[EventLog],
    cfg: FabricConfig,
    worker_tag: str,
    allow_fault: bool = False,
    stop: Optional[threading.Event] = None,
    on_stored: Optional[Callable[[PointResult], None]] = None,
    clock: Callable[[], float] = time.monotonic,
) -> None:
    """Lease/execute loop — the body of every fabric worker.

    Returns when the board has nothing left that can make progress
    (all done, or all remaining attempts exhausted), or — for
    in-process drains — when ``stop`` is set (graceful drain: the
    current batch is never abandoned mid-lease, the loop just stops
    acquiring new ones).  ``on_stored`` sees each point this drain
    stores, as a fresh :class:`PointResult`.

    A lease is renewed on its first stored point and afterwards only
    once ``lease_ttl / 4`` has passed (by ``clock``) since the last
    renewal, so a skipped renewal always leaves more than three
    quarters of the TTL on the lease.

    A study error settles its batch as failed with no attempts left and
    propagates: another attempt would raise again.
    """
    run_id = journal.run_id
    batch_by_id = {b.batch_id: b for b in journal.batches}
    renew_every = cfg.lease_ttl / 4.0
    while True:
        if stop is not None and stop.is_set():
            return
        lease = board.acquire(run_id, worker_tag, cfg.lease_ttl,
                              cfg.max_batch_attempts)
        if lease is None:
            if board.remaining(run_id, cfg.max_batch_attempts) == 0:
                return
            # Someone else holds a live lease: poll, so this worker
            # exits as soon as the run completes, and notices a death
            # (an expired lease, stolen above) promptly.
            time.sleep(cfg.poll_interval)
            continue
        batch = batch_by_id[lease.batch_id]
        if log is not None:
            if lease.stolen:
                log.warning(
                    "lease_stolen", batch=batch.batch_id,
                    owner=worker_tag, prev_owner=lease.prev_owner,
                    attempts=lease.attempts, points=len(batch),
                )
            log.info("batch_leased", batch=batch.batch_id,
                     owner=worker_tag, attempts=lease.attempts,
                     points=len(batch), deadline=lease.deadline)
        try:
            renewed: Optional[float] = None
            for key, params in zip(batch.keys, batch.params):
                if key in store:
                    # A stolen batch may be half done — the dead owner
                    # already appended (and the parent indexed) some of
                    # its points.  Skip them: resume re-executes only
                    # what is genuinely missing.
                    if log is not None:
                        log.debug("point_skipped", key=key,
                                  batch=batch.batch_id,
                                  owner=worker_tag)
                    continue
                if lease.attempts > 1 and log is not None:
                    log.warning(
                        "point_retry", key=key, batch=batch.batch_id,
                        attempt=lease.attempts, owner=worker_tag,
                        reason="lease re-run",
                    )
                point = ExperimentPoint.from_dict(journal.study,
                                                  dict(params))
                if log is not None:
                    log.info("worker_heartbeat", worker=os.getpid(),
                             key=key, batch=batch.batch_id)
                _t = TRACER.begin()
                metric_set, elapsed = _execute_with_retry(
                    point, cfg, log, batch.batch_id, worker_tag)
                if _t is not None:
                    TRACER.end(_t, "sweep.execute", key=key,
                               study=point.study, worker=os.getpid())
                metrics = metric_set.flatten()
                store.put(point, metrics, elapsed)
                first = renewed is None
                now = clock()
                if first or now - renewed >= renew_every:
                    board.heartbeat(run_id, batch.batch_id, worker_tag,
                                    cfg.lease_ttl)
                    renewed = now
                if log is not None:
                    log.info("point_done", key=key, cached=False,
                             elapsed=elapsed, batch=batch.batch_id,
                             worker=os.getpid())
                if on_stored is not None:
                    on_stored(PointResult(
                        point=point, metrics=metrics, cached=False,
                        elapsed=elapsed, metric_set=metric_set))
                if first:
                    _maybe_fault(store.directory, allow_fault)
            board.complete(run_id, batch.batch_id, worker_tag)
            if log is not None:
                log.info("batch_done", batch=batch.batch_id,
                         owner=worker_tag, attempts=lease.attempts)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            if (isinstance(exc, PointExecutionError)
                    and not isinstance(exc, _PointTimedOut)):
                board.fail(run_id, batch.batch_id, worker_tag, error,
                           attempts=cfg.max_batch_attempts)
                raise
            board.fail(run_id, batch.batch_id, worker_tag, error)
            if log is not None:
                log.error("batch_failed", batch=batch.batch_id,
                          owner=worker_tag, attempts=lease.attempts,
                          error=error)
            # Keep draining other batches; the failed one is either
            # retried (attempts left) or reported exhausted by the
            # parent once the board drains.


def _execute_with_retry(
    point: ExperimentPoint,
    cfg: FabricConfig,
    log: Optional[EventLog],
    batch_id: str,
    worker_tag: str,
) -> Tuple[Any, float]:
    """One point with per-point timeout and bounded timeout retries."""
    attempt = 0
    while True:
        try:
            with _alarm(cfg.point_timeout):
                __, metric_set, elapsed = execute_point(point)
            return metric_set, elapsed
        except (_PointTimeout, PointExecutionError) as exc:
            attempt += 1
            # The alarm usually fires *inside* execute_point, which
            # wraps every study exception — look through to the cause
            # so timeouts are classified (and messaged) as timeouts.
            timed_out = (isinstance(exc, _PointTimeout)
                         or isinstance(exc.__cause__, _PointTimeout))
            reason = "timeout" if timed_out else "error"
            if not timed_out or attempt > cfg.point_retries:
                if log is not None:
                    log.error("point_error", key=point.key,
                              batch=batch_id, owner=worker_tag,
                              reason=reason, attempts=attempt,
                              error=str(exc))
                if timed_out:
                    raise _PointTimedOut(
                        f"point {point.key} timed out after "
                        f"{cfg.point_timeout}s x{attempt} attempts",
                        key=point.key, study=point.study,
                        params=point.as_dict(),
                    ) from exc
                raise
            if log is not None:
                log.warning("point_retry", key=point.key,
                            batch=batch_id, attempt=attempt,
                            owner=worker_tag, reason=reason,
                            error=str(exc))


def _spool_path(directory: str, worker_tag: str) -> str:
    """Where a spawned worker leaves its spans and study error."""
    return os.path.join(directory, f"spool-{worker_tag}.json")


def _fabric_worker_main(
    directory: str,
    shards: int,
    run_id: str,
    worker_tag: str,
    cfg: FabricConfig,
    log_path: Optional[str],
) -> None:
    """Entry point of a spawned fabric worker process.

    Opens its *own* store handle (append-only: the parent is the sole
    index writer), lease board and event log — the only thing shared
    with the parent is the store directory, which is exactly the
    contract that later lets workers live on other hosts.  Before
    exiting, it spools its traced spans and any study error into the
    store directory for the parent to pick up.
    """
    if cfg.trace:
        # Spawn-started workers re-imported a disabled tracer;
        # fork-started ones inherited the parent's ring, which must not
        # be shipped back twice.
        TRACER.enable()
        TRACER.clear()
    store = ShardedResultStore(directory, shards=shards,
                               index_writes=False,
                               refresh_on_open=False)
    board = LeaseBoard(os.path.join(directory, LEASES_NAME))
    journal = load_journal(directory, run_id)
    log = None
    if log_path is not None:
        log = EventLog(path=log_path, run_id=run_id,
                       level=cfg.log_level)
    failure = None
    try:
        _drain_board(store, journal, board, log, cfg, worker_tag,
                     allow_fault=True)
    except PointExecutionError as exc:
        failure = {"message": str(exc), "key": exc.key,
                   "study": exc.study, "params": exc.params}
    finally:
        board.close()
        store.close()
    spans = TRACER.drain() if cfg.trace else []
    if spans or failure is not None:
        atomic_write_json(_spool_path(directory, worker_tag),
                          {"spans": spans, "error": failure})


class FabricRunner:
    """Journaled, resumable sweep execution over a sharded store.

    Parameters
    ----------
    store:
        A :class:`~repro.fabric.store.ShardedResultStore`, a directory
        path (opened as one), or ``None`` for a scratch store removed
        after the run (every point executes; no manifest).
    workers:
        ``1`` drains the board in process; more spawns up to that many
        worker processes.
    batch_size:
        Points per lease batch; default sizes the plan to about four
        batches per worker (steal granularity without lease churn).
    lease_ttl / max_batch_attempts / point_timeout / point_retries:
        Lease state-machine knobs (see :mod:`repro.fabric.lease`).
    log:
        Structured event log.  Default: ``events.jsonl`` in the store
        directory (no log for a scratch store).  The run's manifest is
        published beside the log file.
    manifest:
        Write this run's manifest (``manifests/<run_id>.json`` plus the
        ``manifest.json`` copy) after the run.
    progress:
        Called with each :class:`PointResult` exactly once: cache hits
        as the results are assembled, executed points as they are
        stored.
    trace_path:
        Where the caller exports this run's trace, recorded in the
        manifest.
    """

    def __init__(
        self,
        store: Any,
        workers: int = 1,
        batch_size: Optional[int] = None,
        lease_ttl: float = 5.0,
        max_batch_attempts: int = 3,
        point_timeout: Optional[float] = None,
        point_retries: int = 1,
        log: Optional[EventLog] = None,
        run_id: Optional[str] = None,
        manifest: bool = True,
        progress: Optional[Callable[[PointResult], None]] = None,
        trace_path: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._scratch: Optional[tempfile.TemporaryDirectory] = None
        if store is None:
            self._scratch = tempfile.TemporaryDirectory(
                prefix="repro-sweep-")
            store = self._scratch.name
            manifest = False
        self._owns_store = isinstance(store, str)
        if self._owns_store:
            store = ShardedResultStore(store)
        self.store = store
        self.workers = workers
        self.batch_size = batch_size
        self.cfg = FabricConfig(
            lease_ttl=lease_ttl,
            max_batch_attempts=max_batch_attempts,
            point_timeout=point_timeout,
            point_retries=point_retries,
            log_level=(log.level if log is not None else "info"),
        )
        self.manifest = manifest
        self.progress = progress
        self.trace_path = trace_path
        self.run_id = run_id or new_run_id()
        if log is None:
            log = EventLog(
                path=(None if self._scratch is not None else
                      os.path.join(store.directory, EVENTS_NAME)),
                run_id=self.run_id)
        else:
            log.run_id = self.run_id
        self.log = log
        self.board = LeaseBoard(
            os.path.join(store.directory, LEASES_NAME))
        self._stop = threading.Event()
        #: This drive's pending points (first slot per key) and the
        #: results of those it has seen stored.
        self._pending: Dict[str, ExperimentPoint] = {}
        self._fresh: Dict[str, PointResult] = {}

    def request_stop(self) -> None:
        """Ask a running drive to stop early (graceful drain).

        Thread-safe and idempotent.  Spawned workers are terminated at
        the next poll tick; an in-process drain stops acquiring new
        lease batches.  The journal and lease board stay on disk, so
        the interrupted run raises :class:`FabricIncompleteError` and
        ``repro sweep --resume <run_id>`` finishes it bit-identically —
        this is what the sweep service calls on SIGTERM.
        """
        self._stop.set()

    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> SweepResult:
        """Plan, journal and execute a fresh run."""
        try:
            started = time.perf_counter()
            points, precached = self._plan(spec)
            pending = [(key, point.as_dict())
                       for key, point in self._pending.items()]
            batch_size = self.batch_size or _auto_batch_size(
                len(pending), self.workers)
            payload = spec.payload()
            journal = SweepJournal(
                run_id=self.run_id,
                study=spec.study,
                spec_payload=payload,
                spec_hash=spec_hash(payload),
                store_dir=self.store.directory,
                batches=plan_batches(pending, batch_size),
                cached=len(precached),
                workers=self.workers,
                batch_size=batch_size,
                created=time.time(),
            )
            if journal.batches:
                journal.save()
            return self._drive(spec, journal, points, precached,
                               started, resumed=False)
        finally:
            if self._scratch is not None:
                self.close()

    def resume(self, run_id: str,
               spec: Optional[SweepSpec] = None) -> SweepResult:
        """Re-drive an interrupted run from its journal.

        Verifies the journal's spec hash (and, when a spec is supplied,
        that it hashes to the same identity) before touching anything:
        resuming the wrong journal would poison the store with points
        labelled under another run's provenance.
        """
        started = time.perf_counter()
        journal = load_journal(self.store.directory, run_id)
        if spec is not None:
            supplied = spec_hash(spec.payload())
            if supplied != journal.spec_hash:
                raise ValueError(
                    f"spec hash mismatch: run {run_id} was planned for "
                    f"{journal.spec_hash}, supplied spec hashes to "
                    f"{supplied}"
                )
        else:
            spec = journal.spec()
        self.run_id = run_id
        self.log.run_id = run_id
        self.log.info("run_resumed", study=journal.study,
                      batches=len(journal.batches),
                      done=len(self.board.done_batches(run_id)),
                      workers=self.workers)
        # Cached == everything already in the store as of *this* drive,
        # including points the killed run stored.
        points, precached = self._plan(spec)
        return self._drive(spec, journal, points, precached, started,
                           resumed=True)

    # ------------------------------------------------------------------
    def _plan(self, spec: SweepSpec
              ) -> Tuple[List[ExperimentPoint], Set[str]]:
        """Bind ``spec``: its points and the keys already stored.

        The rest, one point per key, become this drive's pending
        points: repeated grid values execute once.
        """
        points = bind_spec_points(spec)
        precached = {p.key for p in points if p.key in self.store}
        self._pending = {}
        self._fresh = {}
        for point in points:
            if point.key not in precached:
                self._pending.setdefault(point.key, point)
        return points, precached

    def _drive(self, spec: SweepSpec, journal: SweepJournal,
               points: List[ExperimentPoint], precached: Set[str],
               started: float, resumed: bool) -> SweepResult:
        _t = TRACER.begin()
        started_wall = time.time()
        run_id = journal.run_id
        open_batches = []
        if journal.batches:
            self.board.register(run_id,
                                [b.batch_id for b in journal.batches])
            done = set(self.board.done_batches(run_id))
            open_batches = [b for b in journal.batches
                            if b.batch_id not in done]
        self.log.info(
            "run_start", study=spec.study, points=len(points),
            cached=len(precached), batches=len(journal.batches),
            open_batches=len(open_batches), workers=self.workers,
            resumed=resumed,
        )
        if open_batches:
            self._execute(journal, len(open_batches))
        self._collect(self.store.refresh())
        if journal.batches:
            exhausted = self.board.exhausted(
                run_id, self.cfg.max_batch_attempts)
            remaining = self.board.remaining(
                run_id, self.cfg.max_batch_attempts)
            if exhausted or remaining:
                raise FabricIncompleteError(
                    f"fabric run {run_id} incomplete: "
                    f"{remaining} batch(es) unfinished, "
                    f"{len(exhausted)} exhausted "
                    f"{[e['batch'] for e in exhausted]}; resume with "
                    f"`repro sweep --resume {run_id} "
                    f"--store {self.store.directory}`",
                    run_id=run_id, counts=self.board.counts(run_id),
                    failed=exhausted,
                )
        outcome = SweepResult(
            spec=spec, results=self._assemble(points),
            wall_time=time.perf_counter() - started,
            run_id=run_id,
        )
        outcome.manifest_path = self._write_manifest(
            spec, journal, outcome, started_wall, resumed)
        self.log.info("run_end", study=spec.study, points=len(outcome),
                      cache_hits=outcome.cache_hits,
                      executed=outcome.executed,
                      wall_time=outcome.wall_time)
        if _t is not None:
            TRACER.end(_t, "sweep.run", study=spec.study,
                       points=len(points), workers=self.workers,
                       cache_hits=outcome.cache_hits)
        return outcome

    def _execute(self, journal: SweepJournal, open_batches: int) -> None:
        if self.workers > 1:
            procs = self._spawn(journal, min(self.workers, open_batches))
            if procs:
                self._wait(journal, procs)
                return
        _drain_board(self.store, journal, self.board, self.log,
                     self.cfg, f"{journal.run_id}-inproc",
                     stop=self._stop, on_stored=self._stored)

    def _spawn(self, journal: SweepJournal, count: int
               ) -> List[multiprocessing.Process]:
        """Start ``count`` worker processes; none when the platform
        can't."""
        cfg = dataclasses.replace(self.cfg, trace=TRACER.enabled)
        procs: List[multiprocessing.Process] = []
        try:
            for i in range(count):
                proc = multiprocessing.Process(
                    target=_fabric_worker_main,
                    args=(self.store.directory, self.store.shards,
                          journal.run_id, f"{journal.run_id}-w{i}",
                          cfg, self.log.path),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
        except (OSError, ImportError, PermissionError):
            # Platform can't start processes (sandbox): let any started
            # worker finish, then drain in process.
            for proc in procs:
                proc.join()
            return []
        return procs

    def _wait(self, journal: SweepJournal,
              procs: List[multiprocessing.Process]) -> None:
        """Watch spawned workers until the board drains.

        Each tick folds newly appended shard lines into the index and
        reports those points; a tick ends early when a worker exits.
        """
        run_id = journal.run_id
        reported: Set[int] = set()
        try:
            while True:
                remaining = self.board.remaining(
                    run_id, self.cfg.max_batch_attempts)
                self._report_lost(procs, reported, run_id)
                self._collect(self.store.refresh())
                alive = [p for p in procs if p.is_alive()]
                if remaining == 0 or not alive:
                    break
                if self._stop.is_set():
                    self.log.warning(
                        "run_draining", run_id=run_id,
                        remaining=remaining, workers=len(alive))
                    for proc in alive:
                        proc.terminate()
                    break
                multiprocessing.connection.wait(
                    [p.sentinel for p in alive],
                    timeout=self.cfg.poll_interval)
        finally:
            for proc in procs:
                proc.join(timeout=max(5.0, self.cfg.lease_ttl * 2))
            self._report_lost(procs, reported, run_id)
            failure = self._merge_spools(len(procs), run_id)
        if failure is not None:
            raise failure

    def _merge_spools(self, count: int, run_id: str
                      ) -> Optional[PointExecutionError]:
        """Fold worker spools into the tracer; the first study error."""
        failure = None
        for i in range(count):
            path = _spool_path(self.store.directory, f"{run_id}-w{i}")
            try:
                with open(path, encoding="utf-8") as handle:
                    spool = json.load(handle)
            except FileNotFoundError:
                continue
            os.remove(path)
            if TRACER.enabled:
                TRACER.extend(spool["spans"])
            error = spool["error"]
            if error is not None and failure is None:
                failure = PointExecutionError(
                    error["message"], key=error["key"],
                    study=error["study"], params=error["params"])
        return failure

    def _report_lost(self, procs: List[multiprocessing.Process],
                     reported: Set[int], run_id: str) -> None:
        for proc in procs:
            pid = proc.pid or 0
            if proc.is_alive() or pid in reported:
                continue
            reported.add(pid)
            if proc.exitcode not in (0, None):
                self.log.error(
                    "worker_lost", run_id=run_id, worker=pid,
                    exitcode=proc.exitcode,
                    last_heartbeat=self.board.last_heartbeat(run_id),
                )

    # ------------------------------------------------------------------
    def _stored(self, result: PointResult) -> None:
        """An in-process drain stored ``result``: report it."""
        key = result.point.key
        result.point = self._pending.get(key, result.point)
        self._fresh[key] = result
        if self.progress is not None:
            self.progress(result)

    def _collect(self, records: List[StoredResult]) -> None:
        """Report pending points a store refresh found stored."""
        for record in records:
            point = self._pending.get(record.key)
            if point is None or record.key in self._fresh:
                continue
            self._stored(PointResult(
                point=point, metrics=dict(record.metrics),
                cached=False, elapsed=record.elapsed))

    def _assemble(self, points: List[ExperimentPoint]
                  ) -> List[PointResult]:
        """Results in spec order; reports every point not yet reported.

        The first slot of a point this drive executed is its fresh
        result; every other slot is a cache hit (repeated grid values
        cost nothing), read from the store or copied from the fresh
        result.
        """
        results: List[PointResult] = []
        seen: Set[str] = set()
        for point in points:
            key = point.key
            fresh = self._fresh.get(key)
            if fresh is not None and key not in seen:
                seen.add(key)
                results.append(fresh)
                continue
            if fresh is not None:
                result = PointResult(
                    point=point, metrics=dict(fresh.metrics),
                    cached=True, elapsed=fresh.elapsed,
                    metric_set=fresh.metric_set)
            else:
                record = self.store.get(key)
                if record is None:
                    raise FabricIncompleteError(
                        f"point {key} missing from store after a "
                        f"complete run (shard corruption?)",
                        run_id=self.run_id,
                    )
                result = PointResult(
                    point=point, metrics=dict(record.metrics),
                    cached=True, elapsed=record.elapsed)
            seen.add(key)
            self.log.info("point_done", key=key, cached=True,
                          elapsed=result.elapsed)
            if self.progress is not None:
                self.progress(result)
            results.append(result)
        return results

    def _write_manifest(self, spec: SweepSpec, journal: SweepJournal,
                        outcome: SweepResult, started_wall: float,
                        resumed: bool) -> Optional[str]:
        if not self.manifest:
            return None
        manifest = build_manifest(
            run_id=self.run_id,
            spec_payload=spec.payload(),
            points=[{
                "key": r.point.key,
                "params": r.point.as_dict(),
                "cached": r.cached,
                "elapsed": r.elapsed,
            } for r in outcome.results],
            workers=self.workers,
            started=started_wall,
            finished=time.time(),
            store_path=self.store.directory,
            trace_path=self.trace_path,
            events_path=self.log.path,
            fabric={
                "journal": (journal_path(self.store.directory,
                                         self.run_id)
                            if journal.batches else None),
                "batches": len(journal.batches),
                "batch_size": journal.batch_size,
                "lease_ttl": self.cfg.lease_ttl,
                "max_batch_attempts": self.cfg.max_batch_attempts,
                "counts": self.board.counts(self.run_id),
                "resumed": resumed,
            },
            resumed_from=self.run_id if resumed else None,
        )
        # Beside the event log: the store directory by default, or
        # wherever the caller keeps the run's artefacts.
        anchor = self.log.path or self.store.path
        try:
            return publish_manifest(anchor, manifest)
        except OSError as exc:
            # Provenance must never take the sweep down; the results
            # themselves are already safely in the store.
            self.log.warning("manifest_error", path=anchor,
                             error=str(exc))
            return None

    def close(self) -> None:
        """Release the lease board (and a store this runner opened);
        remove a scratch store."""
        self.board.close()
        if self._owns_store:
            self.store.close()
        if self._scratch is not None:
            self._scratch.cleanup()


def _auto_batch_size(pending: int, workers: int) -> int:
    """About four lease batches per worker, clamped to [1, 64]."""
    if pending == 0:
        return 1
    return max(1, min(64, math.ceil(pending / max(workers * 4, 1))))
