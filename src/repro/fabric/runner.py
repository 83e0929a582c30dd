"""Fabric scheduler: journaled, lease-driven sweep execution.

Where :class:`~repro.experiments.runner.SweepRunner` hands points to an
anonymous pool and loses everything a killed worker was holding, the
fabric plans a run *durably* and executes it through leases:

1. **Plan** — expand + bind the spec (same code path as the in-process
   runner, so the key set is identical), drop points already in the
   sharded store, chunk the rest into hash-range batches, and write an
   atomic journal (``journal-<run_id>.json``).
2. **Execute** — workers (in-process for ``workers=1``, otherwise
   ``multiprocessing.Process`` fleets sharing only the store directory)
   loop: lease a batch, execute its points with per-point timeout and
   bounded retries, append results to the shards, heartbeat, complete.
   A worker that dies mid-batch simply stops heartbeating: its lease
   expires and a sibling steals the batch (``lease_stolen`` event).
3. **Resume** — ``FabricRunner.resume(run_id)`` reloads the journal,
   verifies the spec hash, and re-drives only batches the lease board
   has not marked done; points the dead run already stored come back as
   cache hits, so a killed-and-resumed sweep is bit-identical to an
   uninterrupted one (differential-tested).

Every durable write follows the fabric discipline (``O_APPEND`` single
write or temp+rename — lint rule FAB001); the event trail
(``lease_stolen`` / ``point_retry`` / ``worker_lost`` / ``batch_*``)
flows through the PR 6 :class:`~repro.obs.log.EventLog`.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.runner import (
    EVENTS_NAME,
    PointExecutionError,
    PointResult,
    SweepResult,
    bind_spec_points,
    execute_point,
)
from repro.experiments.spec import ExperimentPoint, SweepSpec
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


class _PointTimeout(Exception):
    pass


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
) -> None:
    """Lease/execute loop — the body of every fabric worker.

    Returns when the board has nothing left that can make progress
    (all done, or all remaining attempts exhausted), or — for
    in-process drains — when ``stop`` is set (graceful drain: the
    current batch is never abandoned mid-lease, the loop just stops
    acquiring new ones).
    """
    run_id = journal.run_id
    batch_by_id = {b.batch_id: b for b in journal.batches}
    while True:
        if stop is not None and stop.is_set():
            return
        lease = board.acquire(run_id, worker_tag, cfg.lease_ttl,
                              cfg.max_batch_attempts)
        if lease is None:
            if board.remaining(run_id, cfg.max_batch_attempts) == 0:
                return
            # Someone else holds a live lease; wake up around the time
            # it could expire so a death is noticed promptly.
            time.sleep(min(0.2, max(cfg.lease_ttl / 4.0, 0.01)))
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
            first_point = True
            for key, params in zip(batch.keys, batch.params):
                existing = store.get(key)
                if existing is not None:
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
                metric_set, elapsed = _execute_with_retry(
                    point, cfg, log, batch.batch_id, worker_tag)
                store.put(point, metric_set.flatten(), elapsed)
                board.heartbeat(run_id, batch.batch_id, worker_tag,
                                cfg.lease_ttl)
                if log is not None:
                    log.info("point_done", key=key, cached=False,
                             elapsed=elapsed, batch=batch.batch_id,
                             worker=os.getpid())
                if first_point:
                    first_point = False
                    _maybe_fault(store.directory, allow_fault)
            board.complete(run_id, batch.batch_id, worker_tag)
            if log is not None:
                log.info("batch_done", batch=batch.batch_id,
                         owner=worker_tag, attempts=lease.attempts)
        except Exception as exc:
            board.fail(run_id, batch.batch_id, worker_tag,
                       f"{type(exc).__name__}: {exc}")
            if log is not None:
                log.error("batch_failed", batch=batch.batch_id,
                          owner=worker_tag, attempts=lease.attempts,
                          error=f"{type(exc).__name__}: {exc}")
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
    """One point with per-point timeout and bounded in-lease retries."""
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
            if attempt > cfg.point_retries:
                if log is not None:
                    log.error("point_error", key=point.key,
                              batch=batch_id, owner=worker_tag,
                              reason=reason, attempts=attempt,
                              error=str(exc))
                if timed_out:
                    raise PointExecutionError(
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
    contract that later lets workers live on other hosts.
    """
    store = ShardedResultStore(directory, shards=shards,
                               index_writes=False,
                               refresh_on_open=False)
    board = LeaseBoard(os.path.join(directory, LEASES_NAME))
    journal = load_journal(directory, run_id)
    log = None
    if log_path is not None:
        log = EventLog(path=log_path, run_id=run_id,
                       level=cfg.log_level)
    try:
        _drain_board(store, journal, board, log, cfg, worker_tag,
                     allow_fault=True)
    finally:
        board.close()
        store.close()


class FabricRunner:
    """Journaled, resumable sweep execution over a sharded store.

    Parameters
    ----------
    store:
        A :class:`~repro.fabric.store.ShardedResultStore` (or a
        directory path, opened as one).  Journal, lease board, event
        log and manifest all live in its directory.
    workers:
        Worker count. ``1`` drains the board in-process;  more spawns
        ``multiprocessing.Process`` workers.  ``spawn_workers=True``
        forces processes even for one worker (what the CLI uses, so a
        fabric sweep always survives the death of any single worker
        process).
    batch_size:
        Points per lease batch; default sizes the plan to about four
        batches per worker (steal granularity without lease churn).
    lease_ttl / max_batch_attempts / point_timeout / point_retries:
        Lease state-machine knobs (see :mod:`repro.fabric.lease`).
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
        progress: Optional[Any] = None,
        spawn_workers: Optional[bool] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if isinstance(store, str):
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
        self.run_id = run_id or new_run_id()
        self.spawn_workers = (workers > 1 if spawn_workers is None
                              else spawn_workers)
        self._events_path = os.path.join(store.directory, EVENTS_NAME)
        if log is None:
            log = EventLog(path=self._events_path, run_id=self.run_id)
        else:
            log.run_id = self.run_id
        self.log = log
        self.board = LeaseBoard(
            os.path.join(store.directory, LEASES_NAME))
        self._stop = threading.Event()

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
        """Plan, journal and execute a fresh fabric run."""
        points = bind_spec_points(spec)
        cached_keys = {
            p.key for p in points if self.store.get(p.key) is not None
        }
        seen: Dict[str, bool] = {}
        pending: List[Tuple[str, Dict[str, Any]]] = []
        for point in points:
            if point.key in cached_keys or point.key in seen:
                continue
            seen[point.key] = True
            pending.append((point.key, point.as_dict()))
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
            cached=len(cached_keys),
            workers=self.workers,
            batch_size=batch_size,
            created=time.time(),
        )
        journal.save()
        return self._drive(spec, journal, resumed=False)

    def resume(self, run_id: str,
               spec: Optional[SweepSpec] = None) -> SweepResult:
        """Re-drive an interrupted run from its journal.

        Verifies the journal's spec hash (and, when a spec is supplied,
        that it hashes to the same identity) before touching anything:
        resuming the wrong journal would poison the store with points
        labelled under another run's provenance.
        """
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
        return self._drive(spec, journal, resumed=True)

    # ------------------------------------------------------------------
    def _drive(self, spec: SweepSpec, journal: SweepJournal,
               resumed: bool) -> SweepResult:
        started = time.perf_counter()
        started_wall = time.time()
        run_id = journal.run_id
        # Cached == everything already in the store as of *this* drive:
        # on resume that includes points the killed run stored.
        points = bind_spec_points(spec)
        precached = {
            p.key for p in points if self.store.get(p.key) is not None
        }
        self.board.register(run_id,
                            [b.batch_id for b in journal.batches])
        open_batches = [
            b for b in journal.batches
            if b.batch_id not in set(self.board.done_batches(run_id))
        ]
        self.log.info(
            "run_start", study=spec.study, points=len(points),
            cached=len(precached), batches=len(journal.batches),
            open_batches=len(open_batches), workers=self.workers,
            fabric=True, resumed=resumed,
        )
        if open_batches:
            self._execute(journal)
        self.store.refresh()
        exhausted = self.board.exhausted(run_id,
                                         self.cfg.max_batch_attempts)
        remaining = self.board.remaining(run_id,
                                         self.cfg.max_batch_attempts)
        if exhausted or remaining:
            raise FabricIncompleteError(
                f"fabric run {run_id} incomplete: "
                f"{remaining} batch(es) unfinished, "
                f"{len(exhausted)} exhausted "
                f"{[e['batch'] for e in exhausted]}; resume with "
                f"`repro sweep --resume {run_id}`",
                run_id=run_id, counts=self.board.counts(run_id),
                failed=exhausted,
            )
        results = self._assemble(points, precached)
        outcome = SweepResult(
            spec=spec, results=results,
            wall_time=time.perf_counter() - started,
            run_id=run_id,
        )
        outcome.manifest_path = self._write_manifest(
            spec, journal, outcome, started_wall, resumed)
        self.log.info("run_end", study=spec.study, points=len(outcome),
                      cache_hits=outcome.cache_hits,
                      executed=outcome.executed,
                      wall_time=outcome.wall_time, fabric=True)
        return outcome

    def _execute(self, journal: SweepJournal) -> None:
        if not self.spawn_workers:
            worker_tag = f"{journal.run_id}-inproc"
            _drain_board(self.store, journal, self.board, self.log,
                         self.cfg, worker_tag, allow_fault=False,
                         stop=self._stop)
            return
        procs: List[multiprocessing.Process] = []
        count = min(self.workers, max(1, len(journal.batches)))
        try:
            for i in range(count):
                proc = multiprocessing.Process(
                    target=_fabric_worker_main,
                    args=(self.store.directory, self.store.shards,
                          journal.run_id, f"{journal.run_id}-w{i}",
                          self.cfg, self._events_path),
                    daemon=True,
                )
                proc.start()
                procs.append(proc)
        except (OSError, ImportError, PermissionError):
            # Platform can't start processes (sandbox): drain the board
            # in-process rather than failing the sweep.
            for proc in procs:
                proc.join()
            _drain_board(self.store, journal, self.board, self.log,
                         self.cfg, f"{journal.run_id}-inproc",
                         allow_fault=False, stop=self._stop)
            return
        reported: Dict[int, bool] = {}
        run_id = journal.run_id
        try:
            while True:
                remaining = self.board.remaining(
                    run_id, self.cfg.max_batch_attempts)
                alive = [p for p in procs if p.is_alive()]
                self._report_lost(procs, reported, run_id)
                if remaining == 0:
                    break
                if self._stop.is_set():
                    self.log.warning(
                        "run_draining", run_id=run_id,
                        remaining=remaining, workers=len(alive))
                    for proc in alive:
                        proc.terminate()
                    break
                if not alive:
                    raise FabricIncompleteError(
                        f"fabric run {run_id}: every worker exited "
                        f"with {remaining} batch(es) unfinished; "
                        f"resume with `repro sweep --resume {run_id}`",
                        run_id=run_id,
                        counts=self.board.counts(run_id),
                    )
                time.sleep(0.05)
        finally:
            for proc in procs:
                proc.join(timeout=max(5.0, self.cfg.lease_ttl * 2))
            self._report_lost(procs, reported, run_id)

    def _report_lost(self, procs: List[multiprocessing.Process],
                     reported: Dict[int, bool], run_id: str) -> None:
        for proc in procs:
            pid = proc.pid or 0
            if proc.is_alive() or pid in reported:
                continue
            reported[pid] = True
            if proc.exitcode not in (0, None):
                self.log.error(
                    "worker_lost", run_id=run_id, worker=pid,
                    exitcode=proc.exitcode,
                    last_heartbeat=self.board.last_heartbeat(run_id),
                )

    # ------------------------------------------------------------------
    def _assemble(self, points: List[ExperimentPoint],
                  precached: set) -> List[PointResult]:
        results: List[PointResult] = []
        first_seen: Dict[str, bool] = {}
        for point in points:
            record = self.store.get(point.key)
            if record is None:
                raise FabricIncompleteError(
                    f"point {point.key} missing from store after a "
                    f"complete run (shard corruption?)",
                    run_id=self.run_id,
                )
            cached = point.key in precached or point.key in first_seen
            first_seen[point.key] = True
            result = PointResult(
                point=point, metrics=dict(record.metrics),
                cached=cached, elapsed=record.elapsed,
            )
            results.append(result)
            if self.progress is not None:
                self.progress(result)
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
            store_path=self.store.path,
            events_path=self._events_path,
            fabric={
                "journal": journal_path(self.store.directory,
                                        self.run_id),
                "batches": len(journal.batches),
                "batch_size": journal.batch_size,
                "lease_ttl": self.cfg.lease_ttl,
                "max_batch_attempts": self.cfg.max_batch_attempts,
                "counts": self.board.counts(self.run_id),
                "resumed": resumed,
            },
            resumed_from=self.run_id if resumed else None,
        )
        try:
            return publish_manifest(self.store.path, manifest)
        except OSError as exc:
            self.log.warning("manifest_error", path=self.store.path,
                             error=str(exc))
            return None

    def close(self) -> None:
        self.board.close()


def _auto_batch_size(pending: int, workers: int) -> int:
    """About four lease batches per worker, clamped to [1, 64]."""
    if pending == 0:
        return 1
    return max(1, min(64, math.ceil(pending / max(workers * 4, 1))))
