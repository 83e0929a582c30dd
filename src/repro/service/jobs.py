"""Job lifecycle for the sweep service: dedup, execute, stream.

A *job* is one submitted StudySpec/SweepSpec resolved to the engine's
:class:`~repro.experiments.spec.SweepSpec`.  Jobs are identified by
their run_id (so journals, manifests, and event-log records line up
with the job id a client holds) and deduplicated by spec hash: two
clients POSTing the same spec — concurrently or hours apart — attach
to one execution sharing one result-store write per point.  Point-level
dedup then happens inside the runner against the shared
:class:`~repro.fabric.store.ShardedResultStore`, so even *different*
specs overlapping in grid points share work.

Threading model (the part that has to be right):

- all job bookkeeping (submit, status, subscribe) runs on the event
  loop — the asyncio server is single-threaded, which makes concurrent
  identical submits naturally race-free;
- each job's sweep runs in a ``ThreadPoolExecutor`` slot, opening its
  *own* store handle over the shared directory (SQLite connections are
  thread-affine);
- the only executor→loop traffic is plain-int counter updates (GIL
  atomic) plus terminal-state flags; the per-job pump task on the loop
  turns those, and the tailed ``events.jsonl``, into hub messages.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import os
import time
from typing import Any, Dict, List, Optional, Tuple

from repro import api
from repro.experiments.runner import EVENTS_NAME, SweepResult
from repro.experiments.spec import SweepSpec
from repro.fabric.runner import FabricIncompleteError, FabricRunner
from repro.fabric.store import ShardedResultStore
from repro.metrics.stats import MetricSet
from repro.metrics.telemetry import IntervalTelemetry
from repro.obs.log import EventLog, EventTailer, new_run_id
from repro.obs.provenance import spec_hash
from repro.service.hub import Hub

__all__ = ["Job", "JobManager", "TERMINAL_STATES"]

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
INCOMPLETE = "incomplete"

TERMINAL_STATES = (DONE, ERROR, INCOMPLETE)

PUMP_INTERVAL = 0.05


class Job:
    """One deduplicated sweep execution and its streaming state."""

    def __init__(self, run_id: str, spec: SweepSpec, digest: str,
                 workers: int, store_dir: str,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.run_id = run_id
        self.spec = spec
        self.spec_hash = digest
        self.workers = workers
        self.store_dir = store_dir
        self.state = QUEUED
        self.error: Optional[str] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        self.submissions = 1
        self.total = spec.size
        self.done = 0
        self.cache_hits = 0
        self.executed = 0
        self.manifest_path: Optional[str] = None
        self.results: List[Dict[str, Any]] = []
        self.hub = Hub(loop)
        self._runner: Optional[FabricRunner] = None
        # Job-level telemetry: read-backed stats over the live counters,
        # snapshotted by the pump whenever progress moved.
        metrics = MetricSet()
        metrics.gauge("total", read=lambda: self.total)
        metrics.counter("done", read=lambda: self.done)
        metrics.counter("cache_hits", read=lambda: self.cache_hits)
        metrics.counter("executed", read=lambda: self.executed)
        self.telemetry = IntervalTelemetry(metrics, every=1)

    # ------------------------------------------------------------------
    def note_point(self, result: Any) -> None:
        """Runner progress callback (executor thread: plain ints only)."""
        self.done += 1
        if result.cached:
            self.cache_hits += 1
        else:
            self.executed += 1

    def status(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "job": self.run_id,
            "run_id": self.run_id,
            "state": self.state,
            "study": self.spec.study,
            "spec_hash": self.spec_hash,
            "workers": self.workers,
            "submissions": self.submissions,
            "total": self.total,
            "done": self.done,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "manifest": self.manifest_path,
            "telemetry_snapshots": len(self.telemetry.snapshots),
        }
        if self.state == INCOMPLETE:
            payload["resume"] = (
                f"repro sweep --resume {self.run_id} "
                f"--store {self.store_dir}")
        return payload


class JobManager:
    """Submit, deduplicate, execute and stream sweep jobs."""

    def __init__(self, directory: str, max_jobs: int = 2,
                 default_workers: int = 1,
                 log: Optional[EventLog] = None,
                 loop: Optional[asyncio.AbstractEventLoop] = None,
                 ) -> None:
        self.directory = os.path.abspath(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.events_path = os.path.join(self.directory, EVENTS_NAME)
        self.default_workers = default_workers
        self.log = log
        self._loop = loop or asyncio.get_event_loop()
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_jobs, thread_name_prefix="repro-job")
        self._jobs: Dict[str, Job] = {}
        self._by_hash: Dict[str, str] = {}
        self._futures: Dict[str, asyncio.Future] = {}
        self._pumps: Dict[str, asyncio.Task] = {}
        self.draining = False
        # The loop-thread query handle over the shared store directory.
        self.store = ShardedResultStore(self.directory)

    # -- submission -----------------------------------------------------
    def submit(self, payload: Any,
               workers: Optional[int] = None) -> Tuple[Job, bool]:
        """Resolve, dedupe and (if new) launch a job.

        Returns ``(job, deduplicated)``.  Must be called on the event
        loop: loop serialization is what makes two simultaneous
        identical submits resolve to one execution.
        """
        if self.draining:
            raise RuntimeError("service is draining; not accepting jobs")
        spec = api.sweep_from_payload(payload)
        digest = spec_hash(spec.payload())
        known = self._by_hash.get(digest)
        if known is not None:
            job = self._jobs[known]
            if job.state != ERROR:
                job.submissions += 1
                return job, True
            # A failed attempt does not poison the spec forever:
            # fall through and run it afresh.
        job = Job(
            run_id=new_run_id(),
            spec=spec,
            digest=digest,
            workers=max(1, workers or self.default_workers),
            store_dir=self.directory,
            loop=self._loop,
        )
        self._jobs[job.run_id] = job
        self._by_hash[digest] = job.run_id
        if self.log is not None:
            self.log.info("job_submitted", job=job.run_id,
                          study=job.spec.study, points=job.total,
                          spec_hash=digest, workers=job.workers)
        # Capture the event-log watermark *before* the job thread can
        # write run_start: the pump must not start tailing "at the end"
        # of a file the runner already appended to.
        try:
            tail_from = os.path.getsize(self.events_path)
        except OSError:
            tail_from = 0
        future = self._loop.run_in_executor(
            self._executor, self._run_job, job)
        self._futures[job.run_id] = future
        self._pumps[job.run_id] = self._loop.create_task(
            self._pump(job, tail_from))
        return job, False

    def get(self, run_id: str) -> Optional[Job]:
        return self._jobs.get(run_id)

    def jobs(self) -> List[Job]:
        return sorted(self._jobs.values(), key=lambda j: j.created)

    # -- execution (executor thread) ------------------------------------
    def _run_job(self, job: Job) -> None:
        job.started = time.time()
        job.state = RUNNING
        runner: Optional[FabricRunner] = None
        try:
            runner = FabricRunner(self.directory, workers=job.workers,
                                  run_id=job.run_id,
                                  progress=job.note_point)
            job._runner = runner
            outcome = runner.run(job.spec)
            job.results = _result_rows(outcome)
            job.manifest_path = outcome.manifest_path
            job.state = DONE
        except FabricIncompleteError as exc:
            job.error = str(exc)
            job.state = INCOMPLETE
        except Exception as exc:  # surfaced via status, never raised
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = ERROR
        finally:
            job.finished = time.time()
            job._runner = None
            if runner is not None:
                runner.close()

    # -- streaming (event loop) -----------------------------------------
    async def _pump(self, job: Job, tail_from: int = 0) -> None:
        """Bridge the event log and counters into the job's hub.

        Tails ``events.jsonl`` from the moment of submission (filtered
        to this job's run_id — the file is shared by every run in the
        directory) and snapshots telemetry whenever progress moved.
        One pump per job, any number of hub subscribers.
        """
        tailer = EventTailer(self.events_path, offset=tail_from,
                             run_id=job.run_id)
        job.hub.publish(_telemetry_message(job))
        last_done = job.done
        while True:
            for record in tailer.poll():
                job.hub.publish({"type": "event", "record": record})
            if job.done != last_done:
                last_done = job.done
                job.hub.publish(_telemetry_message(job))
            if job.state in TERMINAL_STATES:
                # One final poll: the runner wrote run_end before the
                # state flipped, but possibly after our last read.
                for record in tailer.poll():
                    job.hub.publish({"type": "event", "record": record})
                job.hub.publish(_telemetry_message(job))
                job.hub.close({"type": "job", **job.status()})
                return
            await asyncio.sleep(PUMP_INTERVAL)

    # -- queries --------------------------------------------------------
    def query_results(self, key: Optional[str] = None,
                      study: Optional[str] = None,
                      limit: int = 100) -> List[Dict[str, Any]]:
        """Store rows by key or study (the ``/v1/results`` endpoint)."""
        self.store.refresh()
        if key:
            record = self.store.get(key)
            return [_record_row(record)] if record is not None else []
        rows = self.store.records(study or None)
        return [_record_row(record) for record in rows[:max(0, limit)]]

    # -- drain ----------------------------------------------------------
    async def drain(self, grace: float = 30.0) -> Dict[str, Any]:
        """Stop accepting work; wind down what is running.

        Running jobs are asked to stop cooperatively (their journals
        make ``--resume`` bit-identical later) and awaited up to
        ``grace`` seconds.  Counts what happened so the caller can log
        it.
        """
        self.draining = True
        stopped = 0
        for job in self._jobs.values():
            runner = job._runner
            if runner is not None:
                runner.request_stop()
                stopped += 1
        pending = [f for f in self._futures.values() if not f.done()]
        if pending:
            await asyncio.wait(pending, timeout=grace)
        for task in self._pumps.values():
            if not task.done():
                try:
                    await asyncio.wait_for(task, timeout=2.0)
                except asyncio.TimeoutError:
                    task.cancel()
        self._executor.shutdown(wait=False)
        unfinished = [j.run_id for j in self._jobs.values()
                      if j.state not in TERMINAL_STATES]
        return {"stopped": stopped, "unfinished": unfinished}

    def close(self) -> None:
        self.store.close()


def _telemetry_message(job: Job) -> Dict[str, Any]:
    snapshot = job.telemetry.record(label=job.done)
    return {
        "type": "telemetry",
        "job": job.run_id,
        "label": snapshot.label,
        "values": dict(snapshot.values),
    }


def _result_rows(outcome: SweepResult) -> List[Dict[str, Any]]:
    return [{
        "key": r.point.key,
        "params": r.point.as_dict(),
        "metrics": dict(r.metrics),
        "cached": r.cached,
        "elapsed": r.elapsed,
    } for r in outcome.results]


def _record_row(record: Any) -> Dict[str, Any]:
    return {
        "key": record.key,
        "study": record.study,
        "params": dict(record.params),
        "metrics": dict(record.metrics),
        "elapsed": record.elapsed,
        "created": record.created,
    }
