"""Tests for the resumable sweep fabric.

Covers the three tentpole layers (sharded indexed store, lease board,
journal/checkpoint-resume) plus the differential acceptance criteria:
a killed-and-resumed fabric sweep must be bit-identical to an
uninterrupted serial run, re-executing only the genuinely missing
points.
"""

import json
import os
import time
from contextlib import contextmanager

import pytest

from repro.experiments import ResultStore, SweepSpec, run_sweep
from repro.experiments.registry import _STUDIES, register_study
from repro.experiments.spec import ExperimentPoint
from repro.experiments.store import StoredResult
from repro.fabric import (
    FabricIncompleteError,
    FabricRunner,
    LeaseBoard,
    ShardedResultStore,
    SweepJournal,
    load_journal,
    open_result_store,
)
from repro.fabric.journal import list_runs, plan_batches
from repro.fabric.runner import FAULT_ENV
from repro.obs.provenance import load_manifest, manifest_path_for, spec_hash

TINY_BASE = {"length": 600, "seed": 3}
TINY_GRID = {"ratio": [0.4, 0.6], "suite": ["office", "kernels"]}


def tiny_spec():
    return SweepSpec("caches", base=dict(TINY_BASE),
                     grid={k: list(v) for k, v in TINY_GRID.items()})


def make_record(ratio, metrics=None, study="caches", created=None):
    point = ExperimentPoint.from_dict(study, {"ratio": ratio})
    return StoredResult(
        key=point.key, study=study, params=point.as_dict(),
        metrics=dict(metrics or {"mean_loss": ratio}),
        elapsed=0.1, created=created if created is not None else ratio,
    )


def append_flat(path, point, metrics):
    """Append one record line to a flat JSONL store file."""
    record = StoredResult(key=point.key, study=point.study,
                          params=point.as_dict(), metrics=dict(metrics))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(record.to_json() + "\n")


def event_kinds(directory):
    path = os.path.join(directory, "events.jsonl")
    with open(path) as handle:
        return [json.loads(line)["event"] for line in handle]


def events_of(directory, kind):
    path = os.path.join(directory, "events.jsonl")
    with open(path) as handle:
        return [json.loads(line) for line in handle
                if json.loads(line)["event"] == kind]


# ----------------------------------------------------------------------
# Sharded indexed store
# ----------------------------------------------------------------------
class TestShardedStore:
    def test_round_trip_and_reopen(self, tmp_path):
        store = ShardedResultStore(str(tmp_path), shards=4)
        records = [make_record(r / 10) for r in range(8)]
        for record in records:
            store.put_record(record)
        assert len(store) == 8
        for record in records:
            got = store.get(record.key)
            assert got.metrics == record.metrics
            assert got.params == record.params
        store.close()

        # Reopen: the index remembers its watermarks, nothing re-parsed.
        reopened = ShardedResultStore(str(tmp_path))
        assert reopened.shards == 4  # shard count comes from meta
        assert len(reopened) == 8
        assert sorted(r.key for r in reopened) == sorted(
            r.key for r in records)
        reopened.close()

    def test_last_record_wins(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        store.put_record(make_record(0.5, {"mean_loss": 0.1}))
        store.put_record(make_record(0.5, {"mean_loss": 0.2}))
        assert len(store) == 1
        key = make_record(0.5).key
        assert store.get(key).metrics == {"mean_loss": 0.2}
        store.close()

    def test_records_filter_by_study(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        store.put_record(make_record(0.1, study="caches"))
        store.put_record(make_record(0.2, study="regfile"))
        assert [r.study for r in store.records("caches")] == ["caches"]
        assert len(store.records()) == 2
        store.close()

    def test_put_interface_matches_flat_store(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        point = ExperimentPoint.from_dict("caches", {"ratio": 0.5})
        store.put(point, {"mean_loss": 0.01}, elapsed=0.5)
        assert point.key in store
        assert store.get_point(point).elapsed == 0.5
        store.close()

    def test_worker_appends_fold_in_on_refresh(self, tmp_path):
        parent = ShardedResultStore(str(tmp_path))
        worker = ShardedResultStore(str(tmp_path), index_writes=False,
                                    refresh_on_open=False)
        worker.put_record(make_record(0.3))
        worker.close()
        assert len(parent) == 0  # not yet indexed
        parent.refresh()
        assert len(parent) == 1
        parent.close()

    def test_torn_shard_line_waits_for_completion(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        record = make_record(0.7)
        store.put_record(record)
        # Crash mid-append: half a record, no newline, on some shard.
        torn = make_record(0.9)
        line = (torn.to_json() + "\n").encode()
        shard_path = store.shard_path(store.shard_of(torn.key))
        fd = os.open(shard_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, line[: len(line) // 2])
        os.close(fd)
        store.refresh()
        assert len(store) == 1  # torn tail not consumed, not an error
        assert store.skipped_lines == 0
        # The writer completes the line: the next refresh picks it up.
        fd = os.open(shard_path, os.O_WRONLY | os.O_APPEND)
        os.write(fd, line[len(line) // 2:])
        os.close(fd)
        store.refresh()
        assert len(store) == 2
        assert store.get(torn.key).metrics == torn.metrics
        store.close()

    def test_complete_garbage_line_counted_and_skipped(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        fd = os.open(store.shard_path(0),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        os.write(fd, b"not json\n")
        os.close(fd)
        store.refresh()
        assert len(store) == 0
        assert store.skipped_lines == 1
        store.close()

    def test_compact_drops_dead_and_garbage_lines(self, tmp_path):
        store = ShardedResultStore(str(tmp_path), shards=2)
        store.put_record(make_record(0.5, {"mean_loss": 0.1}))
        store.put_record(make_record(0.5, {"mean_loss": 0.2}))
        store.put_record(make_record(0.6))
        stats = store.compact()
        assert stats.records == 2
        assert stats.dropped_lines == 1
        assert stats.reclaimed > 0
        assert store.get(make_record(0.5).key).metrics == {
            "mean_loss": 0.2}
        # Shard files now hold exactly the live records.
        total_lines = 0
        for shard in range(store.shards):
            try:
                with open(store.shard_path(shard), "rb") as handle:
                    total_lines += handle.read().count(b"\n")
            except OSError:
                pass
        assert total_lines == 2
        store.close()

    def test_index_is_rebuildable_cache(self, tmp_path):
        store = ShardedResultStore(str(tmp_path))
        record = make_record(0.4)
        store.put_record(record)
        store.close()
        os.remove(str(tmp_path / "index.sqlite"))
        reopened = ShardedResultStore(str(tmp_path))
        assert reopened.get(record.key).metrics == record.metrics
        reopened.close()

    def test_flat_store_imports_through_migrate(self, tmp_path):
        from repro.cli import main

        flat = str(tmp_path / "store.jsonl")
        point = ExperimentPoint.from_dict("caches", {"ratio": 0.5})
        append_flat(flat, point, {"mean_loss": 0.01})
        other = ExperimentPoint.from_dict("caches", {"ratio": 0.7})
        append_flat(flat, other, {"mean_loss": 0.02})

        directory = str(tmp_path / "sharded")
        assert main(["store", "migrate", flat, directory]) == 0
        sharded = ShardedResultStore(directory)
        assert len(sharded) == 2
        assert sharded.get(point.key).metrics == {"mean_loss": 0.01}
        assert sharded.get(other.key).metrics == {"mean_loss": 0.02}
        sharded.close()
        # Only `repro store migrate` imports: a store directory holding
        # a flat file does not fold it in on open.
        assert len(ShardedResultStore(str(tmp_path))) == 0

    def test_open_result_store_dispatch(self, tmp_path):
        flat_path = str(tmp_path / "flat.jsonl")
        ResultStore(flat_path)
        assert isinstance(open_result_store(flat_path), ResultStore)
        assert isinstance(open_result_store(str(tmp_path)),
                          ShardedResultStore)
        fresh = str(tmp_path / "newdir")
        assert isinstance(open_result_store(fresh), ShardedResultStore)

    def test_rejects_foreign_schema(self, tmp_path):
        (tmp_path / "fabric.json").write_text('{"schema": "nope/9"}')
        with pytest.raises(ValueError, match="unsupported store schema"):
            ShardedResultStore(str(tmp_path))


# ----------------------------------------------------------------------
# Lease board
# ----------------------------------------------------------------------
class TestLeaseBoard:
    def board(self, tmp_path):
        return LeaseBoard(str(tmp_path / "leases.sqlite"))

    def test_acquire_pending_then_none_while_live(self, tmp_path):
        board = self.board(tmp_path)
        board.register("r1", ["b0000", "b0001"])
        first = board.acquire("r1", "w1", ttl=60, max_attempts=3)
        second = board.acquire("r1", "w1", ttl=60, max_attempts=3)
        assert first.batch_id == "b0000" and not first.stolen
        assert first.attempts == 1
        assert second.batch_id == "b0001"
        # Both leased and within TTL: nothing claimable, work remains.
        assert board.acquire("r1", "w2", ttl=60, max_attempts=3) is None
        assert board.remaining("r1", 3) == 2
        board.close()

    def test_complete_and_heartbeat(self, tmp_path):
        board = self.board(tmp_path)
        board.register("r1", ["b0000"])
        lease = board.acquire("r1", "w1", ttl=60, max_attempts=3)
        assert board.heartbeat("r1", lease.batch_id, "w1", ttl=60)
        assert not board.heartbeat("r1", lease.batch_id, "other", ttl=60)
        assert board.complete("r1", lease.batch_id, "w1")
        assert board.remaining("r1", 3) == 0
        assert board.done_batches("r1") == ["b0000"]
        assert board.counts("r1") == {"done": 1}
        board.close()

    def test_expired_lease_is_stolen(self, tmp_path):
        board = self.board(tmp_path)
        board.register("r1", ["b0000"])
        t0 = 1000.0
        board.acquire("r1", "w1", ttl=10, max_attempts=3, now=t0)
        # Within TTL: not claimable.
        assert board.acquire("r1", "w2", ttl=10, max_attempts=3,
                             now=t0 + 5) is None
        stolen = board.acquire("r1", "w2", ttl=10, max_attempts=3,
                               now=t0 + 11)
        assert stolen is not None and stolen.stolen
        assert stolen.prev_owner == "w1"
        assert stolen.attempts == 2
        # The dead owner's late heartbeat must not revive its claim.
        assert not board.heartbeat("r1", "b0000", "w1", ttl=10,
                                   now=t0 + 12)
        board.close()

    def test_failed_batch_retries_until_exhausted(self, tmp_path):
        board = self.board(tmp_path)
        board.register("r1", ["b0000"])
        for attempt in (1, 2):
            lease = board.acquire("r1", "w1", ttl=60, max_attempts=2)
            assert lease.attempts == attempt
            assert lease.stolen == (attempt > 1)
            board.fail("r1", "b0000", "w1", f"boom {attempt}")
        assert board.acquire("r1", "w1", ttl=60, max_attempts=2) is None
        assert board.remaining("r1", 2) == 0  # cannot make progress
        exhausted = board.exhausted("r1", 2)
        assert [e["batch"] for e in exhausted] == ["b0000"]
        assert "boom 2" in exhausted[0]["error"]
        board.close()

    def test_register_is_idempotent_for_resume(self, tmp_path):
        board = self.board(tmp_path)
        board.register("r1", ["b0000", "b0001"])
        lease = board.acquire("r1", "w1", ttl=60, max_attempts=3)
        board.complete("r1", lease.batch_id, "w1")
        board.register("r1", ["b0000", "b0001"])  # resume re-registers
        assert board.done_batches("r1") == ["b0000"]  # state kept
        board.close()


# ----------------------------------------------------------------------
# Journal / batch planning
# ----------------------------------------------------------------------
class TestJournal:
    def test_plan_batches_sorts_by_key(self):
        pending = [(p.key, p.as_dict()) for p in tiny_spec().expand()]
        batches = plan_batches(pending, batch_size=3)
        assert [b.batch_id for b in batches] == ["b0000", "b0001"]
        assert [len(b) for b in batches] == [3, 1]
        keys = [k for b in batches for k in b.keys]
        assert keys == sorted(keys)  # hash-range partition
        # Replanning a shuffled pending set yields identical batches.
        again = plan_batches(list(reversed(pending)), batch_size=3)
        assert [b.keys for b in again] == [b.keys for b in batches]

    def test_round_trip_and_verify(self, tmp_path):
        spec = tiny_spec()
        payload = spec.payload()
        pending = [(p.key, p.as_dict()) for p in spec.expand()]
        journal = SweepJournal(
            run_id="runX", study=spec.study, spec_payload=payload,
            spec_hash=spec_hash(payload), store_dir=str(tmp_path),
            batches=plan_batches(pending, 2), cached=0, workers=2,
            batch_size=2, created=123.0,
        )
        journal.save()
        loaded = load_journal(str(tmp_path), "runX")
        assert loaded.run_id == "runX"
        assert loaded.pending_points == 4
        assert loaded.spec().payload() == payload
        assert loaded.batch("b0001").keys == journal.batches[1].keys
        with pytest.raises(KeyError):
            loaded.batch("b9999")

    def test_tampered_journal_rejected(self, tmp_path):
        spec = tiny_spec()
        payload = spec.payload()
        journal = SweepJournal(
            run_id="runX", study=spec.study, spec_payload=payload,
            spec_hash="0" * 20, store_dir=str(tmp_path), batches=[],
        )
        journal.save()
        with pytest.raises(ValueError, match="inconsistent"):
            load_journal(str(tmp_path), "runX")

    def test_unknown_run_lists_known_runs(self, tmp_path):
        spec = tiny_spec()
        payload = spec.payload()
        SweepJournal(
            run_id="known", study=spec.study, spec_payload=payload,
            spec_hash=spec_hash(payload), store_dir=str(tmp_path),
            batches=[],
        ).save()
        with pytest.raises(FileNotFoundError, match="known"):
            load_journal(str(tmp_path), "absent")
        assert list_runs(str(tmp_path)) == ["known"]


# ----------------------------------------------------------------------
# Fabric runner: differential against an uninterrupted serial run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_oracle():
    """Uninterrupted serial reference run (no store)."""
    return run_sweep(tiny_spec(), store=None, workers=1)


def assert_bit_identical(outcome, oracle):
    assert [r.point.key for r in outcome] == [
        r.point.key for r in oracle]
    assert outcome.metrics_by_key() == oracle.metrics_by_key()


class TestFabricRunner:
    def test_serial_in_process_matches_sweep_runner(self, tmp_path,
                                                    serial_oracle):
        runner = FabricRunner(str(tmp_path), workers=1)
        outcome = runner.run(tiny_spec())
        runner.close()
        assert outcome.executed == 4 and outcome.cache_hits == 0
        assert_bit_identical(outcome, serial_oracle)

        # Rerun over the same store: every point a cache hit, values
        # unchanged.
        rerun = FabricRunner(str(tmp_path), workers=1)
        again = rerun.run(tiny_spec())
        rerun.close()
        assert again.cache_hits == 4 and again.executed == 0
        assert_bit_identical(again, serial_oracle)

    def test_spawned_workers_match_sweep_runner(self, tmp_path,
                                                serial_oracle):
        runner = FabricRunner(str(tmp_path), workers=2, batch_size=1)
        outcome = runner.run(tiny_spec())
        runner.close()
        assert outcome.executed == 4
        assert_bit_identical(outcome, serial_oracle)
        kinds = event_kinds(str(tmp_path))
        assert "run_start" in kinds and "run_end" in kinds
        assert kinds.count("batch_done") == 4

    def test_duplicate_grid_values_fan_out(self, tmp_path):
        spec = SweepSpec("caches", base=dict(TINY_BASE),
                         grid={"ratio": [0.5, 0.5], "suite": ["office"]})
        runner = FabricRunner(str(tmp_path), workers=1)
        outcome = runner.run(spec)
        runner.close()
        assert len(outcome) == 2
        assert outcome.executed == 1 and outcome.cache_hits == 1
        assert outcome.results[0].metrics == outcome.results[1].metrics
        assert len(ShardedResultStore(str(tmp_path))) == 1

    def test_manifest_records_fabric_plan(self, tmp_path):
        runner = FabricRunner(str(tmp_path), workers=1, batch_size=2)
        outcome = runner.run(tiny_spec())
        runner.close()
        manifest = load_manifest(outcome.manifest_path)
        fabric = manifest["fabric"]
        assert fabric["batches"] == 2 and fabric["batch_size"] == 2
        assert fabric["counts"] == {"done": 2}
        assert fabric["resumed"] is False
        assert "resumed_from" not in manifest
        assert os.path.exists(fabric["journal"])
        assert manifest["totals"]["points"] == 4

    def test_consecutive_runs_keep_their_own_manifests(self, tmp_path):
        runner = FabricRunner(str(tmp_path), workers=1)
        first = runner.run(tiny_spec())
        runner.close()
        runner = FabricRunner(str(tmp_path), workers=1)
        second = runner.run(tiny_spec())
        runner.close()
        assert first.run_id != second.run_id
        for outcome in (first, second):
            assert os.path.dirname(outcome.manifest_path) == \
                os.path.join(str(tmp_path), "manifests")
            manifest = load_manifest(outcome.manifest_path)
            assert manifest["run_id"] == outcome.run_id
        latest = load_manifest(manifest_path_for(
            os.path.join(str(tmp_path), "fabric.json")))
        assert latest["run_id"] == second.run_id

    def test_resume_rejects_mismatched_spec(self, tmp_path):
        runner = FabricRunner(str(tmp_path), workers=1)
        runner.run(tiny_spec())
        run_id = runner.run_id
        runner.close()
        other = SweepSpec("caches", base=dict(TINY_BASE),
                          grid={"ratio": [0.9]})
        resumer = FabricRunner(str(tmp_path), workers=1)
        with pytest.raises(ValueError, match="spec hash mismatch"):
            resumer.resume(run_id, spec=other)
        resumer.close()

    def test_kill_and_resume_is_bit_identical(self, tmp_path,
                                              monkeypatch,
                                              serial_oracle):
        """The crash/resume acceptance test: hard-kill (SIGKILL) a
        worker mid-batch, resume, and require the final store to be
        bit-identical to an uninterrupted serial run with only the
        missing points re-executed."""
        directory = str(tmp_path)
        monkeypatch.setenv(FAULT_ENV, "kill-worker")
        # Two workers over a one-batch plan: exactly one process is
        # spawned, and it dies mid-batch.
        runner = FabricRunner(directory, workers=2, batch_size=4,
                              lease_ttl=0.5)
        with pytest.raises(FabricIncompleteError) as excinfo:
            runner.run(tiny_spec())
        run_id = runner.run_id
        runner.close()
        assert excinfo.value.run_id == run_id
        assert f"--resume {run_id}" in str(excinfo.value)
        assert os.path.exists(os.path.join(directory, ".fault-fired"))

        # The dead worker stored at least its first point; not all.
        survivors = ShardedResultStore(directory)
        stored_before = len(survivors)
        survivors.close()
        assert 1 <= stored_before < 4

        monkeypatch.delenv(FAULT_ENV)
        time.sleep(0.6)  # let the dead worker's lease expire
        resumer = FabricRunner(directory, workers=2, lease_ttl=0.5)
        outcome = resumer.resume(run_id)
        resumer.close()

        assert_bit_identical(outcome, serial_oracle)
        assert outcome.run_id == run_id
        assert outcome.cache_hits == stored_before
        assert outcome.executed == 4 - stored_before

        kinds = event_kinds(directory)
        assert "worker_lost" in kinds
        assert "lease_stolen" in kinds
        assert "run_resumed" in kinds
        retried = events_of(directory, "point_retry")
        assert any(e["payload"]["reason"] == "lease re-run"
                   for e in retried)

        manifest = load_manifest(manifest_path_for(
            os.path.join(directory, "fabric.json")))
        assert manifest["resumed_from"] == run_id
        assert manifest["fabric"]["resumed"] is True

    def test_surviving_worker_steals_killed_workers_batch(
            self, tmp_path, monkeypatch, serial_oracle):
        directory = str(tmp_path)
        monkeypatch.setenv(FAULT_ENV, "kill-worker")
        runner = FabricRunner(directory, workers=2, batch_size=1,
                              lease_ttl=0.5)
        outcome = runner.run(tiny_spec())
        runner.close()
        # One worker died, but the run still completed in one go.
        assert_bit_identical(outcome, serial_oracle)
        kinds = event_kinds(directory)
        assert "worker_lost" in kinds
        assert "run_end" in kinds


# ----------------------------------------------------------------------
# Per-point timeout and bounded retry
# ----------------------------------------------------------------------
def _sleepy_study(params):
    time.sleep(float(params["duration"]))
    return {"slept": float(params["duration"])}


@contextmanager
def temporary_study(name):
    register_study(name, "sleeps for the timeout tests",
                   defaults={"duration": 30.0})(_sleepy_study)
    try:
        yield
    finally:
        _STUDIES.pop(name, None)


class TestPointTimeout:
    def test_timeout_retries_then_exhausts_batch(self, tmp_path):
        with temporary_study("fabric_sleepy"):
            spec = SweepSpec("fabric_sleepy",
                             grid={"duration": [30.0]})
            runner = FabricRunner(
                str(tmp_path), workers=1, point_timeout=0.05,
                point_retries=1, max_batch_attempts=1,
            )
            with pytest.raises(FabricIncompleteError) as excinfo:
                runner.run(spec)
            runner.close()
        assert excinfo.value.failed  # batch reported exhausted
        retried = events_of(str(tmp_path), "point_retry")
        assert any(e["payload"]["reason"] == "timeout" for e in retried)
        errors = events_of(str(tmp_path), "point_error")
        assert errors and errors[0]["payload"]["reason"] == "timeout"
        failed = events_of(str(tmp_path), "batch_failed")
        assert failed and "timed out" in failed[0]["payload"]["error"]

    def test_fast_points_unaffected_by_timeout(self, tmp_path):
        with temporary_study("fabric_sleepy"):
            spec = SweepSpec("fabric_sleepy",
                             grid={"duration": [0.0, 0.001]})
            runner = FabricRunner(str(tmp_path), workers=1,
                                  point_timeout=10.0)
            outcome = runner.run(spec)
            runner.close()
        assert outcome.executed == 2
        assert [r.metrics["slept"] for r in outcome] == [0.0, 0.001]


# ----------------------------------------------------------------------
# Lease renewal throttle
# ----------------------------------------------------------------------
class _CountingBoard(LeaseBoard):
    renewals = 0

    def heartbeat(self, *args, **kwargs):
        self.renewals += 1
        return super().heartbeat(*args, **kwargs)


class TestLeaseRenewal:
    TTL = 4.0

    def drain_one_batch(self, directory, points, seconds_per_point):
        """Drain a one-batch plan of ``points`` instant points under a
        fake clock that advances ``seconds_per_point`` per stored
        point; the number of lease renewals."""
        from repro.experiments.runner import bind_spec_points
        from repro.fabric.runner import FabricConfig, _drain_board

        with temporary_study("fabric_instant"):
            spec = SweepSpec("fabric_instant", grid={
                "duration": [i * 1e-6 for i in range(points)]})
            planned = [(p.key, p.as_dict())
                       for p in bind_spec_points(spec)]
            journal = SweepJournal(
                run_id="renewals", study=spec.study,
                spec_payload=spec.payload(),
                spec_hash=spec_hash(spec.payload()),
                store_dir=directory,
                batches=plan_batches(planned, points))
            store = ShardedResultStore(directory)
            board = _CountingBoard(os.path.join(directory,
                                                "leases.sqlite"))
            board.register("renewals", ["b0000"])
            ticks = iter(range(10 * points))
            _drain_board(store, journal, board, None,
                         FabricConfig(lease_ttl=self.TTL), "w0",
                         clock=lambda: next(ticks) * seconds_per_point)
            assert len(store) == points
            assert board.done_batches("renewals") == ["b0000"]
            board.close()
            store.close()
        return board.renewals

    def test_fast_points_renew_far_less_than_once_per_point(
            self, tmp_path):
        renewals = self.drain_one_batch(str(tmp_path), 20,
                                        self.TTL / 100)
        assert 1 <= renewals < 20

    def test_slow_points_renew_after_every_point(self, tmp_path):
        renewals = self.drain_one_batch(str(tmp_path), 20,
                                        self.TTL / 4 + 0.01)
        assert renewals == 20


# ----------------------------------------------------------------------
# Read-only index concurrency (second-process readers during a run)
# ----------------------------------------------------------------------
class TestReadOnlyIndex:
    def test_reader_survives_exclusively_locked_index(self, tmp_path):
        import sqlite3

        owner = ShardedResultStore(str(tmp_path))
        record = make_record(0.4)
        owner.put_record(record)

        # A writer holds the index hostage mid-transaction — exactly
        # what a reader refreshing during a fabric run can hit.
        lock = sqlite3.connect(str(tmp_path / "index.sqlite"))
        lock.execute("BEGIN EXCLUSIVE")
        try:
            reader = ShardedResultStore(str(tmp_path),
                                        index_writes=False)
            # Never raises; the shard-tail overlay serves the read.
            assert reader.get(record.key).metrics == record.metrics
            assert record.key in reader
            assert len(reader) >= 1
            reader.refresh()
            reader.close()
        finally:
            lock.rollback()
            lock.close()
        owner.close()

    def test_reader_tolerates_corrupt_index_file(self, tmp_path):
        owner = ShardedResultStore(str(tmp_path))
        record = make_record(0.6)
        owner.put_record(record)
        owner.close()

        index_path = tmp_path / "index.sqlite"
        index_path.write_bytes(b"this is not a sqlite database")
        before = index_path.read_bytes()

        reader = ShardedResultStore(str(tmp_path), index_writes=False)
        assert reader.get(record.key).metrics == record.metrics
        assert [r.key for r in reader.records()] == [record.key]
        reader.reindex()  # read-only reindex = overlay rebuild
        assert reader.get(record.key).metrics == record.metrics
        reader.close()
        # A read-only handle must never repair-by-delete someone
        # else's index file.
        assert index_path.read_bytes() == before

    def test_read_only_handle_rejects_index_writes(self, tmp_path):
        ShardedResultStore(str(tmp_path)).close()
        from repro.fabric.index import StoreIndex

        index = StoreIndex(str(tmp_path / "index.sqlite"),
                           read_only=True)
        with pytest.raises(RuntimeError):
            index.upsert([], watermarks={0: 10})
        with pytest.raises(RuntimeError):
            index.reset()
        index.close()

    def test_reader_refresh_races_live_writer(self, tmp_path):
        import threading

        writer = ShardedResultStore(str(tmp_path))
        reader = ShardedResultStore(str(tmp_path), index_writes=False)
        failures = []
        done = threading.Event()

        def read_loop():
            try:
                while not done.is_set():
                    reader.refresh()
                    reader.records()
                    len(reader)
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        thread = threading.Thread(target=read_loop)
        thread.start()
        try:
            for i in range(50):
                writer.put_record(make_record(i / 100.0,
                                              created=float(i)))
        finally:
            done.set()
            thread.join(timeout=30)
        assert not failures
        reader.refresh()
        assert len(reader.records()) == 50
        reader.close()
        writer.close()


class TestRequestStop:
    def test_request_stop_journals_then_resume_is_bit_identical(
            self, tmp_path, serial_oracle):
        import threading

        with temporary_study("fabric_stoppable"):
            spec = SweepSpec("fabric_stoppable",
                             grid={"duration": [0.2, 0.2001,
                                                0.2002, 0.2003]})
            oracle = run_sweep(spec, store=None, workers=1)

            store = ShardedResultStore(str(tmp_path))
            runner = FabricRunner(store, workers=1, batch_size=1)
            run_id = runner.run_id
            stopper = threading.Timer(0.3, runner.request_stop)
            stopper.start()
            try:
                with pytest.raises(FabricIncompleteError):
                    runner.run(spec)
            finally:
                stopper.cancel()
            runner.close()
            assert 0 < len(store) < 4

            resumed = FabricRunner(store, workers=1).resume(run_id)
            assert {r.point.key: r.metrics for r in resumed.results} \
                == {r.point.key: r.metrics for r in oracle.results}
            store.close()
