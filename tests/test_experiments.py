"""Tests for the experiment orchestration engine."""

import json
import os

import pytest

from repro.experiments import (
    ExperimentPoint,
    ResultStore,
    StoredResult,
    SweepSpec,
    aggregate_metric,
    coerce_scalar,
    format_summary,
    get_study,
    group_results,
    metric_names,
    parse_grid_option,
    point_key,
    run_sweep,
    study_names,
    summarize,
)

#: A grid small enough to execute many times per test run.
TINY_BASE = {"length": 600, "seed": 3}
TINY_GRID = {"ratio": [0.4, 0.6], "suite": ["office", "kernels"]}


def tiny_spec():
    return SweepSpec("caches", base=dict(TINY_BASE),
                     grid={k: list(v) for k, v in TINY_GRID.items()})


def append_flat(path, point, metrics, elapsed=0.0):
    """Append one record line to a flat JSONL store file."""
    record = StoredResult(key=point.key, study=point.study,
                          params=point.as_dict(), metrics=dict(metrics),
                          elapsed=elapsed)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(record.to_json() + "\n")
    return record


def stored_lines(directory):
    """Record lines across a store directory's shards."""
    shard_dir = os.path.join(directory, "shards")
    lines = []
    for name in sorted(os.listdir(shard_dir)):
        with open(os.path.join(shard_dir, name)) as handle:
            lines.extend(handle.readlines())
    return lines


class TestSpec:
    def test_expansion_is_cartesian_product(self):
        spec = tiny_spec()
        points = spec.expand()
        assert len(points) == spec.size == 4
        combos = {(p.as_dict()["ratio"], p.as_dict()["suite"])
                  for p in points}
        assert combos == {(0.4, "office"), (0.4, "kernels"),
                          (0.6, "office"), (0.6, "kernels")}
        for point in points:
            assert point.as_dict()["length"] == 600

    def test_expansion_is_deterministic(self):
        first = [p.key for p in tiny_spec().expand()]
        second = [p.key for p in tiny_spec().expand()]
        assert first == second

    def test_key_ignores_param_order(self):
        a = ExperimentPoint.from_dict("caches", {"x": 1, "y": 2})
        b = ExperimentPoint.from_dict("caches", {"y": 2, "x": 1})
        assert a.key == b.key
        assert point_key("caches", {"y": 2, "x": 1}) == a.key

    def test_key_distinguishes_params_and_study(self):
        a = ExperimentPoint.from_dict("caches", {"x": 1})
        b = ExperimentPoint.from_dict("caches", {"x": 2})
        c = ExperimentPoint.from_dict("regfile", {"x": 1})
        assert len({a.key, b.key, c.key}) == 3

    def test_rejects_empty_axis_and_unserialisable_param(self):
        with pytest.raises(ValueError):
            SweepSpec("caches", grid={"ratio": []})
        with pytest.raises(TypeError):
            point_key("caches", {"bad": object()})

    def test_grid_option_parsing(self):
        assert parse_grid_option("ways=4,8") == ("ways", [4, 8])
        assert parse_grid_option("ratio=0.4,0.5") == ("ratio",
                                                      [0.4, 0.5])
        key, values = parse_grid_option("scheme=line_fixed,set_fixed")
        assert values == ["line_fixed", "set_fixed"]
        assert coerce_scalar("true") is True
        assert coerce_scalar("7") == 7
        with pytest.raises(ValueError):
            parse_grid_option("no-equals")
        with pytest.raises(ValueError):
            parse_grid_option("empty=")


class TestStore:
    """The flat JSONL format is read-only: these files are written the
    way the retired flat store wrote them, one record line each."""

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        point = ExperimentPoint.from_dict("caches", {"ratio": 0.5})
        append_flat(path, point, {"mean_loss": 0.01}, elapsed=0.5)
        store = ResultStore(path)
        assert point.key in store
        assert store.get_point(point).metrics == {"mean_loss": 0.01}

        reloaded = ResultStore(path)
        assert len(reloaded) == 1
        record = reloaded.get(point.key)
        assert record.metrics == {"mean_loss": 0.01}
        assert record.params == {"ratio": 0.5}
        assert record.elapsed == 0.5

    def test_last_record_wins(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        point = ExperimentPoint.from_dict("caches", {"ratio": 0.5})
        append_flat(path, point, {"mean_loss": 0.01})
        append_flat(path, point, {"mean_loss": 0.02})
        assert len(ResultStore(path)) == 1
        assert ResultStore(path).get(point.key).metrics == {
            "mean_loss": 0.02
        }

    def test_torn_final_line_warns_and_is_skipped(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        point = ExperimentPoint.from_dict("caches", {"ratio": 0.5})
        record = append_flat(path, point, {"mean_loss": 0.01})
        # Simulate a crash mid-append: the final line is truncated
        # partway through the record.
        with open(path, "r+") as handle:
            full = handle.read()
            extra = record.to_json()
            handle.write(extra[: len(extra) // 2])
        with pytest.warns(RuntimeWarning, match="torn final line"):
            reloaded = ResultStore(path)
        assert len(reloaded) == 1
        assert reloaded.get(point.key).metrics == {"mean_loss": 0.01}
        assert full in open(path).read()

    def test_mid_file_corruption_raises_with_location(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        a = ExperimentPoint.from_dict("caches", {"ratio": 0.4})
        b = ExperimentPoint.from_dict("caches", {"ratio": 0.6})
        append_flat(path, a, {"mean_loss": 0.01})
        append_flat(path, b, {"mean_loss": 0.02})
        lines = open(path).read().splitlines()
        lines[0] = "not json"
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"store\.jsonl:1: corrupt"):
            ResultStore(path)

    @pytest.mark.parametrize("line,match", [
        ("null", "not an object"),
        ("123", "not an object"),
        ("{}", "missing field"),
        ('{"key": "k"}', "missing field.*study"),
    ])
    def test_from_json_rejects_malformed_records(self, line, match):
        from repro.experiments.store import StoredResult

        with pytest.raises(ValueError, match=match):
            StoredResult.from_json(line)

    def test_duplicates_counted_last_wins(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        point = ExperimentPoint.from_dict("caches", {"ratio": 0.5})
        append_flat(path, point, {"mean_loss": 0.01})
        append_flat(path, point, {"mean_loss": 0.02})
        reloaded = ResultStore(path)
        assert reloaded.duplicates == 1
        assert reloaded.get(point.key).metrics == {"mean_loss": 0.02}

    def test_concurrent_appends_never_interleave(self, tmp_path):
        """put() is one O_APPEND write per record: many append-only
        handles (the spawned workers' view) hammering one store from
        many threads must yield only whole, parseable lines."""
        import threading

        from repro.fabric.store import ShardedResultStore

        directory = str(tmp_path / "store")
        ShardedResultStore(directory, shards=1).close()
        n_threads, per_thread = 8, 25
        # Bulky metrics so a buffered writer would plausibly split the
        # line across flushes.
        padding = "x" * 512

        def writer(worker):
            store = ShardedResultStore(directory, index_writes=False,
                                       refresh_on_open=False)
            for i in range(per_thread):
                point = ExperimentPoint.from_dict(
                    "caches", {"worker": worker, "i": i})
                store.put(point, {"value": worker * 1000 + i,
                                  "padding": padding})
            store.close()

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        lines = stored_lines(directory)
        assert len(lines) == n_threads * per_thread
        for line in lines:
            record = json.loads(line)  # no interleaved partial lines
            assert record["metrics"]["padding"] == padding
        merged = ShardedResultStore(directory)
        assert len(merged) == n_threads * per_thread
        merged.close()


class TestRunner:
    def test_cache_hits_on_rerun(self, tmp_path):
        store = str(tmp_path / "store")
        first = run_sweep(tiny_spec(), store=store, workers=1)
        assert first.executed == 4 and first.cache_hits == 0

        rerun = run_sweep(tiny_spec(), store=store, workers=1)
        assert rerun.cache_hits == 4 and rerun.executed == 0
        assert rerun.metrics_by_key() == first.metrics_by_key()

    def test_parallel_equals_serial(self):
        serial = run_sweep(tiny_spec(), store=None, workers=1)
        parallel = run_sweep(tiny_spec(), store=None, workers=2)
        assert len(serial) == len(parallel) == 4
        assert [r.point.key for r in serial] == [
            r.point.key for r in parallel
        ]
        assert serial.metrics_by_key() == parallel.metrics_by_key()

    def test_results_follow_spec_order(self):
        outcome = run_sweep(tiny_spec(), workers=2)
        assert [
            (r.params["ratio"], r.params["suite"]) for r in outcome
        ] == [
            (p.as_dict()["ratio"], p.as_dict()["suite"])
            for p in tiny_spec().expand()
        ]

    def test_study_defaults_enter_params_and_key(self, tmp_path):
        """Cache keys cover the full bound parameterisation, so the
        defaulted and explicit spellings of a point are one entry."""
        implicit = run_sweep(tiny_spec()).results
        assert all(r.params["ways"] == 8 for r in implicit)  # default

        explicit_spec = tiny_spec()
        explicit_spec.base["ways"] = 8
        store = str(tmp_path / "store")
        run_sweep(tiny_spec(), store=store)
        rerun = run_sweep(explicit_spec, store=store)
        assert rerun.cache_hits == len(rerun) == 4

    def test_duplicate_grid_values_survive_parallel(self):
        spec = SweepSpec(
            "caches",
            base=dict(TINY_BASE),
            grid={"ratio": [0.5, 0.5], "suite": ["office"]},
        )
        outcome = run_sweep(spec, store=None, workers=2)
        assert len(outcome) == 2
        metrics = [r.metrics for r in outcome]
        assert metrics[0] == metrics[1]

    def test_duplicate_points_execute_once_and_fan_out(self, tmp_path):
        """Identical content hashes at different slots are ONE
        computation: a single execution, a single store write, and the
        result fanned back to every slot."""
        spec = SweepSpec(
            "caches",
            base=dict(TINY_BASE),
            grid={"ratio": [0.5, 0.5, 0.5], "suite": ["office"]},
        )
        store = str(tmp_path / "store")
        seen = []
        outcome = run_sweep(spec, store=store, workers=1,
                            progress=seen.append)
        assert len(outcome) == len(seen) == 3
        # One executed primary, two zero-cost fan-outs.
        assert outcome.executed == 1 and outcome.cache_hits == 2
        assert len({r.point.key for r in outcome}) == 1
        assert [r.metrics for r in outcome] == [outcome.results[0].metrics] * 3
        assert len(stored_lines(store)) == 1

    def test_unknown_study_raises(self):
        with pytest.raises(KeyError):
            run_sweep(SweepSpec("no_such_study"))

    def test_unknown_parameter_rejected(self):
        # A typo'd axis would otherwise sweep identical points.
        with pytest.raises(ValueError, match="ratoi"):
            run_sweep(SweepSpec("caches", grid={"ratoi": [0.4, 0.6]}))

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            run_sweep(tiny_spec(), workers=0)

    def test_progress_callback_sees_every_point(self):
        seen = []
        run_sweep(tiny_spec(), progress=seen.append)
        assert len(seen) == 4


class TestRegistry:
    def test_all_studies_registered(self):
        assert {"caches", "regfile", "penelope", "invert_ratio",
                "vmin_power", "victim_policy",
                "multiprog"} <= set(study_names())

    def test_defaults_are_bound(self):
        study = get_study("caches")
        bound = study.bind({"ratio": 0.7})
        assert bound["ratio"] == 0.7
        assert bound["ways"] == 8  # default preserved

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            get_study("caches").execute(
                {"length": 200, "scheme": "bogus"}
            )

    #: Default-point key of every study, as stored before the kernel
    #: engine became a fixed record field.  A change here re-keys every
    #: stored result: that needs a store migration, not a new literal.
    DEFAULT_POINT_KEYS = {
        "caches": "e9f64d9eb2c4a11c4d38",
        "invert_ratio": "f23a3099ce6a1b0abdc9",
        "multiprog": "266762bf150386a28e1c",
        "penelope": "311b14d37abbd5a85655",
        "regfile": "b1e4fa4135a486b2a392",
        "victim_policy": "44ca24374ca1e763139d",
        "vmin_power": "6b3900fa4fd6006d48f5",
    }

    def test_default_point_keys_are_stable(self):
        assert set(self.DEFAULT_POINT_KEYS) == set(study_names())
        for name, key in self.DEFAULT_POINT_KEYS.items():
            point = ExperimentPoint.from_dict(name,
                                              get_study(name).bind({}))
            assert point.key == key, name

    def test_backend_is_a_fixed_record_field(self):
        for name in study_names():
            study = get_study(name)
            assert "backend" not in study.defaults, name
            assert "backend" not in study.spec_paths, name
            assert study.bind({})["backend"] == "reference", name
        with pytest.raises(ValueError, match="unknown parameter"):
            run_sweep(SweepSpec("caches",
                                grid={"backend": ["vectorized"]}))

    def test_backend_is_not_a_spec_field(self):
        from repro.api import study_sweep_spec
        from repro.config.specs import SpecError, StudySpec

        with pytest.raises(SpecError, match="backend"):
            study_sweep_spec(StudySpec(study="caches",
                                       overrides={"backend": "reference"}))
        with pytest.raises(SpecError, match="backend"):
            StudySpec.from_dict({"study": "caches",
                                 "processor": {"backend": "reference"}})


class TestSummary:
    def _results(self):
        return run_sweep(tiny_spec(), workers=1).results

    def test_group_and_aggregate(self):
        results = self._results()
        groups = group_results(results, ["ratio"])
        assert set(groups) == {(0.4,), (0.6,)}
        for members in groups.values():
            assert len(members) == 2
            mean = aggregate_metric(members, "mean_loss")
            per_point = [m.metrics["mean_loss"] for m in members]
            assert mean == pytest.approx(sum(per_point) / 2)
            assert aggregate_metric(members, "mean_loss", "min") == min(
                per_point
            )

    def test_uniform_text_metric_passes_through_groups(self):
        results = self._results()
        groups = group_results(results, ["ratio"])
        for (ratio,), members in groups.items():
            # scheme_name is a string; within one ratio group every
            # point agrees, so the value passes through instead of
            # being silently dropped.
            expected = f"LineFixed{int(round(ratio * 100))}%"
            assert aggregate_metric(members, "scheme_name") == expected

    def test_mixed_text_metric_renders_explicit_cell(self):
        from repro.experiments.summary import MIXED

        results = self._results()
        # One group spanning both ratios: scheme_name differs
        # (LineFixed40% vs LineFixed60%), so the cell must say so
        # explicitly instead of dropping the column.
        groups = group_results(results, ["suite"])
        for members in groups.values():
            assert len(members) > 1
            assert aggregate_metric(members, "scheme_name") == MIXED
        text = format_summary(results, ["suite"],
                              metrics=["scheme_name", "mean_loss"])
        assert MIXED in text

    def test_summarize_and_format(self):
        results = self._results()
        headers, rows = summarize(results, ["ratio"],
                                  metrics=["mean_loss"])
        assert headers == ["ratio", "mean_loss"]
        assert len(rows) == 2
        text = format_summary(results, ["ratio"],
                              metrics=["mean_loss"], title="t")
        assert "mean_loss" in text and text.startswith("t")

    def test_metric_names_sorted(self):
        names = metric_names(self._results())
        assert names == sorted(names)
        assert "mean_loss" in names


class TestAcceptance:
    def test_grid_sweep_caches_and_reruns_from_store(self, tmp_path):
        """The ISSUE's acceptance grid, scaled down in trace length."""
        spec = SweepSpec(
            "caches",
            base={"length": 400, "seed": 1},
            grid={
                "ratio": [0.4, 0.5, 0.6],
                "ways": [4, 8],
                "suite": ["office", "kernels", "specint2000",
                          "encoder"],
            },
        )
        assert spec.size == 24
        store = str(tmp_path / "store")
        first = run_sweep(spec, store=store, workers=4)
        assert len(first) == 24 and first.executed == 24

        rerun = run_sweep(spec, store=store, workers=4)
        assert rerun.cache_hits == 24 and rerun.executed == 0
        assert rerun.metrics_by_key() == first.metrics_by_key()

        serial = run_sweep(spec, store=None, workers=1)
        assert serial.metrics_by_key() == first.metrics_by_key()
