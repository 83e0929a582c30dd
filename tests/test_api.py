"""The repro.api facade: spec-built objects vs legacy construction.

The acceptance bar for the declarative layer is *bit-identical* results:
a spec-built core, Penelope processor, or study sweep must produce
exactly the numbers the legacy hand-assembled constructors produce —
including RNG-sensitive paths (inversion-victim choice, ProtectedCache
seeds).  Every study in the experiments registry is exercised from a
spec serialised through real JSON.
"""

import pytest

np = pytest.importorskip("numpy")

from repro import api
from repro.config import (
    CacheGeometrySpec,
    MechanismSpec,
    ProcessorSpec,
    ProtectionSpec,
    SpecError,
    StudySpec,
    TLBGeometrySpec,
    WorkloadSpec,
    with_path,
)


def assert_core_results_equal(lhs, rhs):
    assert lhs.uops == rhs.uops
    assert lhs.cycles == rhs.cycles
    assert np.array_equal(lhs.int_rf.bias_to_zero, rhs.int_rf.bias_to_zero)
    assert np.array_equal(lhs.fp_rf.bias_to_zero, rhs.fp_rf.bias_to_zero)
    assert lhs.scheduler.occupancy == rhs.scheduler.occupancy
    assert (lhs.dl0.hits, lhs.dl0.misses) == (rhs.dl0.hits, rhs.dl0.misses)
    assert (lhs.dtlb.hits, lhs.dtlb.misses) == (rhs.dtlb.hits,
                                                rhs.dtlb.misses)
    assert lhs.adder_utilization == rhs.adder_utilization
    assert lhs.adder_samples == rhs.adder_samples
    assert np.array_equal(lhs.scheduler.flattened_bias(include_opcode=True),
                          rhs.scheduler.flattened_bias(include_opcode=True))


class TestProfilerOnlyObserves:
    """PenelopeProcessor.evaluate profiles the scheduler inside the
    baseline run; that is exact only because the profiler writes
    nothing back into the core."""

    @pytest.mark.parametrize("suite", ["specint2000", "specfp2000",
                                       "office", "server", "kernels"])
    def test_profiled_run_equals_plain_run(self, suite):
        from repro.core.memory_like import SchedulerProfiler
        from repro.uarch import TraceDrivenCore
        from repro.workloads import TraceGenerator

        trace = TraceGenerator(seed=5).generate(suite, length=1500)
        profiler = SchedulerProfiler()
        profiled = TraceDrivenCore(hooks=profiler).run(trace)
        assert profiler.fills == profiled.uops == 1500
        assert_core_results_equal(profiled, TraceDrivenCore().run(trace))

    def test_fused_pass_equals_separate_passes(self, small_trace):
        from repro.core import PenelopeProcessor

        processor = PenelopeProcessor()
        fused = processor.evaluate([small_trace])
        assert_core_results_equal(fused.baseline[0],
                                  processor.run_baseline(small_trace))
        policy = processor.derive_policy(small_trace)
        explicit = PenelopeProcessor(scheduler_policy=policy).evaluate(
            [small_trace])
        assert fused.efficiency == explicit.efficiency
        assert fused.scheduler_bias == explicit.scheduler_bias


class TestBuildCore:
    def test_default_spec_bit_identical_to_legacy(self, small_trace):
        from repro.uarch import TraceDrivenCore

        legacy = TraceDrivenCore().run(small_trace)
        built = api.build_core().run(small_trace)
        assert_core_results_equal(legacy, built)

    def test_custom_geometry_bit_identical_to_legacy(self, small_trace):
        from repro.uarch import TraceDrivenCore
        from repro.uarch.cache import CacheConfig
        from repro.uarch.core import CoreConfig
        from repro.uarch.ports import AdderPolicy
        from repro.uarch.tlb import TLBConfig

        legacy_config = CoreConfig(
            scheduler_entries=24,
            n_adders=2,
            adder_policy=AdderPolicy.PRIORITY,
            dl0=CacheConfig(name="DL0-8K-4w", size_bytes=8 * 1024,
                            ways=4),
            dtlb=TLBConfig(name="DTLB-64", entries=64),
        )
        spec = ProcessorSpec(
            scheduler_entries=24,
            n_adders=2,
            adder_policy="priority",
            dl0=CacheGeometrySpec(size_kb=8, ways=4),
            dtlb=TLBGeometrySpec(entries=64),
        )
        legacy = TraceDrivenCore(legacy_config).run(small_trace)
        built = api.build_core(spec).run(small_trace)
        assert_core_results_equal(legacy, built)


class TestBuildHooks:
    RF_ONLY = ProtectionSpec(
        adder=MechanismSpec("none"),
        scheduler=MechanismSpec("none"),
        dl0=MechanismSpec("none"),
        dtlb=MechanismSpec("none"),
    )

    def test_isv_protectors_bit_identical_to_legacy(self, small_trace):
        from repro.core.memory_like import ISVRegisterFileProtector
        from repro.uarch import TraceDrivenCore
        from repro.uarch.core import CompositeHooks
        from repro.uarch.uop import FP_WIDTH, INT_WIDTH

        legacy_hooks = CompositeHooks([
            ISVRegisterFileProtector("int_rf", INT_WIDTH, 512.0),
            ISVRegisterFileProtector("fp_rf", FP_WIDTH, 512.0),
        ])
        legacy = TraceDrivenCore(hooks=legacy_hooks).run(small_trace)
        built = api.build_core(
            hooks=api.build_hooks(self.RF_ONLY)).run(small_trace)
        assert_core_results_equal(legacy, built)

    def test_built_hooks_expose_protectors(self):
        hooks = api.build_hooks(self.RF_ONLY)
        assert [h.rf_name for h in hooks.hooks] == ["int_rf", "fp_rf"]

    def test_derived_policy_requires_profiled_policy(self):
        with pytest.raises(SpecError, match="derived_policy"):
            api.build_hooks(ProtectionSpec())

    def test_paper_policy_needs_no_profiling(self):
        hooks = api.build_hooks(
            ProtectionSpec(scheduler=MechanismSpec("paper_policy")))
        assert len(hooks.hooks) == 3


class TestBuildPenelope:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.workloads import generate_workload

        return generate_workload(traces_per_suite=1, length=1200,
                                 suites=["specint2000", "office"],
                                 seed=9)

    def test_default_spec_bit_identical_to_legacy(self, workload):
        from repro.core import PenelopeProcessor

        legacy = PenelopeProcessor(seed=9).evaluate(workload)
        built = api.build_penelope(seed=9).evaluate(workload)
        assert legacy.efficiency == built.efficiency
        assert legacy.baseline_efficiency == built.baseline_efficiency
        assert legacy.combined_cpi == built.combined_cpi
        assert legacy.adder_guardband == built.adder_guardband
        assert legacy.int_rf_bias == built.int_rf_bias
        assert legacy.fp_rf_bias == built.fp_rf_bias
        assert legacy.scheduler_bias == built.scheduler_bias
        assert ([(b.name, b.guardband) for b in legacy.block_costs]
                == [(b.name, b.guardband) for b in built.block_costs])

    def test_custom_ratio_bit_identical_to_legacy(self, workload):
        from repro.core import PenelopeProcessor

        legacy = PenelopeProcessor(invert_ratio=0.4, sample_period=256.0,
                                   seed=9).evaluate(workload)
        protection = ProtectionSpec(
            dl0=MechanismSpec("line_fixed", {"ratio": 0.4}),
            dtlb=MechanismSpec("line_fixed", {"ratio": 0.4}),
            sample_period=256.0,
        )
        built = api.build_penelope(protection=protection,
                                   seed=9).evaluate(workload)
        assert legacy.efficiency == built.efficiency
        assert legacy.combined_cpi == built.combined_cpi
        assert legacy.int_rf_bias == built.int_rf_bias

    def test_from_study_spec_slots(self, workload):
        spec = StudySpec(
            study="penelope",
            workload=WorkloadSpec(suites=("specint2000",), seed=9),
        )
        built = api.build_penelope(spec)
        assert built.seed == 9
        assert built.sample_period == 512.0

    def test_unprotected_spec_equals_baseline_run(self, workload):
        """All-'none' protection: the protected pass is a plain core."""
        protection = ProtectionSpec(
            adder=MechanismSpec("none"),
            int_rf=MechanismSpec("none"),
            fp_rf=MechanismSpec("none"),
            scheduler=MechanismSpec("none"),
            dl0=MechanismSpec("none"),
            dtlb=MechanismSpec("none"),
        )
        processor = api.build_penelope(protection=protection, seed=9)
        trace = workload[0]
        assert_core_results_equal(processor.run_baseline(trace),
                                  processor.run_protected(trace))


def _run_legacy(study, base, grid):
    from repro.experiments import SweepSpec, run_sweep

    outcome = run_sweep(SweepSpec(study, base=base, grid=grid))
    return {r.point.key: r.metrics for r in outcome.results}


def _run_from_json(spec):
    """Serialise -> JSON text -> deserialise -> run (the config-file path)."""
    restored = StudySpec.from_json(spec.to_json())
    assert restored == spec
    outcome = api.run_study(restored)
    return {r.point.key: r.metrics for r in outcome.results}


class TestStudyDifferential:
    """Every registered study, spec-built vs legacy flat parameters."""

    LENGTH = 500

    def _spec(self, study, suites=("office",), seed=1, **kwargs):
        spec = api.default_study_spec(study)
        spec = with_path(spec, "workload.suites", suites)
        spec = with_path(spec, "workload.length", self.LENGTH)
        spec = with_path(spec, "workload.seed", seed)
        return spec.replace(**kwargs)

    def test_caches(self):
        spec = self._spec(
            "caches",
            sweep={"protection.dl0.params.ratio": [0.4, 0.6]},
        )
        legacy = _run_legacy(
            "caches",
            base={"length": self.LENGTH, "seed": 1},
            grid={"suite": ["office"], "ratio": [0.4, 0.6]},
        )
        assert _run_from_json(spec) == legacy

    def test_caches_scheme_axis(self):
        spec = self._spec(
            "caches",
            sweep={"protection.dl0.name": ["set_fixed", "line_fixed"]},
        )
        legacy = _run_legacy(
            "caches",
            base={"length": self.LENGTH, "seed": 1},
            grid={"suite": ["office"],
                  "scheme": ["set_fixed", "line_fixed"]},
        )
        assert _run_from_json(spec) == legacy

    def test_invert_ratio_with_bare_override_axis(self):
        spec = self._spec(
            "invert_ratio", seed=2,
            sweep={"data_bias": [0.8, 0.9]},  # no spec home: bare name
        )
        legacy = _run_legacy(
            "invert_ratio",
            base={"length": self.LENGTH, "seed": 2},
            grid={"suite": ["office"], "data_bias": [0.8, 0.9]},
        )
        assert _run_from_json(spec) == legacy

    def test_victim_policy_geometry_axis(self):
        spec = self._spec(
            "victim_policy", seed=3,
            sweep={"processor.dl0.ways": [4, 8]},
        )
        legacy = _run_legacy(
            "victim_policy",
            base={"length": self.LENGTH, "seed": 3},
            grid={"suite": ["office"], "ways": [4, 8]},
        )
        assert _run_from_json(spec) == legacy

    def test_regfile(self):
        spec = self._spec(
            "regfile", seed=4,
            sweep={"protection.sample_period": [256.0, 512.0]},
        )
        legacy = _run_legacy(
            "regfile",
            base={"length": self.LENGTH, "seed": 4},
            grid={"suite": ["office"],
                  "sample_period": [256.0, 512.0]},
        )
        assert _run_from_json(spec) == legacy

    def test_vmin_power_with_override(self):
        spec = self._spec(
            "vmin_power", suites=("office", "kernels"), seed=5,
            overrides={"target": 0.75},
        )
        legacy = _run_legacy(
            "vmin_power",
            base={"length": self.LENGTH, "seed": 5, "target": 0.75},
            grid={"suite": ["office", "kernels"]},
        )
        assert _run_from_json(spec) == legacy

    def test_penelope(self):
        spec = self._spec("penelope", seed=6)
        legacy = _run_legacy(
            "penelope",
            base={"length": self.LENGTH, "seed": 6},
            grid={"suite": ["office"]},
        )
        assert _run_from_json(spec) == legacy

    def test_multiprog(self):
        # The suite tuple binds as ONE point parameter (the programs
        # sharing the cache), not as a per-suite grid axis.
        spec = self._spec(
            "multiprog", suites=("office", "kernels"), seed=7,
            sweep={"protection.dl0.params.ratio": [0.4, 0.6]},
        )
        legacy = _run_legacy(
            "multiprog",
            base={"length": self.LENGTH, "seed": 7,
                  "suites": ["office", "kernels"]},
            grid={"ratio": [0.4, 0.6]},
        )
        assert _run_from_json(spec) == legacy

    def test_multiprog_policy_axis(self):
        spec = self._spec(
            "multiprog", suites=("office", "kernels"), seed=8,
            sweep={"workload.interleave": ["round_robin",
                                           "random_slice"]},
        )
        legacy = _run_legacy(
            "multiprog",
            base={"length": self.LENGTH, "seed": 8,
                  "suites": ["office", "kernels"]},
            grid={"policy": ["round_robin", "random_slice"]},
        )
        assert _run_from_json(spec) == legacy

    def test_every_registered_study_has_a_differential_case(self):
        """New studies must be added to this class (and get spec_paths)."""
        from repro.experiments import get_study, study_names

        covered = {"caches", "invert_ratio", "victim_policy", "regfile",
                   "vmin_power", "penelope", "multiprog"}
        assert set(study_names()) == covered
        for name in covered:
            # Workload axes must be spec-bound for run_study to work
            # ("suite" fans out per suite; "suites" binds the whole
            # multiprogram tuple).
            spec_paths = get_study(name).spec_paths
            assert "suite" in spec_paths or "suites" in spec_paths


class TestStudySpecErrors:
    def test_unknown_study(self):
        with pytest.raises(KeyError, match="unknown study"):
            api.run_study(StudySpec(study="bogus"))

    def test_unknown_sweep_axis_lists_sweepable_paths(self):
        spec = StudySpec(study="caches",
                         sweep={"protection.l2.params.ratio": [0.5]})
        with pytest.raises(SpecError,
                           match="protection.dl0.params.ratio"):
            api.run_study(spec)

    def test_unknown_override_lists_parameters(self):
        spec = StudySpec(study="caches", overrides={"bogus_knob": 1})
        with pytest.raises(SpecError, match="bogus_knob"):
            api.run_study(spec)

    def test_default_study_spec_unknown_study(self):
        with pytest.raises(KeyError, match="unknown study"):
            api.default_study_spec("bogus")

    def test_edit_outside_study_binding_rejected(self):
        # The regfile study never builds a cache: a DL0 edit would run
        # with silently unchanged results, so it must error instead.
        spec = api.default_study_spec("regfile").replace(
            protection=ProtectionSpec(
                dl0=MechanismSpec("set_fixed", {"ratio": 0.4})))
        with pytest.raises(SpecError, match="protection.dl0"):
            api.run_study(spec)

    def test_processor_edit_outside_binding_rejected(self):
        spec = with_path(api.default_study_spec("caches"),
                         "processor.issue_width", 8)
        with pytest.raises(SpecError, match="processor.issue_width"):
            api.run_study(spec)

    def test_bound_edits_still_accepted(self):
        # Geometry axes ARE bound for the cache studies.
        spec = with_path(api.default_study_spec("caches"),
                         "processor.dl0.size_kb", 8)
        assert api.study_sweep_spec(spec).base["size_kb"] == 8


class TestSpecFiles:
    def test_save_and_load_round_trip(self, tmp_path):
        spec = api.default_study_spec("caches")
        path = tmp_path / "study.json"
        api.save_study_spec(spec, str(path))
        assert api.load_study_spec(str(path)) == spec
