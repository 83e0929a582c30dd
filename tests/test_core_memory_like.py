"""Tests for RINV, the ISV register-file protector and the scheduler
protector."""

import pytest

import random

from repro.core.memory_like import (
    ISVRegisterFileProtector,
    K_PHASE_STEPS,
    PAPER_SCHEDULER_POLICY,
    RINVRegister,
    SchedulerProfiler,
    SchedulerProtector,
    derive_scheduler_policy,
)
from repro.core.policy import BitDirective, Technique, repair_bit
from repro.uarch import TraceDrivenCore
from repro.uarch.core import CompositeHooks, CoreHooks
from repro.uarch.uop import INT_WIDTH, SCHEDULER_LAYOUT
from repro.workloads import TraceGenerator


class TestRINVRegister:
    def test_stores_inversion(self):
        rinv = RINVRegister(8)
        rinv.update_from_sample(0b1010_1010)
        assert rinv.value == 0b0101_0101
        assert rinv.updates == 1

    def test_reset_state_is_all_ones(self):
        # Inversion of the all-zeros power-on value.
        assert RINVRegister(4).value == 0b1111

    def test_validation(self):
        with pytest.raises(ValueError):
            RINVRegister(0)


class TestISVRegisterFileProtector:
    def _run(self, length=4000):
        trace = TraceGenerator(seed=9).generate("specint2000", length=length)
        protector = ISVRegisterFileProtector("int_rf", INT_WIDTH,
                                             sample_period=256.0)
        core = TraceDrivenCore(hooks=protector)
        result = core.run(trace)
        return protector, result

    def test_improves_worst_bias(self):
        protector, result = self._run()
        trace = TraceGenerator(seed=9).generate("specint2000", length=4000)
        baseline = TraceDrivenCore().run(trace)
        assert result.int_rf.worst_bias < baseline.int_rf.worst_bias
        # The paper reduces the worst bias to near 50%; warmup noise on
        # short traces keeps us within a looser band.
        assert result.int_rf.worst_bias < 0.75

    def test_inverted_time_converges_to_half(self):
        protector, __ = self._run()
        assert protector.inverted_time_fraction == pytest.approx(0.5,
                                                                 abs=0.05)

    def test_discards_are_rare(self):
        # Section 4.4: ports are free 92% of the time, so few updates
        # are discarded.
        protector, result = self._run()
        total = protector.updates_written + protector.updates_skipped
        assert total > 0
        assert protector.updates_skipped / total < 0.25

    def test_ignores_other_register_files(self):
        protector = ISVRegisterFileProtector("fp_rf", 80)
        trace = TraceGenerator(seed=9).generate("specint2000", length=800)
        core = TraceDrivenCore(hooks=protector)
        result = core.run(trace)
        # specint hardly touches FP: almost no updates either way, but
        # certainly none on the INT file.
        assert result.int_rf.special_writes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ISVRegisterFileProtector("int_rf", 32, sample_period=0.0)


class TestSchedulerProtector:
    def test_paper_policy_covers_all_fields(self):
        layout_fields = set(SCHEDULER_LAYOUT.fields())
        assert set(PAPER_SCHEDULER_POLICY) == layout_fields
        for name, directives in PAPER_SCHEDULER_POLICY.items():
            assert len(directives) == SCHEDULER_LAYOUT.fields()[name]

    def test_paper_policy_classification(self):
        policy = PAPER_SCHEDULER_POLICY
        assert policy["valid"][0].technique is Technique.UNPROTECTED
        assert policy["flags"][0].technique is Technique.ALL1
        assert policy["latency"][3].technique is Technique.ALL1
        assert policy["latency"][0].technique is Technique.ALL1_K
        assert policy["latency"][0].k == pytest.approx(0.95)
        assert policy["taken"][0].k == pytest.approx(0.50)
        assert policy["ready1"][0].k == pytest.approx(0.60)
        assert policy["src1_data"][0].technique is Technique.ISV
        assert policy["dst_tag"][0].technique is Technique.SELF_BALANCED

    def test_protection_flattens_bias(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=4000)
        baseline = TraceDrivenCore().run(trace)
        protector = SchedulerProtector()
        protected = TraceDrivenCore(hooks=protector).run(trace)
        assert protector.updates_written > 0
        assert (protected.scheduler.worst_bias()
                < baseline.scheduler.worst_bias())

    def test_flags_specifically_repaired(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=4000)
        baseline = TraceDrivenCore().run(trace)
        protected = TraceDrivenCore(hooks=SchedulerProtector()).run(trace)
        base_flags = max(baseline.scheduler.field_bias["flags"])
        prot_flags = max(protected.scheduler.field_bias["flags"])
        assert prot_flags < base_flags

    def test_valid_bit_untouched(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=2000)
        protector = SchedulerProtector()
        result = TraceDrivenCore(hooks=protector).run(trace)
        # The valid bit's bias reflects occupancy only (cannot repair).
        valid_bias = result.scheduler.field_bias["valid"][0]
        assert valid_bias == pytest.approx(1.0 - result.scheduler.occupancy,
                                           abs=0.05)


class TestDerivedPolicy:
    def _profile(self):
        trace = TraceGenerator(seed=9).generate("specint2000", length=3000)
        profiler = SchedulerProfiler()
        result = TraceDrivenCore(hooks=profiler).run(trace)
        return profiler, result

    def test_profiler_collects_fills(self):
        profiler, __ = self._profile()
        assert profiler.fills == 3000
        bias = profiler.busy_bias_to_zero()
        assert set(bias) == set(SCHEDULER_LAYOUT.fields())

    def test_derive_policy_structure(self):
        profiler, result = self._profile()
        policy = derive_scheduler_policy(profiler,
                                         result.scheduler.occupancy)
        assert policy["valid"][0].technique is Technique.UNPROTECTED
        assert policy["dst_tag"][0].technique is Technique.SELF_BALANCED
        # Highly zero-biased flag bits get ALL1-flavoured techniques.
        assert policy["flags"][2].technique in (
            Technique.ALL1, Technique.ALL1_K
        )

    def test_derived_policy_beats_baseline(self):
        profiler, result = self._profile()
        policy = derive_scheduler_policy(profiler,
                                         result.scheduler.occupancy)
        trace = TraceGenerator(seed=10).generate("specint2000", length=4000)
        baseline = TraceDrivenCore().run(trace)
        protected = TraceDrivenCore(
            hooks=SchedulerProtector(policy)
        ).run(trace)
        assert (protected.scheduler.worst_bias()
                < baseline.scheduler.worst_bias())

    def test_profiler_requires_fills(self):
        with pytest.raises(ValueError):
            SchedulerProfiler().busy_bias_to_zero()


# ----------------------------------------------------------------------
# Word-level repair and profiling against the per-bit definitions
# ----------------------------------------------------------------------
def per_bit_repair_values(policy, rinv, phase_counter):
    """The per-bit definition of a release's repair values: every bit
    through :func:`repair_bit`, ISV bits from the (un-inverted) RINV."""
    phase = (phase_counter % K_PHASE_STEPS) / K_PHASE_STEPS
    values = {}
    for fieldname, directives in policy.items():
        register = rinv.get(fieldname)
        composed, any_bit = 0, False
        for bit_index, directive in enumerate(directives):
            sampled_bit = None
            if register is not None:
                sampled_bit = 1 - ((register.value >> bit_index) & 1)
            bit = repair_bit(directive, phase, sampled_bit)
            if bit is None:
                continue
            any_bit = True
            composed |= bit << bit_index
        if any_bit:
            values[fieldname] = composed
    return values


class RecordingScheduler:
    """Stands in for the scheduler: records every repair write."""

    def __init__(self):
        self.writes = []

    def write_special(self, slot, values, now):
        self.writes.append(list(values.items()))
        return len(self.writes) % 3 != 0  # some writes find no port


def _synthetic_policy():
    d = BitDirective
    return {
        # ISV without a RINV: every bit is None, so the field is omitted.
        "latency": [d(Technique.ISV)] * SCHEDULER_LAYOUT.latency,
        # None and non-None bits mixed; None bits write 0.
        "flags": [d(Technique.ALL1), d(Technique.SELF_BALANCED),
                  d(Technique.ISV), d(Technique.ALL0_K, 0.3),
                  d(Technique.ALL1_K, 0.05), d(Technique.UNPROTECTED)],
        "src1_data": [d(Technique.ISV), d(Technique.ALL1_K, 0.45),
                      d(Technique.UNPROTECTED), d(Technique.ALL0)]
                     + [d(Technique.ISV)] * (SCHEDULER_LAYOUT.src1_data - 4),
        "immediate": [d(Technique.SELF_BALANCED), d(Technique.ISV)]
                     * (SCHEDULER_LAYOUT.immediate // 2),
        "tos": [d(Technique.SELF_BALANCED)] * SCHEDULER_LAYOUT.tos,
        "ready1": [d(Technique.ALL0_K, 0.95)],
        "valid": [d(Technique.UNPROTECTED)],
    }


def _derived_policy():
    trace = TraceGenerator(seed=4).generate("office", length=1500)
    profiler = SchedulerProfiler()
    result = TraceDrivenCore(hooks=profiler).run(trace)
    return derive_scheduler_policy(profiler, result.scheduler.occupancy)


class TestRepairWords:
    @pytest.mark.parametrize("make_policy", [
        lambda: PAPER_SCHEDULER_POLICY, _derived_policy, _synthetic_policy,
    ], ids=["paper", "derived", "synthetic"])
    def test_equals_per_bit_repair_over_every_phase(self, make_policy):
        policy = make_policy()
        protector = SchedulerProtector(policy)
        sched = RecordingScheduler()
        rng = random.Random(5)
        expected = []
        for release in range(3 * K_PHASE_STEPS + 7):
            if release % 4 == 0:  # fresh RINV samples now and then
                for register in protector.rinv.values():
                    register.update_from_sample(
                        rng.getrandbits(register.width))
            expected.append(list(per_bit_repair_values(
                policy, protector.rinv, release).items()))
            protector.on_scheduler_release(sched, 0, float(release))
        assert sched.writes == expected
        assert protector.updates_written + protector.updates_skipped == (
            len(expected))

    def test_policy_without_repairs_writes_nothing(self):
        policy = {"tos": [BitDirective(Technique.SELF_BALANCED)]
                  * SCHEDULER_LAYOUT.tos}
        protector = SchedulerProtector(policy)
        sched = RecordingScheduler()
        protector.on_scheduler_release(sched, 0, 1.0)
        assert sched.writes == []
        assert protector.updates_written == protector.updates_skipped == 0


class PerBitProfiler(CoreHooks):
    """The per-bit definition of the profiler's busy-time counts."""

    def __init__(self):
        fields = SCHEDULER_LAYOUT.fields()
        self.ones = {name: [0] * width for name, width in fields.items()}
        self.fills = {name: 0 for name in fields}

    def on_scheduler_fill(self, sched, slot, uop, now):
        mob_id = 0 if uop.uop_class.is_memory else None
        values = sched.field_values(uop, mob_id=mob_id)
        for name, counts in self.ones.items():
            if name not in values:
                continue
            self.fills[name] += 1
            for bit_index in range(len(counts)):
                counts[bit_index] += (values[name] >> bit_index) & 1

    def busy_bias_to_zero(self):
        return {name: [1.0 - ones / max(1, self.fills[name])
                       for ones in counts]
                for name, counts in self.ones.items()}


class TestProfilerHistogram:
    @pytest.mark.parametrize("suite", ["specint2000", "specfp2000"])
    def test_equals_per_bit_counts(self, suite):
        trace = TraceGenerator(seed=2).generate(suite, length=1500)
        profiler, reference = SchedulerProfiler(), PerBitProfiler()
        TraceDrivenCore(hooks=CompositeHooks([profiler, reference])).run(
            trace)
        assert profiler.busy_bias_to_zero() == reference.busy_bias_to_zero()
