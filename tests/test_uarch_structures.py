"""Unit tests for register file, scheduler, MOB, ports, uop records."""

import pytest

from repro.uarch.mob import MemoryOrderBuffer
from repro.uarch.ports import AdderPolicy, AdderPool
from repro.uarch.regfile import RegisterFile
from repro.uarch.scheduler import Scheduler
from repro.uarch.uop import SCHEDULER_LAYOUT, Uop, UopClass


def make_uop(seq=0, kind=UopClass.ALU, **kwargs):
    defaults = dict(src1=1, src2=2, dst=3, src1_value=10, src2_value=20,
                    result_value=30)
    if kind.is_memory:
        defaults["address"] = 0x1000
        defaults["dst"] = 3 if kind is UopClass.LOAD else None
    defaults.update(kwargs)
    return Uop(seq=seq, uop_class=kind, **defaults)


class TestUop:
    def test_layout_totals(self):
        layout = SCHEDULER_LAYOUT
        assert layout.total_bits == 144
        offsets = layout.bit_offsets()
        assert offsets["valid"] == (0, 1)
        # Offsets tile the row without gaps.
        position = 0
        for name, width in layout.fields().items():
            assert offsets[name] == (position, width)
            position += width

    def test_memory_uop_needs_address(self):
        with pytest.raises(ValueError):
            Uop(seq=0, uop_class=UopClass.LOAD)

    def test_adder_operands_for_sub(self):
        uop = make_uop(is_sub=True, src1_value=7, src2_value=3)
        a, b, cin = uop.adder_operands()
        assert a == 7
        assert b == (~3) & 0xFFFFFFFF
        assert cin == 1

    def test_adder_operands_for_agu(self):
        uop = make_uop(kind=UopClass.LOAD, src1_value=0x2000, immediate=8)
        a, b, cin = uop.adder_operands()
        assert (a, b, cin) == (0x2000, 8, 0)

    def test_uses_adder(self):
        assert make_uop(kind=UopClass.ALU).uses_adder
        assert make_uop(kind=UopClass.LOAD).uses_adder
        assert not make_uop(kind=UopClass.BRANCH, dst=None).uses_adder

    def test_value_width(self):
        assert make_uop().value_width == 32
        assert make_uop(kind=UopClass.FP, is_fp=True).value_width == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            make_uop(seq=-1)
        with pytest.raises(ValueError):
            make_uop(opcode=1 << 12)
        with pytest.raises(ValueError):
            make_uop(latency=32)


class TestRegisterFile:
    def test_allocate_write_release_cycle(self):
        rf = RegisterFile(entries=4, width=8)
        entry = rf.allocate(0.0)
        rf.write(entry, 0xAB, 1.0)
        assert rf.read(entry) == 0xAB
        rf.release(entry, 2.0)
        assert not rf.is_busy(entry)

    def test_allocation_exhaustion(self):
        rf = RegisterFile(entries=2, width=8)
        assert rf.allocate(0.0) is not None
        assert rf.allocate(0.0) is not None
        assert rf.allocate(0.0) is None
        assert rf.next_free_time() is None

    def test_future_release_not_allocatable_early(self):
        rf = RegisterFile(entries=1, width=8)
        entry = rf.allocate(0.0)
        rf.release(entry, 10.0)
        assert rf.allocate(5.0) is None
        assert rf.next_free_time() == 10.0
        assert rf.allocate(10.0) == entry

    def test_double_release_rejected(self):
        rf = RegisterFile(entries=2, width=8)
        entry = rf.allocate(0.0)
        rf.release(entry, 1.0)
        with pytest.raises(ValueError):
            rf.release(entry, 2.0)

    def test_special_write_requires_free_entry(self):
        rf = RegisterFile(entries=2, width=8)
        entry = rf.allocate(0.0)
        assert not rf.write_special(entry, 0xFF, 1.0)  # busy
        rf.release(entry, 2.0)
        assert rf.write_special(entry, 0xFF, 3.0)
        assert rf.read(entry) == 0xFF

    def test_special_write_port_contention(self):
        rf = RegisterFile(entries=4, width=8, write_ports=1)
        a = rf.allocate(0.0)
        b = rf.allocate(0.0)
        rf.release(b, 1.0)
        rf.write(a, 1, 5.0)  # consumes the only port in cycle 5
        assert not rf.write_special(b, 0xFF, 5.2)
        assert rf.write_special(b, 0xFF, 6.0)

    def test_stale_contents_accrue_bias(self):
        rf = RegisterFile(entries=1, width=4)
        entry = rf.allocate(0.0)
        rf.write(entry, 0b1111, 0.0)
        rf.release(entry, 1.0)
        stats = rf.finalize(10.0)  # stale ones persist for 10 units
        assert stats.bias_to_zero[0] == pytest.approx(0.0)

    def test_stats_counts(self):
        rf = RegisterFile(entries=4, width=8)
        e1 = rf.allocate(0.0)
        rf.write(e1, 1, 1.0)
        rf.release(e1, 2.0)
        stats = rf.finalize(4.0)
        assert stats.allocations == 1
        assert stats.releases == 1
        assert 0.0 < stats.free_fraction < 1.0

    def test_entry_bounds_checked(self):
        rf = RegisterFile(entries=2, width=8)
        with pytest.raises(IndexError):
            rf.write(5, 0, 0.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            RegisterFile(entries=0)
        with pytest.raises(ValueError):
            RegisterFile(write_ports=0)


class TestScheduler:
    def test_fill_and_release_lifecycle(self):
        sched = Scheduler(entries=4)
        slot = sched.allocate(0.0)
        sched.fill(slot, make_uop(), mob_id=None, now=0.0, dst_tag=9)
        assert sched.field_value(slot, "valid") == 1
        assert sched.field_value(slot, "dst_tag") == 9
        sched.release(slot, 3.0)
        assert sched.field_value(slot, "valid") == 0
        assert not sched.is_busy(slot)

    def test_mob_id_left_stale_for_non_memory(self):
        sched = Scheduler(entries=1)
        slot = sched.allocate(0.0)
        sched.fill(slot, make_uop(kind=UopClass.LOAD), mob_id=13, now=0.0)
        sched.release(slot, 1.0)
        slot2 = sched.allocate(1.0)
        assert slot2 == slot
        sched.fill(slot2, make_uop(seq=1), mob_id=None, now=1.0)
        # The ALU uop did not overwrite the stale MOB id.
        assert sched.field_value(slot2, "mob_id") == 13

    def test_set_field_ready_bits(self):
        sched = Scheduler(entries=2)
        slot = sched.allocate(0.0)
        sched.fill(slot, make_uop(), mob_id=None, now=0.0)
        assert sched.field_value(slot, "ready1") == 0
        sched.set_field(slot, "ready1", 1, 1.0)
        assert sched.field_value(slot, "ready1") == 1

    def test_write_special_only_free_slots(self):
        sched = Scheduler(entries=2)
        slot = sched.allocate(0.0)
        sched.fill(slot, make_uop(), mob_id=None, now=0.0)
        assert not sched.write_special(slot, {"flags": 0x3F}, 1.0)
        sched.release(slot, 2.0)
        assert sched.write_special(slot, {"flags": 0x3F}, 3.0)
        assert sched.field_value(slot, "flags") == 0x3F

    def test_valid_bit_not_repairable(self):
        sched = Scheduler(entries=2)
        slot = sched.allocate(0.0)
        sched.release(slot, 1.0)
        with pytest.raises(ValueError):
            sched.write_special(slot, {"valid": 1}, 2.0)

    def test_field_value_range_checked(self):
        sched = Scheduler(entries=1)
        slot = sched.allocate(0.0)
        with pytest.raises(ValueError):
            sched.set_field(slot, "taken", 2, 0.5)
        with pytest.raises(ValueError):
            sched.set_field(slot, "flags", -1, 0.5)

    def test_unknown_field_rejected(self):
        sched = Scheduler(entries=1)
        slot = sched.allocate(0.0)
        with pytest.raises(KeyError):
            sched.set_field(slot, "bogus", 1, 0.5)
        sched.release(slot, 1.0)
        with pytest.raises(KeyError):
            sched.write_special(slot, {"bogus": 1}, 2.0)
        with pytest.raises(ValueError):
            sched.write_special(slot, {"flags": 1 << 6}, 2.0)

    def test_stats_shapes(self):
        sched = Scheduler(entries=2)
        slot = sched.allocate(0.0)
        sched.fill(slot, make_uop(), mob_id=None, now=0.0)
        sched.release(slot, 2.0)
        stats = sched.finalize(4.0)
        assert stats.occupancy == pytest.approx(2.0 / 8.0)
        flat = stats.flattened_bias()
        assert len(flat) == (SCHEDULER_LAYOUT.total_bits
                             - SCHEDULER_LAYOUT.opcode)
        full = stats.flattened_bias(include_opcode=True)
        assert len(full) == SCHEDULER_LAYOUT.total_bits
        name, value = stats.worst_field()
        assert name in SCHEDULER_LAYOUT.fields()
        assert 0.5 <= value <= 1.0


class TestMemoryOrderBuffer:
    def test_round_robin(self):
        mob = MemoryOrderBuffer(entries=4)
        assert [mob.allocate() for __ in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_usage_self_balanced(self):
        mob = MemoryOrderBuffer(entries=8)
        for __ in range(800):
            mob.allocate()
        assert mob.usage_imbalance() == pytest.approx(1.0)

    def test_empty_imbalance(self):
        assert MemoryOrderBuffer().usage_imbalance() == 1.0

    def test_invalid_entries(self):
        with pytest.raises(ValueError):
            MemoryOrderBuffer(entries=0)


class TestAdderPool:
    def test_priority_policy_skews_usage(self):
        pool = AdderPool(n_adders=4, policy=AdderPolicy.PRIORITY)
        for cycle in range(100):
            # Two concurrent adds per cycle: only adders 0 and 1 work.
            pool.issue(make_uop(seq=cycle), float(cycle))
            pool.issue(make_uop(seq=cycle), float(cycle))
        low, high = pool.utilization_range(100.0)
        assert low == 0.0
        assert high == pytest.approx(1.0)

    def test_uniform_policy_balances_usage(self):
        pool = AdderPool(n_adders=4, policy=AdderPolicy.UNIFORM)
        for cycle in range(400):
            pool.issue(make_uop(seq=cycle), float(cycle))
        utils = pool.utilization(400.0)
        assert max(utils) - min(utils) < 0.05

    def test_all_busy_returns_none(self):
        pool = AdderPool(n_adders=1)
        assert pool.issue(make_uop(), 0.0) == 0
        assert pool.issue(make_uop(seq=1), 0.0) is None
        assert pool.issue(make_uop(seq=2), 1.0) == 0

    def test_reservoir_sampling_bounds(self):
        pool = AdderPool(n_adders=1, sample_capacity=16)
        for i in range(100):
            pool.issue(make_uop(seq=i), float(i))
        assert len(pool.sampled_vectors(0)) == 16
        assert len(pool.all_sampled_vectors()) == 16

    def test_sample_index_checked(self):
        with pytest.raises(IndexError):
            AdderPool(n_adders=1).sampled_vectors(3)

    def test_mean_utilization(self):
        pool = AdderPool(n_adders=2)
        pool.issue(make_uop(), 0.0)
        assert pool.mean_utilization(10.0) == pytest.approx(0.05)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AdderPool(n_adders=0)
        with pytest.raises(ValueError):
            AdderPool(sample_capacity=0)
