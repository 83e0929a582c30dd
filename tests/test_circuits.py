"""Unit tests for gates, netlists and the aging simulator."""

import random

import pytest

from repro.circuits.aging import AgingSimulator
from repro.circuits.gates import Gate, GateKind
from repro.circuits.netlist import Circuit, CircuitBuilder
from repro.nbti.transistor import PMOSTransistor, WidthClass


class TestGate:
    def test_inv_truth_table(self):
        gate = Gate("g", GateKind.INV, ("a",), "y")
        assert gate.evaluate([0]) == 1
        assert gate.evaluate([1]) == 0

    def test_nand_truth_table(self):
        gate = Gate("g", GateKind.NAND2, ("a", "b"), "y")
        assert [gate.evaluate([a, b]) for a in (0, 1) for b in (0, 1)] == [
            1, 1, 1, 0
        ]

    def test_nor_truth_table(self):
        gate = Gate("g", GateKind.NOR2, ("a", "b"), "y")
        assert [gate.evaluate([a, b]) for a in (0, 1) for b in (0, 1)] == [
            1, 0, 0, 0
        ]

    def test_pmos_per_input(self):
        gate = Gate("g", GateKind.NAND2, ("a", "b"), "y")
        assert gate.transistor_count == 2
        assert {p.gate_node for p in gate.pmos} == {"a", "b"}

    def test_pmos_inherit_width_class(self):
        gate = Gate("g", GateKind.INV, ("a",), "y",
                    width_class=WidthClass.WIDE)
        assert all(not p.is_narrow for p in gate.pmos)

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Gate("g", GateKind.INV, ("a", "b"), "y")

    def test_non_binary_input_rejected(self):
        gate = Gate("g", GateKind.INV, ("a",), "y")
        with pytest.raises(ValueError):
            gate.evaluate([2])


class TestPMOSTransistor:
    def test_stressed_by_zero(self):
        pmos = PMOSTransistor("p", "n")
        assert pmos.stressed_by(0)
        assert not pmos.stressed_by(1)

    def test_stressed_by_rejects_bad_value(self):
        with pytest.raises(ValueError):
            PMOSTransistor("p", "n").stressed_by(5)


class TestCircuit:
    def test_evaluate_chain(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate(Gate("g1", GateKind.INV, ("a",), "n1"))
        circuit.add_gate(Gate("g2", GateKind.INV, ("n1",), "y"))
        circuit.add_output("y")
        assert circuit.output_values({"a": 1}) == {"y": 1}
        assert circuit.output_values({"a": 0}) == {"y": 0}

    def test_duplicate_driver_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate(Gate("g1", GateKind.INV, ("a",), "y"))
        with pytest.raises(ValueError):
            circuit.add_gate(Gate("g2", GateKind.INV, ("a",), "y"))

    def test_driving_an_input_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(ValueError):
            circuit.add_gate(Gate("g", GateKind.INV, ("a",), "a"))

    def test_missing_input_value_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(ValueError):
            circuit.evaluate({})

    def test_undriven_node_detected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate(Gate("g", GateKind.NAND2, ("a", "ghost"), "y"))
        with pytest.raises(ValueError, match="undriven"):
            circuit.evaluate({"a": 1})

    def test_fanout(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        builder.inv(a)
        builder.inv(a)
        assert builder.circuit.fanout("a") == 2

    def test_fanout_sizing(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        hub = builder.inv(a, name="hub")
        for __ in range(4):
            builder.inv(hub)
        converted = builder.circuit.apply_fanout_sizing(wide_threshold=4)
        assert converted == 1
        driver = builder.circuit.driver_of("hub")
        assert driver.width_class is WidthClass.WIDE

    def test_fanout_tracks_add_gate_and_resize(self):
        builder = CircuitBuilder()
        a, b = builder.input("a"), builder.input("b")
        hub = builder.nand2(a, b, name="hub")
        builder.inv(hub)
        circuit = builder.circuit
        assert circuit.fanout("hub") == 1
        circuit.add_gate(Gate("g_extra", GateKind.NAND2, (hub, hub), "z"))
        assert circuit.fanout("hub") == 3
        assert circuit.fanout("z") == 0
        circuit.resize_gates(["g_extra"], WidthClass.WIDE)
        assert circuit.fanout("hub") == 3
        assert circuit.fanout(a) == circuit.fanout(b) == 1
        circuit.add_gate(Gate("g_more", GateKind.INV, ("z",), "w"))
        assert circuit.fanout("z") == 1

    def test_fanout_equals_pin_count_on_adder(self, adder32):
        circuit = adder32.circuit
        for node in circuit.nodes:
            assert circuit.fanout(node) == sum(
                gate.inputs.count(node) for gate in circuit.gates)

    def test_resize_gates_counts_changes(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        builder.inv(a, name="y")
        circuit = builder.circuit
        gate_name = circuit.gates[0].name
        assert circuit.resize_gates([gate_name], WidthClass.WIDE) == 1
        # Already wide: no change.
        assert circuit.resize_gates([gate_name], WidthClass.WIDE) == 0


class TestCircuitBuilder:
    @pytest.mark.parametrize("a", (0, 1))
    @pytest.mark.parametrize("b", (0, 1))
    def test_composites_truth_tables(self, a, b):
        builder = CircuitBuilder()
        na, nb = builder.input("a"), builder.input("b")
        outputs = {
            "and": builder.and2(na, nb),
            "or": builder.or2(na, nb),
            "xor": builder.xor2(na, nb),
            "xnor": builder.xnor2(na, nb),
        }
        for node in outputs.values():
            builder.mark_output(node)
        values = builder.circuit.output_values({"a": a, "b": b})
        assert values[outputs["and"]] == (a & b)
        assert values[outputs["or"]] == (a | b)
        assert values[outputs["xor"]] == (a ^ b)
        assert values[outputs["xnor"]] == 1 - (a ^ b)

    def test_aoi21(self):
        builder = CircuitBuilder()
        a, b, c = (builder.input(n) for n in "abc")
        y = builder.aoi21(a, b, c)
        builder.mark_output(y)
        for va in (0, 1):
            for vb in (0, 1):
                for vc in (0, 1):
                    got = builder.circuit.output_values(
                        {"a": va, "b": vb, "c": vc}
                    )[y]
                    assert got == ((va & vb) | vc)

    def test_trees(self):
        builder = CircuitBuilder()
        nodes = builder.inputs("x", 5)
        y_and = builder.and_tree(nodes)
        y_or = builder.or_tree(nodes)
        builder.mark_output(y_and)
        builder.mark_output(y_or)
        values = {f"x{i}": 1 for i in range(5)}
        out = builder.circuit.output_values(values)
        assert out[y_and] == 1 and out[y_or] == 1
        values["x3"] = 0
        out = builder.circuit.output_values(values)
        assert out[y_and] == 0 and out[y_or] == 1

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError):
            CircuitBuilder().and_tree([])

    def test_xor_exposes_internal_nodes(self):
        builder = CircuitBuilder()
        a, b = builder.input("a"), builder.input("b")
        builder.xor2(a, b)
        # 4 NAND gates -> 3 internal + 1 output node beyond the inputs.
        assert len(builder.circuit) == 4


class TestAgingSimulator:
    def _inverter(self):
        builder = CircuitBuilder()
        a = builder.input("a")
        builder.mark_output(builder.inv(a, name="y"))
        return builder.circuit

    def test_duty_accumulation(self):
        circuit = self._inverter()
        sim = AgingSimulator(circuit)
        sim.apply({"a": 0}, 3.0)
        sim.apply({"a": 1}, 1.0)
        pmos = circuit.pmos_transistors()[0]
        assert sim.pmos_duty(pmos) == pytest.approx(0.75)
        assert sim.elapsed == pytest.approx(4.0)

    def test_report_counts_fully_stressed(self):
        circuit = self._inverter()
        sim = AgingSimulator(circuit)
        sim.apply({"a": 0}, 1.0)
        report = sim.report()
        assert report.narrow_fully_stressed == 1
        assert report.narrow_fully_stressed_fraction == pytest.approx(0.5)
        assert report.worst_narrow_duty == 1.0
        assert report.guardband == pytest.approx(0.20)

    def test_balanced_input_gets_min_guardband(self):
        circuit = self._inverter()
        sim = AgingSimulator(circuit)
        sim.apply({"a": 0}, 1.0)
        sim.apply({"a": 1}, 1.0)
        report = sim.report()
        assert report.narrow_fully_stressed == 0
        assert report.guardband == pytest.approx(0.02)

    def test_zero_duration_is_noop(self):
        circuit = self._inverter()
        sim = AgingSimulator(circuit)
        sim.apply({"a": 0}, 0.0)
        assert sim.elapsed == 0.0

    def test_negative_duration_rejected(self):
        sim = AgingSimulator(self._inverter())
        with pytest.raises(ValueError):
            sim.apply({"a": 0}, -1.0)

    def test_reset(self):
        circuit = self._inverter()
        sim = AgingSimulator(circuit)
        sim.apply({"a": 0}, 1.0)
        sim.reset()
        assert sim.elapsed == 0.0
        assert sim.report().worst_narrow_duty == 0.0

    def test_apply_weighted(self):
        circuit = self._inverter()
        sim = AgingSimulator(circuit)
        sim.apply_weighted([({"a": 0}, 1.0), ({"a": 1}, 3.0)])
        pmos = circuit.pmos_transistors()[0]
        assert sim.pmos_duty(pmos) == pytest.approx(0.25)


def _operand_vectors(adder, count, seed=3):
    rng = random.Random(seed)
    mask = (1 << adder.width) - 1
    operands = [(0, 0, 0), (mask, mask, 1)] + [
        (rng.getrandbits(adder.width), rng.getrandbits(adder.width),
         rng.getrandbits(1)) for __ in range(count - 2)]
    return [adder.input_vector(*operand) for operand in operands]


class TestBitParallel:
    """Lane evaluation and batch aging against per-vector evaluation."""

    def test_lanes_equal_per_vector_evaluate(self, adder32):
        circuit = adder32.circuit
        vectors = _operand_vectors(adder32, 70)
        words = circuit.evaluate_lanes(vectors)
        per_vector = [circuit.evaluate(vector) for vector in vectors]
        assert list(words) == list(per_vector[0])
        for node, word in words.items():
            assert word == sum(values[node] << lane
                               for lane, values in enumerate(per_vector))

    def test_lane_checks_match_evaluate(self, adder8):
        circuit = adder8.circuit
        good = adder8.input_vector(1, 2, 0)
        missing = dict(good)
        del missing[adder8.cin_pin]
        with pytest.raises(ValueError, match="missing values"):
            circuit.evaluate_lanes([good, missing])
        bad = dict(good, **{adder8.cin_pin: 2})
        with pytest.raises(ValueError, match="must be 0/1"):
            circuit.evaluate_lanes([good, bad])

    @pytest.mark.parametrize("weight", [0.3 / 256, 1.0, 0.1])
    def test_batch_apply_equals_per_vector_apply(self, adder32, weight):
        vectors = _operand_vectors(adder32, 258)
        batch = AgingSimulator(adder32.circuit)
        single = AgingSimulator(adder32.circuit)
        # A second batch lands on accumulated (non-zero) times.
        for chunk in (vectors[:256], vectors[256:], vectors[:5]):
            batch.apply_sequence(chunk, weight)
            for vector in chunk:
                single.apply(vector, weight)
        single.apply(vectors[0], 0.7)
        batch.apply(vectors[0], 0.7)
        assert list(batch.ledger.nodes()) == list(single.ledger.nodes())
        assert batch.ledger._nodes == single.ledger._nodes
        assert batch.elapsed == single.elapsed
        assert batch.report() == single.report()

    def test_batch_apply_edge_cases(self):
        builder = CircuitBuilder()
        builder.mark_output(builder.inv(builder.input("a"), name="y"))
        sim = AgingSimulator(builder.circuit)
        sim.apply_sequence([], -1.0)
        sim.apply_sequence([{"a": 0}], 0.0)
        assert sim.elapsed == 0.0 and len(sim.ledger) == 0
        with pytest.raises(ValueError):
            sim.apply_sequence([{"a": 0}], -1.0)
        with pytest.raises(ValueError):
            sim.apply_sequence([{"a": 0}, {}], 1.0)
        assert len(sim.ledger) == 0
