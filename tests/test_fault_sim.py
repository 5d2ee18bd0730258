"""Packed fault simulator, validated against an independent naive
implementation (dual-machine scalar simulation with explicit injection).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import insert_scan, random_circuit, s27, toy_pipeline, toy_seq
from repro.circuit.gates import ONE, X, ZERO, eval_gate
from repro.faults import collapse_faults, enumerate_faults, stem_fault
from repro.sim import LogicSimulator, PackedFaultSimulator
from repro.sim.fault_sim import iter_fault_positions

from tests.util import random_vectors


# -- independent reference implementation ---------------------------------------


def naive_fault_run(circuit, fault, vectors):
    """Scalar dual-machine sequential fault simulation.

    Written independently of the packed simulator: one dict per machine,
    explicit fault forcing.  Returns the first detection time or None.
    """
    flops = circuit.flops
    good_state = {f.q: X for f in flops}
    faulty_state = {f.q: X for f in flops}

    def faulty_input(consumer, pin, net, nets):
        value = nets[net]
        if fault.kind == "branch" and fault.consumer == consumer \
                and fault.pin == pin:
            return fault.stuck_at
        return value

    for time, vector in enumerate(vectors):
        good = dict(zip(circuit.inputs, vector))
        faulty = dict(zip(circuit.inputs, vector))
        for flop in flops:
            good[flop.q] = good_state[flop.q]
            faulty[flop.q] = faulty_state[flop.q]
        if fault.kind == "stem" and fault.net in faulty:
            faulty[fault.net] = fault.stuck_at
        for gate in circuit.topo_gates:
            good[gate.output] = eval_gate(
                gate.kind, [good[n] for n in gate.inputs]
            )
            fin = [
                faulty_input(gate.output, pin, net, faulty)
                for pin, net in enumerate(gate.inputs)
            ]
            value = eval_gate(gate.kind, fin)
            if fault.kind == "stem" and fault.net == gate.output:
                value = fault.stuck_at
            faulty[gate.output] = value
        # Detection at primary outputs.
        for po in circuit.outputs:
            g = good[po]
            f = faulty[po]
            if fault.kind == "branch" and fault.consumer == f"PO:{po}":
                f = fault.stuck_at
            if g != X and f != X and g != f:
                return time
        # Latch.
        good_state = {f.q: good[f.d] for f in flops}
        new_faulty = {}
        for flop in flops:
            new_faulty[flop.q] = faulty_input(flop.q, 0, flop.d, faulty)
        faulty_state = new_faulty
    return None


def assert_agrees(circuit, faults, vectors):
    sim = PackedFaultSimulator(circuit, faults)
    result = sim.run(vectors)
    for fault in faults:
        expected = naive_fault_run(circuit, fault, vectors)
        got = result.detection_time.get(fault)
        assert got == expected, (
            f"{fault}: packed={got} naive={expected}"
        )


# -- agreement tests ---------------------------------------------------------------


class TestAgreementWithNaive:
    def test_s27_all_collapsed(self, s27_circuit):
        faults = collapse_faults(s27_circuit)
        assert_agrees(s27_circuit, faults, random_vectors(s27_circuit, 60, seed=2))

    def test_s27_scan_all_collapsed(self, s27_scan):
        c = s27_scan.circuit
        assert_agrees(c, collapse_faults(c), random_vectors(c, 60, seed=3))

    def test_uncollapsed_universe_sample(self, s27_circuit):
        faults = enumerate_faults(s27_circuit)[::3]
        assert_agrees(s27_circuit, faults, random_vectors(s27_circuit, 40, seed=4))

    def test_toy_seq(self, toy_seq_circuit):
        faults = collapse_faults(toy_seq_circuit)
        assert_agrees(toy_seq_circuit, faults,
                      random_vectors(toy_seq_circuit, 50, seed=5))

    def test_random_circuit(self):
        c = random_circuit("agree", 4, 6, 35, seed=77)
        faults = collapse_faults(c)
        assert_agrees(c, faults, random_vectors(c, 50, seed=6))

    def test_vectors_with_x(self, s27_circuit):
        """X input values simulate pessimistically in both implementations."""
        rng = random.Random(9)
        vectors = [
            tuple(rng.choice((ZERO, ONE, X)) for _ in s27_circuit.inputs)
            for _ in range(40)
        ]
        assert_agrees(s27_circuit, collapse_faults(s27_circuit), vectors)


class TestGoodMachine:
    def test_matches_scalar_simulator(self, s27_scan):
        circuit = s27_scan.circuit
        faults = collapse_faults(circuit)
        packed = PackedFaultSimulator(circuit, faults)
        scalar = LogicSimulator(circuit)
        for vector in random_vectors(circuit, 80, seed=11):
            expected = scalar.step(vector)
            packed.step(vector)
            assert packed.good_outputs() == expected
            assert packed.good_state() == scalar.state

    def test_good_machine_never_detected(self, s27_circuit):
        faults = collapse_faults(s27_circuit)
        sim = PackedFaultSimulator(s27_circuit, faults)
        for vector in random_vectors(s27_circuit, 50, seed=12):
            assert sim.step(vector) & 1 == 0


class TestStateManagement:
    def test_reset(self, s27_circuit):
        sim = PackedFaultSimulator(s27_circuit, collapse_faults(s27_circuit))
        sim.step((ONE,) * 4)
        sim.reset()
        assert sim.time == 0
        assert sim.good_state() == (X, X, X)

    def test_save_restore_roundtrip(self, s27_circuit):
        faults = collapse_faults(s27_circuit)
        sim = PackedFaultSimulator(s27_circuit, faults)
        vectors = random_vectors(s27_circuit, 30, seed=13)
        for v in vectors[:10]:
            sim.step(v)
        snapshot = sim.save_state()
        masks_a = [sim.step(v) for v in vectors[10:]]
        sim.restore_state(snapshot)
        masks_b = [sim.step(v) for v in vectors[10:]]
        assert masks_a == masks_b

    def test_load_state_broadcast(self, s27_circuit):
        sim = PackedFaultSimulator(s27_circuit, collapse_faults(s27_circuit))
        sim.load_state((ONE, ZERO, X))
        assert sim.good_state() == (ONE, ZERO, X)
        assert sim.machine_state(3) == (ONE, ZERO, X)

    def test_load_state_wrong_width(self, s27_circuit):
        sim = PackedFaultSimulator(s27_circuit, collapse_faults(s27_circuit))
        with pytest.raises(ValueError):
            sim.load_state((ONE,))

    def test_load_machine_states(self, s27_circuit):
        fault = stem_fault("G11", 0)
        sim = PackedFaultSimulator(s27_circuit, [fault])
        sim.load_machine_states([(ONE, ZERO, ONE), (ZERO, ZERO, ONE)])
        assert sim.machine_state(0) == (ONE, ZERO, ONE)
        assert sim.machine_state(1) == (ZERO, ZERO, ONE)

    def test_load_machine_states_wrong_count(self, s27_circuit):
        sim = PackedFaultSimulator(s27_circuit, [stem_fault("G11", 0)])
        with pytest.raises(ValueError):
            sim.load_machine_states([(X, X, X)])


class TestEffectMasks:
    def test_ff_effects_match_naive_states(self, s27_circuit):
        """ff_effect_masks flags exactly the machines whose flop value is
        the binary opposite of the good machine."""
        faults = collapse_faults(s27_circuit)
        sim = PackedFaultSimulator(s27_circuit, faults)
        vectors = random_vectors(s27_circuit, 25, seed=14)
        # Run the packed sim and record final effect masks.
        for v in vectors:
            sim.step(v)
        masks = sim.ff_effect_masks()
        good_final = sim.good_state()
        for position, fault in enumerate(faults):
            faulty_final = sim.machine_state(position + 1)
            for flop_index in range(3):
                g = good_final[flop_index]
                f = faulty_final[flop_index]
                expected = g != X and f != X and g != f
                got = bool(masks[flop_index] & (1 << (position + 1)))
                assert got == expected

    def test_net_effect_and_good_value(self, s27_circuit):
        fault = stem_fault("G11", 1)
        sim = PackedFaultSimulator(s27_circuit, [fault])
        sim.step((ONE, ONE, ONE, ONE))
        good = sim.good_net_value("G11")
        if good == ZERO:
            assert sim.net_effect_mask("G11") & 2


class TestRunAPI:
    def test_detection_times_are_first(self, s27_scan):
        circuit = s27_scan.circuit
        faults = collapse_faults(circuit)
        sim = PackedFaultSimulator(circuit, faults)
        vectors = random_vectors(circuit, 120, seed=15)
        result = sim.run(vectors)
        # Re-simulate and confirm nothing is detected before its time.
        for fault, t in result.detection_time.items():
            single = PackedFaultSimulator(circuit, [fault])
            r = single.run(vectors[: t + 1])
            assert r.detection_time.get(fault) == t

    def test_coverage_and_partitions(self, s27_scan):
        circuit = s27_scan.circuit
        faults = collapse_faults(circuit)
        sim = PackedFaultSimulator(circuit, faults)
        result = sim.run(random_vectors(circuit, 200, seed=16))
        assert len(result.detected) + len(result.undetected) == len(faults)
        assert result.coverage() == pytest.approx(
            100.0 * len(result.detected) / len(faults)
        )

    def test_detects_all(self, s27_scan):
        circuit = s27_scan.circuit
        faults = collapse_faults(circuit)
        sim = PackedFaultSimulator(circuit, faults)
        vectors = random_vectors(circuit, 300, seed=0)
        assert sim.detects_all(vectors)
        assert not sim.detects_all(vectors[:2])

    def test_stop_when_all_detected(self, s27_scan):
        circuit = s27_scan.circuit
        faults = collapse_faults(circuit)[:5]
        sim = PackedFaultSimulator(circuit, faults)
        vectors = random_vectors(circuit, 300, seed=0)
        result = sim.run(vectors, stop_when_all_detected=True)
        assert result.num_vectors < 300
        assert len(result.detected) == 5

    def test_faults_from_mask(self, s27_circuit):
        faults = collapse_faults(s27_circuit)[:4]
        sim = PackedFaultSimulator(s27_circuit, faults)
        assert sim.faults_from_mask(0) == []
        assert sim.faults_from_mask(0b110) == faults[:2]

    def test_fault_on_unknown_net(self, s27_circuit):
        with pytest.raises(ValueError):
            PackedFaultSimulator(s27_circuit, [stem_fault("ghost", 0)])


class TestSubsetEquivalence:
    def test_subset_simulation_consistent(self, s27_scan):
        """Simulating a subset of faults gives the same detection times as
        the full pack (machines are independent)."""
        circuit = s27_scan.circuit
        faults = collapse_faults(circuit)
        vectors = random_vectors(circuit, 100, seed=17)
        full = PackedFaultSimulator(circuit, faults).run(vectors)
        subset = faults[::5]
        partial = PackedFaultSimulator(circuit, subset).run(vectors)
        for fault in subset:
            assert partial.detection_time.get(fault) == \
                full.detection_time.get(fault)


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 6000), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32))
def test_iter_fault_positions_matches_low_bit_walk(width, density, seed):
    """The string scan yields the set bits above bit 0, ascending,
    minus one, as the old low-bit walk did, at every width."""
    rng = random.Random(seed)
    mask = sum(1 << bit for bit in range(width + 1)
               if rng.random() < density)
    expected = [bit - 1 for bit in range(1, width + 1) if mask >> bit & 1]
    assert list(iter_fault_positions(mask)) == expected
