"""Parity of the event-driven, fault-cone PODEM engine with the
full-recompute reference (``tests/podem_reference.py``).

The implication engine changed, the search did not: every run must
return the identical :class:`PodemResult` — status, cube including its
insertion order, detecting outputs and backtrack count — on the comb
views the flows run PODEM on, on time-frame unrollings with frozen
inputs, and on random circuits.
"""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.atpg import Podem, comb_view, replicate_fault, unroll
from repro.atpg.comb_view import view_fault
from repro.atpg.podem import _KIND_CODE, _evaluate, _truth_table
from repro.circuit import insert_scan, random_circuit, s27
from repro.circuit.gates import GATE_ARITY, ONE, X, ZERO, eval_gate
from repro.experiments import suite
from repro.faults import collapse_faults
from tests.podem_reference import ReferencePodem

#: The experiment runner's redundancy limit for tiny and small tiers.
RUNNER_LIMIT = 20000
#: Small enough that many hard faults abort.
ABORT_LIMIT = 3


def assert_same_result(new, ref):
    assert new.status == ref.status, new.fault
    assert new.fault == ref.fault
    assert list(new.assignment.items()) == list(ref.assignment.items()), \
        new.fault
    assert new.detecting_outputs == ref.detecting_outputs, new.fault
    assert new.backtracks == ref.backtracks, new.fault


def test_kind_code_evaluation_matches_eval_gate():
    """The engine's kind-code evaluator and its truth tables agree with
    the reference gate semantics on every input combination."""
    for kind, (low, high) in GATE_ARITY.items():
        for arity in range(low, (high or 4) + 1):
            for values in product((ZERO, ONE, X), repeat=arity):
                expected = eval_gate(kind, list(values))
                assert _evaluate(_KIND_CODE[kind], list(values)) == expected
                if arity <= 2:
                    a, b = values[0], values[-1]
                    table = _truth_table(_KIND_CODE[kind], arity)
                    assert table[3 * a + b] == expected, (kind, values)


def scan_view_faults(circuit):
    """The comb view of ``circuit``'s scan version and its collapsed
    faults rewritten for the view — what the flows hand PODEM."""
    scan = insert_scan(circuit).circuit
    view = comb_view(scan).circuit
    return view, [view_fault(scan, f) for f in collapse_faults(scan)]


def check_all_faults(view, faults, limit):
    new = Podem(view, backtrack_limit=limit)
    ref = ReferencePodem(view, backtrack_limit=limit)
    statuses = set()
    for fault in faults:
        result = new.run(fault)
        assert_same_result(result, ref.run(fault))
        statuses.add(result.status)
    return statuses


class TestSuiteCombViews:
    def test_s27_every_fault(self):
        view, faults = scan_view_faults(s27())
        for limit in (RUNNER_LIMIT, ABORT_LIMIT):
            check_all_faults(view, faults, limit)

    def test_b06_every_fault(self):
        view, faults = scan_view_faults(suite.build_circuit("b06"))
        assert check_all_faults(view, faults, RUNNER_LIMIT) == {
            "detected", "untestable"}
        check_all_faults(view, faults, ABORT_LIMIT)

    def test_s386_every_fault(self):
        view, faults = scan_view_faults(suite.build_circuit("s386"))
        assert check_all_faults(view, faults, RUNNER_LIMIT) == {
            "detected", "untestable"}
        assert "aborted" in check_all_faults(view, faults, ABORT_LIMIT)


def test_run_multi_on_unrolling_with_frozen_inputs():
    """Multi-site faults on 1-3 frame unrollings of s27 and a random
    circuit, frame-0 state frozen at X."""
    for circuit in (s27(), random_circuit("tf", 3, 4, 30, seed=7)):
        faults = collapse_faults(circuit)
        for frames in (1, 2, 3):
            unrolling = unroll(circuit, frames)
            for limit in (300, ABORT_LIMIT):
                new = Podem(unrolling.circuit, backtrack_limit=limit,
                            frozen_inputs=unrolling.frozen_inputs)
                ref = ReferencePodem(unrolling.circuit, backtrack_limit=limit,
                                     frozen_inputs=unrolling.frozen_inputs)
                for fault in faults:
                    try:
                        sites = replicate_fault(unrolling, fault)
                    except ValueError:
                        continue
                    assert_same_result(new.run_multi(sites),
                                       ref.run_multi(sites))


def test_back_to_back_runs_leak_no_state():
    """One instance, faults in forward then reverse order, interleaved
    with multi-site runs: each result equals a fresh instance's."""
    view, faults = scan_view_faults(suite.build_circuit("b06"))
    faults = faults[::3]
    shared = Podem(view, backtrack_limit=50)
    order = faults + faults[::-1]
    for i, fault in enumerate(order):
        assert_same_result(shared.run(fault),
                           Podem(view, backtrack_limit=50).run(fault))
        if i % 7 == 0:
            pair = [fault, order[-1 - i]]
            assert_same_result(shared.run_multi(pair),
                               Podem(view, backtrack_limit=50).run_multi(pair))


def test_implication_counters_match_reference_imply_calls():
    """``atpg.podem.implications`` counts exactly the reference's
    full-recompute passes; ``gate_evals`` stays below their gate work."""

    class CountingReference(ReferencePodem):
        calls = 0

        def _imply(self):
            CountingReference.calls += 1
            super()._imply()

    view, faults = scan_view_faults(suite.build_circuit("s386"))
    ref = CountingReference(view, backtrack_limit=200)
    for fault in faults:
        ref.run(fault)
    with obs.session() as telemetry:
        podem = Podem(view, backtrack_limit=200)
        for fault in faults:
            podem.run(fault)
    counters = telemetry.metrics.snapshot()["counters"]
    assert counters["atpg.podem.calls"] == len(faults)
    assert counters["atpg.podem.implications"] == CountingReference.calls
    full_pass_work = CountingReference.calls * view.num_gates
    assert 0 < counters["atpg.podem.gate_evals"] < full_pass_work / 2


@settings(max_examples=15, deadline=None)
@given(
    params=st.tuples(
        st.integers(min_value=2, max_value=6),   # inputs
        st.integers(min_value=1, max_value=6),   # flops
        st.integers(min_value=6, max_value=60),  # gates
        st.integers(min_value=0, max_value=10_000),  # seed
    ),
    limit=st.sampled_from([2, 20, 500]),
)
def test_random_circuits_match_reference(params, limit):
    inputs, flops, gates, seed = params
    circuit = random_circuit("par", inputs, flops, max(gates, flops),
                             seed=seed)
    view = comb_view(circuit)
    faults = [view_fault(circuit, f) for f in collapse_faults(circuit)]
    check_all_faults(view.circuit, faults, limit)
