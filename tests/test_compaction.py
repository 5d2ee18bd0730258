"""Static compaction: restoration [23], omission [22], scan-set
reverse-order pass, and the shared oracle."""

import random

import pytest

from repro.atpg import CombScanATPG, SeqATPGConfig
from repro.circuit import insert_scan, random_circuit, s27
from repro.compaction import (
    CompactionOracle,
    omission_compact,
    restoration_compact,
    reverse_order_compact,
)
from repro.core import ScanAwareATPG
from repro.faults import collapse_faults
from repro.sim import PackedFaultSimulator
from repro.testseq import TestSequence
from tests.util import random_vectors


@pytest.fixture(scope="module")
def s27_scan_case():
    """A generated sequence for s27_scan with full fault coverage."""
    sc = insert_scan(s27())
    faults = collapse_faults(sc.circuit)
    result = ScanAwareATPG(sc, faults, config=SeqATPGConfig(seed=1)).generate()
    return sc.circuit, faults, result.sequence


def detected_set(circuit, faults, sequence):
    sim = PackedFaultSimulator(circuit, faults)
    return set(sim.run(list(sequence)).detection_time)


class TestRestoration:
    def test_preserves_detections(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        before = detected_set(circuit, faults, sequence)
        result = restoration_compact(circuit, sequence, faults)
        after = detected_set(circuit, faults, result.sequence)
        assert before <= after

    def test_never_longer(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        result = restoration_compact(circuit, sequence, faults)
        assert len(result.sequence) <= len(sequence)

    def test_typically_shorter(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        result = restoration_compact(circuit, sequence, faults)
        assert len(result.sequence) < len(sequence)

    def test_kept_indices_ascending_subset(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        result = restoration_compact(circuit, sequence, faults)
        assert result.kept_indices == sorted(set(result.kept_indices))
        assert all(0 <= i < len(sequence) for i in result.kept_indices)
        assert result.sequence.vectors == tuple(
            sequence[i] for i in result.kept_indices
        )

    def test_never_detected_reported(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        # Truncate the sequence so some faults go undetected.
        short = TestSequence(sequence.inputs, sequence.vectors[:5],
                             scan_sel=sequence.scan_sel)
        result = restoration_compact(circuit, short, faults)
        assert set(result.never_detected) == \
            set(faults) - detected_set(circuit, faults, short)

    def test_empty_sequence(self, s27_scan_case):
        circuit, faults, _ = s27_scan_case
        empty = TestSequence.for_circuit(circuit, [])
        result = restoration_compact(circuit, empty, faults)
        assert len(result.sequence) == 0


class TestOmission:
    def test_preserves_required(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        before = detected_set(circuit, faults, sequence)
        result = omission_compact(circuit, sequence, faults)
        after = detected_set(circuit, faults, result.sequence)
        assert before <= after

    def test_local_minimum_at_fixpoint(self, s27_scan_case):
        """Run to a fixpoint (a sweep with zero omissions); then removing
        any single remaining vector must break coverage.  A *single* pass
        has no such guarantee — omitting a later vector changes the state
        trajectory and can make an earlier vector newly omittable."""
        circuit, faults, sequence = s27_scan_case
        result = omission_compact(circuit, sequence, faults, max_passes=20)
        compacted = result.sequence
        required = detected_set(circuit, faults, sequence)
        for index in range(len(compacted)):
            shorter = compacted.without(index)
            still = detected_set(circuit, faults, shorter)
            assert not required <= still, (
                f"vector {index} was omittable but kept"
            )

    def test_omitted_count(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        result = omission_compact(circuit, sequence, faults)
        assert result.omitted_count == len(sequence) - len(result.sequence)

    def test_extra_detected_disjoint_from_required(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        required = detected_set(circuit, faults, sequence)
        result = omission_compact(circuit, sequence, faults)
        assert not set(result.extra_detected) & required

    def test_multi_pass_not_worse(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        one = omission_compact(circuit, sequence, faults, max_passes=1)
        two = omission_compact(circuit, sequence, faults, max_passes=3)
        assert len(two.sequence) <= len(one.sequence)

    def test_shortens_scan_operations(self, s27_scan_case):
        """Omission may shorten scan runs — the limited-scan effect the
        paper demonstrates in Table 4."""
        circuit, faults, sequence = s27_scan_case
        result = omission_compact(circuit, sequence, faults)
        assert result.sequence.scan_vector_count() <= \
            sequence.scan_vector_count()


class TestPipelineOrder:
    def test_restoration_then_omission_monotone(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        oracle = CompactionOracle(circuit, faults)
        restored = restoration_compact(circuit, sequence, faults, oracle=oracle)
        omitted = omission_compact(circuit, restored.sequence, faults,
                                   oracle=oracle)
        assert len(omitted.sequence) <= len(restored.sequence) <= len(sequence)
        before = detected_set(circuit, faults, sequence)
        after = detected_set(circuit, faults, omitted.sequence)
        assert before <= after


class TestOracle:
    def test_checkpoint_equals_scratch(self, s27_scan_case):
        """Suffix simulation resumed from a checkpoint equals
        whole-sequence simulation (the machinery omission relies on)."""
        circuit, faults, sequence = s27_scan_case
        oracle = CompactionOracle(circuit, faults)
        scratch = CompactionOracle(circuit, faults, incremental=False)
        vectors = list(sequence.vectors)
        split = min(10, len(vectors) // 2)
        oracle.detection_times(vectors[:split])  # lays down checkpoints
        hits = oracle.session.checkpoint_hits
        assert oracle.detected_mask(vectors) == scratch.detected_mask(vectors)
        assert oracle.session.checkpoint_hits > hits  # resumed mid-way
        edited = vectors[:split] + vectors[split:][::-1]
        assert oracle.detection_times(edited) == \
            scratch.detection_times(edited)

    def test_mask_roundtrip(self, s27_scan_case):
        circuit, faults, _ = s27_scan_case
        oracle = CompactionOracle(circuit, faults)
        subset = faults[3:9]
        assert oracle.faults_of(oracle.mask_of(subset)) == sorted(
            subset, key=faults.index
        )

    def test_detects_all_early_exit(self, s27_scan_case):
        circuit, faults, sequence = s27_scan_case
        oracle = CompactionOracle(circuit, faults)
        target = oracle.mask_of(faults[:3])
        assert oracle.detects_all(list(sequence.vectors), target)


class TestReverseOrderScanSet:
    def test_coverage_preserved_with_fewer_tests(self):
        circuit = random_circuit("ro", 4, 8, 50, seed=19)
        faults = collapse_faults(circuit)
        gen = CombScanATPG(circuit, faults, seed=3)
        result = gen.generate()
        if len(result.test_set) < 3:
            pytest.skip("test set too small to compact")
        compacted, detected_by = reverse_order_compact(
            circuit, faults, result.test_set
        )
        assert len(compacted) <= len(result.test_set)
        # Coverage must not drop.
        from repro.atpg.scan_sim import scan_test_detections

        sim = PackedFaultSimulator(circuit, faults)
        full_mask = 0
        for test in result.test_set:
            full_mask |= scan_test_detections(sim, test)
        kept_mask = 0
        for test in compacted:
            kept_mask |= scan_test_detections(sim, test)
        assert kept_mask == full_mask
        # detected_by indexes into the compacted set.
        assert all(0 <= i < len(compacted) for i in detected_by.values())
