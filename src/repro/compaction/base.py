"""Shared infrastructure for static test compaction.

The compaction procedures of Section 4 were "developed for non-scan
synchronous sequential circuits, which accept a single test sequence" —
they know nothing about scan.  Their only interface to the circuit is a
*detection oracle*: given a sequence, which target faults does it detect,
and when?  :class:`CompactionOracle` packages that interface over an
incremental :class:`~repro.sim.session.SimSession`, so near-identical
queries (omission trials, restoration spans, tail trims) resume from
packed-state checkpoints instead of cycle 0, and faults a procedure has
secured can be :meth:`dropped <drop>` from the packed planes until the
procedure's final accounting.

Procedures may share one oracle (the pipelines and ablations do).  The
contract that makes that safe: every procedure calls
:meth:`restore_dropped` before its first query *and* before its final
full-universe accounting, so drops never leak across procedure
boundaries.

With ``jobs > 1`` the oracle routes its *full-universe*
:meth:`detection_times` queries — the expensive ones, e.g. the initial
scoring pass restoration opens with — through the fault-sharded
:class:`~repro.parallel.ParallelFaultSim`, whose results are
bit-identical to the serial session's (including dict order).  The
incremental early-exit queries (:meth:`detected_mask`,
:meth:`detects_all`) always stay on the session: they win by resuming
from checkpoints and stopping early, which sharding would forfeit.
Queries issued while faults are dropped also stay on the session.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..sim.session import SimSession


class CompactionOracle:
    """Detection oracle over a fixed circuit and target fault list.

    ``incremental=False`` makes the underlying :class:`SimSession`
    restart every query from cycle 0 (the baseline the perf guards
    measure against).  The
    simulation backend is chosen by the session (every standard backend
    is bit-identical); ``simulator_factory`` overrides it with a custom
    API-compatible factory.
    """

    def __init__(self, circuit: Circuit, faults: Sequence[Fault],
                 simulator_factory=None,
                 incremental: bool = True,
                 jobs: int = 1,
                 store=None):
        self.circuit = circuit
        self.faults = list(faults)
        #: True when simulation runs on a standard (stuck-at, bit-exact)
        #: backend rather than a custom factory — the gate for both the
        #: result cache and the parallel engine below.
        self._standard = simulator_factory is None
        self.session = SimSession(
            circuit,
            self.faults,
            simulator_factory=simulator_factory,
            incremental=incremental,
        )
        self._position = {f: i + 1 for i, f in enumerate(self.faults)}
        self.jobs = jobs
        self._parallel = None
        # Full-universe detection_times results are memoized in the
        # content-addressed store when one is attached; custom simulator
        # factories (test doubles, other fault models) stay uncached —
        # their results are not keyed by the stuck-at fault identity
        # alone.  Standard backends are interchangeable bit-for-bit, so
        # cached results are backend-independent.
        self._store = store if self._standard else None
        self._stages = None

    # -- mask helpers -----------------------------------------------------

    def mask_of(self, faults: Iterable[Fault]) -> int:
        """Bit mask corresponding to a set of target faults."""
        mask = 0
        for fault in faults:
            mask |= 1 << self._position[fault]
        return mask

    def faults_of(self, mask: int) -> List[Fault]:
        """Decode a detection mask back into fault objects."""
        return self.session.faults_of(mask)

    @property
    def all_mask(self) -> int:
        return self.session.fault_mask

    # -- whole-sequence queries ---------------------------------------------

    def detection_times(self, vectors: Sequence[Sequence[int]]) -> Dict[Fault, int]:
        """First-detection time of every target fault under ``vectors``.

        With a result store attached, full-universe results (no faults
        dropped) are served from / persisted to the cache — these are
        the expensive queries warm restarts skip entirely."""
        stages = self._stage_cache()
        if stages is not None:
            times = stages.load_detection(self.faults, vectors)
            if times is not None:
                return times
        engine = self._parallel_engine(len(vectors))
        if engine is not None:
            times = engine.detection_times(vectors)
        else:
            times = self.session.detection_times(vectors)
        if stages is not None:
            stages.save_detection(self.faults, vectors, times)
        return times

    def _stage_cache(self):
        """The bound :class:`~repro.cache.stages.StageCache`, when
        caching applies right now (store attached *and* the full
        universe live — dropped-fault queries are procedure-internal
        and never cached)."""
        if self._store is None or self.session.dropped_mask != 0:
            return None
        if self._stages is None:
            from ..cache.stages import StageCache

            self._stages = StageCache(self._store, self.circuit)
        return self._stages

    def _parallel_engine(self, num_vectors: int):
        """The shared :class:`ParallelFaultSim`, when a full-universe
        query over ``num_vectors`` cycles would actually fan out —
        ``None`` means: use the serial session.  Custom simulator
        factories (test doubles, instrumented sims) and dropped-fault
        states always stay serial."""
        if self.jobs <= 1 or not self._standard:
            return None
        if self.session.dropped_mask != 0:
            return None
        if self._parallel is None:
            from ..parallel import ParallelFaultSim

            self._parallel = ParallelFaultSim(
                self.circuit, self.faults, self.jobs,
                sim_backend=self.session.sim_backend,
                costs=self._warm_costs(),
            )
        if self._parallel.effective_jobs(num_vectors) <= 1:
            return None
        return self._parallel

    def _warm_costs(self):
        """Per-fault LPT shard costs seeded from the largest cached
        detection entry for this circuit, or ``None`` (round-robin).

        A fault detected at cycle ``t`` in a previous run costs ``t+1``
        (a dropping simulator stops paying for it there); undetected
        faults cost the full horizon.  Any shard plan merges
        bit-identically, so a stale or partial entry can only cost
        speed, never bits.  Heuristic and damage-tolerant by design —
        unreadable entries simply mean no seeding.
        """
        stages = self._stage_cache()
        if stages is None or not stages.enabled:
            return None
        from ..cache.codec import decode_fault
        from ..parallel.plan import costs_from_detection_times

        best = None
        try:
            for stage, payload in self._store.entries_for_circuit(
                    stages.circuit_fp):
                if stage != "detection":
                    continue
                times = payload.get("times") or []
                if times and (best is None or len(times) > len(best)):
                    best = times
        except Exception:
            return None
        if not best:
            return None
        position = {f: i for i, f in enumerate(self.faults)}
        times_by_pos = {}
        try:
            for item, t in best:
                fault = decode_fault(item)
                if fault in position:
                    times_by_pos[position[fault]] = int(t)
        except Exception:
            return None
        if not times_by_pos:
            return None
        horizon = max(times_by_pos.values()) + 2
        return costs_from_detection_times(
            times_by_pos, len(self.faults), horizon)

    def detected_mask(
        self,
        vectors: Sequence[Sequence[int]],
        target_mask: Optional[int] = None,
    ) -> int:
        """Mask of targets detected by ``vectors``.

        ``target_mask`` limits interest (enables early exit once all of
        them fall)."""
        return self.session.detected_mask(vectors, target_mask)

    def detects_all(
        self,
        vectors: Sequence[Sequence[int]],
        target_mask: int,
    ) -> bool:
        """Does the sequence detect every fault in ``target_mask``?"""
        return self.detected_mask(vectors, target_mask) == target_mask

    # -- fault dropping ------------------------------------------------------

    def drop(self, mask: int) -> int:
        """Drop secured faults from the packed simulation (see
        :meth:`SimSession.drop`); they must not be queried again until
        :meth:`restore_dropped`."""
        return self.session.drop(mask)

    def restore_dropped(self) -> None:
        """Undo every :meth:`drop` — call before a procedure's first
        query and before its final full-universe accounting."""
        self.session.restore_dropped()

    def close(self) -> Dict[str, int]:
        """Release everything the oracle lazily built: shut down and
        join the parallel engine's worker pool (when one was spun up)
        and flush the underlying session's lifetime counters to the
        telemetry journal (see :meth:`SimSession.close`).  Idempotent."""
        if self._parallel is not None:
            self._parallel.close()
            self._parallel = None
        return self.session.close()

