"""``ParallelFaultSim`` — the fault-sharded parallel simulation engine.

Drop-in for the whole-sequence surface of
:class:`~repro.sim.fault_sim.PackedFaultSimulator`: ``run(vectors)``
returns the same :class:`~repro.sim.fault_sim.FaultSimResult`,
bit-for-bit, for any worker count — the fault universe is sharded
across a :class:`~repro.parallel.pool.ResilientPool` of processes, each
worker simulates its shard with its own
:class:`~repro.sim.session.SimSession`, and the merge layer recombines
the per-shard detection maps deterministically.

When parallelism is **not** used (and the engine silently runs the
serial simulator instead):

* ``jobs`` resolves to 1 (the default — parallelism is opt-in via the
  ``jobs`` knob or ``REPRO_JOBS``);
* the universe is smaller than ``min_parallel_faults`` (default
  {DEFAULT_MIN_PARALLEL_FAULTS}) — process startup and circuit
  pickling cost more than the simulation;
* the sequence is empty.

Telemetry: the engine emits ``parallel.*`` counters (serial/parallel
run counts, shard sizes, worker cycles, pool retry/requeue/timeout
counters) and a ``parallel.run`` span into the active session; with a
journal attached, workers stream their own ``<base>.w<pid>`` journals
which are merged back after the pool drains.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit
from ..envvars import env_number
from ..faults.model import Fault
from ..obs import context as obs
from ..obs.journal import merge_journals
from ..sim.backend import (
    SimBackend,
    make_backend,
    resolve_concrete_backend,
)
from ..sim.fault_sim import FaultSimResult
from ..sim.logic_sim import vector_from_string
from .merge import merge_counters, merge_shard_results
from .plan import (
    DEFAULT_MIN_PARALLEL_FAULTS,
    ShardPlan,
    plan_shards,
    resolve_jobs,
)
from .pool import ResilientPool
from .worker import (
    ShardTask,
    WorkerContext,
    init_worker,
    resolve_heartbeat_interval,
    run_shard,
    simulate_shard,
)

__doc__ = __doc__.format(
    DEFAULT_MIN_PARALLEL_FAULTS=DEFAULT_MIN_PARALLEL_FAULTS)

#: Per-worker plane-memory budget (MB) for shard planning; unset or 0
#: means unbounded.  A speed/memory knob only — every shard plan merges
#: to bit-identical results.
SHARD_MB_ENV = "REPRO_SHARD_MB"


def _split_task(task: ShardTask) -> List[ShardTask]:
    """Resplit hook for the pool: round-robin halves of the positions."""
    if len(task.positions) <= 1:
        return [task]
    return [
        ShardTask(task.shard_index, task.positions[0::2],
                  task.vectors, task.stop_when_all_detected,
                  task.parent_span),
        ShardTask(task.shard_index, task.positions[1::2],
                  task.vectors, task.stop_when_all_detected,
                  task.parent_span),
    ]


class _WorkerPulse:
    """Pool liveness probe over the per-worker journal files.

    Workers flush every journal line (heartbeats included), so the
    newest mtime among ``<base>.w*`` files is a cheap, parent-side
    "latest heartbeat" timestamp — no file parsing on the hot path.
    A class, not a closure, per the no-closures audit rule for anything
    handed to the pool.
    """

    def __init__(self, trace_base: str):
        self.base = Path(trace_base)

    def __call__(self) -> Optional[float]:
        newest: Optional[float] = None
        for path in self.base.parent.glob(self.base.name + ".w*"):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if newest is None or mtime > newest:
                newest = mtime
        return newest


class ParallelFaultSim:
    """Fault-sharded multiprocessing fault simulator.

    Parameters
    ----------
    circuit / faults:
        Same contract as :class:`PackedFaultSimulator`; the fault order
        defines the global positions shards are expressed in.
    jobs:
        Worker processes; ``0`` resolves via ``REPRO_JOBS`` (see
        :func:`~repro.parallel.plan.resolve_jobs`).
    costs:
        Optional per-position cost estimates (e.g. from
        :func:`~repro.parallel.plan.costs_from_detection_times`); with
        them shards are LPT-packed, without them round-robin.
    min_parallel_faults:
        Universes below this size always run serially.
    timeout / max_retries / start_method:
        Forwarded to the :class:`ResilientPool` (hang detector seconds,
        pool attempts per shard, multiprocessing start method).
    sim_backend:
        ``None`` resolves the backend automatically; a concrete name
        pins it (the compaction oracle passes its session's pin).
    """

    def __init__(
        self,
        circuit: Circuit,
        faults: Sequence[Fault],
        jobs: int = 0,
        *,
        costs: Optional[Sequence[float]] = None,
        min_parallel_faults: int = DEFAULT_MIN_PARALLEL_FAULTS,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        start_method: Optional[str] = None,
        sim_backend: Optional[str] = None,
    ):
        self.circuit = circuit
        self.faults = list(faults)
        self.jobs = resolve_jobs(jobs)
        #: Concrete backend name pinned for this engine's lifetime —
        #: the serial fallback and every pool worker use the same one.
        self.sim_backend = resolve_concrete_backend(
            sim_backend, len(self.faults), circuit.num_gates)
        self.costs = list(costs) if costs is not None else None
        self.min_parallel_faults = min_parallel_faults
        self.timeout = timeout
        self.max_retries = max_retries
        self.start_method = start_method
        self._serial: Optional[SimBackend] = None
        #: The persistent worker pool (built on first parallel run) and
        #: the (trace base, trace id) it was initialized with — a
        #: telemetry change forces a rebuild so workers journal to the
        #: right place under the right trace.
        self._pool: Optional[ResilientPool] = None
        self._pool_trace_key: Optional[Tuple[Optional[str], Optional[str]]] \
            = None
        #: Highest worker-journal ``seq`` already merged, per source:
        #: persistent workers keep appending to the same journal files,
        #: so each merge must skip what earlier merges already emitted.
        self._merged_seq: Dict[str, int] = {}

    # -- mode selection ------------------------------------------------------

    def effective_jobs(self, num_vectors: int) -> int:
        """Workers a run over ``num_vectors`` cycles would actually use
        (1 = the serial path)."""
        if self.jobs <= 1 or num_vectors == 0:
            return 1
        if len(self.faults) < self.min_parallel_faults:
            return 1
        # Never create shards thinner than half the serial threshold.
        return min(self.jobs,
                   max(1, len(self.faults) * 2 // self.min_parallel_faults))

    def plan(self, jobs: Optional[int] = None) -> ShardPlan:
        """The shard plan a parallel run would use.

        The shard count is ``jobs``, raised when the
        ``REPRO_SHARD_MB`` per-worker plane-memory budget demands
        thinner shards (extra shards queue over the same workers; any
        plan merges bit-identically, so the bound is memory-only).
        """
        return plan_shards(len(self.faults),
                           self._shard_count(jobs or self.jobs), self.costs)

    def _shard_count(self, jobs: int) -> int:
        """``jobs``, raised so each shard's packed planes fit the
        ``REPRO_SHARD_MB`` budget (unset/0 = unbounded).

        Estimate: two planes (value/care) per net, one bit per fault
        machine — within a small constant of both the packed-bigint and
        vector backends at 10k-gate scale."""
        budget_mb = env_number(SHARD_MB_ENV)
        if budget_mb is None or budget_mb <= 0:
            return jobs
        budget = budget_mb * 1_000_000
        nets = len(self.circuit.nets())
        plane_bytes = 2 * nets * ((len(self.faults) + 1 + 7) // 8)
        return max(jobs, math.ceil(plane_bytes / budget))

    # -- the fault-sim API ------------------------------------------------------

    def run(
        self,
        vectors: Iterable[Sequence[int]],
        stop_when_all_detected: bool = False,
    ) -> FaultSimResult:
        """Simulate the sequence against every fault (serial-identical)."""
        vecs = tuple(
            tuple(vector_from_string(v)) if isinstance(v, str) else tuple(v)
            for v in vectors
        )
        jobs = self.effective_jobs(len(vecs))
        if jobs <= 1:
            obs.incr("parallel.serial_runs")
            if self._serial is None:
                self._serial = make_backend(
                    self.circuit, self.faults, self.sim_backend)
            return self._serial.run(
                list(vecs), stop_when_all_detected=stop_when_all_detected)
        return self._run_parallel(vecs, jobs, stop_when_all_detected)

    def detection_times(
        self, vectors: Iterable[Sequence[int]]
    ) -> Dict[Fault, int]:
        """First-detection cycle per fault over the full sequence."""
        return self.run(vectors).detection_time

    def detects_all(self, vectors: Iterable[Sequence[int]]) -> bool:
        """True when the sequence detects *every* fault."""
        result = self.run(vectors, stop_when_all_detected=True)
        return len(result.detection_time) == len(self.faults)

    # -- parallel execution ------------------------------------------------------

    def _pool_for(self, jobs: int, trace_base: Optional[str],
                  trace_id: Optional[str]) -> ResilientPool:
        """The persistent worker pool, (re)built when first needed or
        when the telemetry journal/trace the workers mirror has
        changed."""
        key = (trace_base, trace_id)
        if self._pool is not None and self._pool_trace_key != key:
            self._pool.close()
            self._pool = None
        if self._pool is None:
            context = WorkerContext(
                circuit=_strip_caches(self.circuit),
                faults=tuple(self.faults),
                sim_backend=self.sim_backend,
                trace_base=trace_base,
                trace_id=trace_id,
                heartbeat_interval=resolve_heartbeat_interval(),
            )
            self._pool = ResilientPool(
                simulate_shard,
                jobs,
                initializer=init_worker,
                initargs=(context,),
                timeout=self.timeout,
                max_retries=self.max_retries,
                start_method=self.start_method,
                split_fn=_split_task,
                serial_fn=_SerialFallback(context),
                label="parallel.pool",
                persistent=True,
                heartbeat_fn=(_WorkerPulse(trace_base)
                              if trace_base else None),
            )
            self._pool_trace_key = key
        return self._pool

    def close(self) -> None:
        """Shut down and join the persistent worker pool (idempotent).
        Owners of long-lived engines — the compaction oracle, flow code
        — must call this; otherwise worker processes survive until
        interpreter exit."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_trace_key = None

    def __enter__(self) -> "ParallelFaultSim":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _run_parallel(
        self,
        vecs: tuple,
        jobs: int,
        stop_when_all_detected: bool,
    ) -> FaultSimResult:
        plan = self.plan(jobs)
        telemetry = obs.active()
        trace_base = None
        trace_id = None
        if telemetry is not None and telemetry.journal is not None:
            trace_base = str(telemetry.journal.path)
            trace_id = telemetry.trace_id
        pool = self._pool_for(jobs, trace_base, trace_id)
        with obs.span("parallel.run"):
            # Tasks carry the open span's id so worker-side shard spans
            # parent under it across the process boundary.
            parent_span = (telemetry.spans.current_span_id
                           if telemetry is not None else "")
            tasks = [
                ShardTask(shard.index, shard.positions, vecs,
                          stop_when_all_detected, parent_span)
                for shard in plan.shards
            ]
            shard_results = pool.run(tasks)
        merged = merge_shard_results(self.faults, shard_results)

        obs.incr("parallel.runs")
        obs.incr("parallel.shards", len(plan.shards))
        obs.set_gauge("parallel.jobs", jobs)
        for shard in plan.shards:
            obs.observe("parallel.shard_size", len(shard.positions))
        for name, value in merge_counters(shard_results).items():
            obs.incr(f"parallel.worker.{name}", value)
        workers = sorted({s.pid for s in shard_results if s.pid})
        obs.event(
            "parallel.merge",
            shards=len(shard_results),
            planned=len(plan.shards),
            jobs=jobs,
            strategy=plan.strategy,
            workers=len(workers),
            detected=len(merged.detection_time),
        )
        # Per-run shard summary: last-run gauges (picked up by run
        # records / metrics-export) plus one journal event with the
        # spread, so load imbalance is visible without parsing worker
        # journals.
        elapsed = sorted(s.elapsed_seconds for s in shard_results)
        obs.set_gauge("parallel.last.workers", len(workers))
        obs.set_gauge("parallel.last.shards", len(shard_results))
        if elapsed:
            obs.set_gauge("parallel.last.shard_seconds_max",
                          round(elapsed[-1], 6))
            obs.set_gauge("parallel.last.shard_seconds_mean",
                          round(sum(elapsed) / len(elapsed), 6))
        obs.event(
            "parallel.summary",
            shards=len(shard_results),
            workers=len(workers),
            jobs=jobs,
            strategy=plan.strategy,
            shard_seconds_min=round(elapsed[0], 6) if elapsed else 0,
            shard_seconds_max=round(elapsed[-1], 6) if elapsed else 0,
            shard_seconds_total=round(sum(elapsed), 6),
            cycles=sum(s.counters.get("cycles", 0)
                       for s in shard_results),
            detected=len(merged.detection_time),
            faults=len(self.faults),
        )
        journals = sorted({
            s.journal_path for s in shard_results if s.journal_path
        })
        if journals and telemetry is not None and telemetry.journal is not None:
            for event in merge_journals(journals):
                if event["type"].startswith("journal."):
                    continue
                # Persistent workers append to the same journal file
                # across runs; skip anything an earlier merge of this
                # engine already relayed (per-source seq watermark).
                src, seq = event.get("src"), event.get("seq")
                if src is not None and seq is not None:
                    if seq <= self._merged_seq.get(src, -1):
                        continue
                    self._merged_seq[src] = seq
                telemetry.journal.emit(
                    "parallel.worker.event", src=src,
                    seq=seq, inner=event["type"],
                    **event.get("data", {}))
        return merged


class _SerialFallback:
    """In-process execution of one shard task (pool serial fallback).

    A class with ``__call__`` rather than a closure so the audit rule —
    no closures in task paths — holds even for the parent-side path.
    """

    def __init__(self, context: WorkerContext):
        self.context = context

    def __call__(self, task: ShardTask):
        return run_shard(self.context, task)


def _strip_caches(circuit: Circuit) -> Circuit:
    """The circuit as shipped to workers: the cached packed/levelized
    topologies are dropped from the pickle (workers recompile them
    once, cheaply) so the payload stays small — and the levelized one
    holds numpy arrays that must not cross into no-numpy workers."""
    cached = {
        attr: circuit.__dict__.pop(attr, None)
        for attr in ("_packed_topology", "_vector_topology")
    }
    try:
        shipped = copy.copy(circuit)
    finally:
        for attr, value in cached.items():
            if value is not None:
                setattr(circuit, attr, value)
    return shipped
