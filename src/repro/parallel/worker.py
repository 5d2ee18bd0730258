"""Worker-process side of the parallel engine.

Everything here is **module-level on purpose**: ``ProcessPoolExecutor``
ships the initializer and task callables to workers by pickling them by
qualified name, so closures and lambdas cannot cross the process
boundary (satellite audit: the task paths in ``sim/fault_sim.py`` and
``experiments/runner.py`` were checked and hold only module-level
callables).  The same restriction applies to payloads — they are plain
dataclasses of circuits, fault lists and tuples.

Lifecycle: the pool initializer (:func:`init_worker`) receives one
:class:`WorkerContext` carrying the circuit, the full fault universe
and the vector sequence; each task (:func:`simulate_shard`) then names
only fault *positions*, builds a fresh
:class:`~repro.sim.session.SimSession` over its shard — each worker
owns its own session, never a shared one — and returns a plain-data
:class:`ShardResult` for the deterministic merge layer.

Per-worker telemetry: when the parent session streams a journal, each
worker process opens its own journal at
``worker_journal_path(base, pid)`` (see :mod:`repro.obs.journal` for
the ``<base>.w<pid>`` convention) and the parent merges them with
``merge_journals`` after the pool drains.  The worker journal carries
the parent run's ``trace_id``, and shard spans name the parent span
they execute under — so the merged stream is one cross-process trace.

Heartbeats: a tracing worker also starts a daemon thread that emits a
``parallel.worker.heartbeat`` event every ``heartbeat_interval``
seconds — shard id, vectors done/total, faults, detections, cycles and
RSS — sampled from a module-level progress cell the simulation loop
updates via ``SimSession.progress_hook``.  Live tailers read these for
per-shard progress, and the parent pool's hang detector reads the
worker journals' mtimes as a liveness signal (a worker that heartbeats
is slow, not hung).
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import util as mp_util
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..circuit.netlist import Circuit
from ..envvars import env_number
from ..faults.model import Fault
from ..obs import context as obs
from ..obs.journal import RunJournal, worker_journal_path
from ..sim.session import SimSession

#: Environment hook for the crash-injection tests: when set to a path,
#: the first shard simulated after the marker file could be created
#: kills its worker process hard (``os._exit``), exactly once across
#: the pool — exercising the requeue/resplit recovery path end to end.
CRASH_ONCE_ENV = "REPRO_PARALLEL_CRASH_ONCE"

#: Seconds between worker heartbeats; 0 (or negative) disables them.
HEARTBEAT_ENV = "REPRO_HEARTBEAT_INTERVAL"

DEFAULT_HEARTBEAT_INTERVAL = 1.0


def resolve_heartbeat_interval(
        default: float = DEFAULT_HEARTBEAT_INTERVAL) -> float:
    """Heartbeat period from :data:`HEARTBEAT_ENV`, else ``default``;
    values <= 0 disable heartbeats."""
    interval = env_number(HEARTBEAT_ENV)
    return default if interval is None else interval


@dataclass(frozen=True)
class WorkerContext:
    """Initializer payload shared by every task a worker runs.

    Only the *query-invariant* state lives here — the circuit and the
    fault universe.  The vector sequence travels with each
    :class:`ShardTask` instead, so one persistently initialized pool
    can serve many different queries (the engine reuses its pool across
    ``detection_times`` calls and only pays circuit pickling once).
    """

    circuit: Circuit
    faults: Tuple[Fault, ...]
    #: Concrete simulation backend name the engine pinned (``None`` =
    #: let each worker's session resolve ``auto`` itself).  Passing the
    #: parent's choice keeps the whole pool on one backend; results are
    #: bit-identical either way.
    sim_backend: Optional[str] = None
    #: Parent journal path (or None); workers derive their own journal
    #: path from it per the ``<base>.w<pid>`` convention.
    trace_base: Optional[str] = None
    #: The parent run's trace id; recorded in each worker journal's
    #: ``journal.open`` so merged journals share one trace.
    trace_id: Optional[str] = None
    #: Seconds between ``parallel.worker.heartbeat`` events (<= 0 off).
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL


@dataclass(frozen=True)
class ShardTask:
    """One unit of work: which positions to simulate, against which
    sequence, and how."""

    shard_index: int
    positions: Tuple[int, ...]
    vectors: Tuple[Tuple[int, ...], ...] = ()
    stop_when_all_detected: bool = False
    #: span_id of the parent-process span this shard executes under
    #: ("" outside a traced run) — the cross-process parent link.
    parent_span: str = ""


@dataclass
class ShardResult:
    """Plain-data outcome of one shard simulation (merge-layer input)."""

    shard_index: int
    positions: Tuple[int, ...]
    #: position -> first-detection cycle (global positions).
    times: Dict[int, int] = field(default_factory=dict)
    num_vectors: int = 0
    #: SimSession lifetime counters (runs/cycles/...), for telemetry.
    counters: Dict[str, int] = field(default_factory=dict)
    pid: int = 0
    elapsed_seconds: float = 0.0
    journal_path: Optional[str] = None


class _ShardProgress:
    """Mutable progress cell the simulation loop updates and the
    heartbeat thread samples.  Torn reads are harmless (all fields are
    independently meaningful ints/bools), so no lock."""

    __slots__ = ("shard", "faults_total", "vectors_total", "vectors_done",
                 "detected", "cycles", "busy")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.shard = -1
        self.faults_total = 0
        self.vectors_total = 0
        self.vectors_done = 0
        self.detected = 0
        self.cycles = 0
        self.busy = False

    def begin(self, shard: int, faults: int, vectors: int) -> None:
        self.reset()
        self.shard = shard
        self.faults_total = faults
        self.vectors_total = vectors
        self.busy = True

    def update(self, vectors_done: int, vectors_total: int,
               detected: int) -> None:
        self.vectors_done = vectors_done
        self.vectors_total = vectors_total
        self.detected = detected
        self.cycles += 1

    def finish(self) -> None:
        self.busy = False


def _rss_kb() -> int:
    """Resident set size of this process in KiB (0 when unknowable)."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except Exception:
        return 0


def _heartbeat_payload(progress: "_ShardProgress") -> Dict:
    return dict(
        pid=os.getpid(), shard=progress.shard, busy=progress.busy,
        vectors=progress.vectors_done, vectors_total=progress.vectors_total,
        detected=progress.detected, faults=progress.faults_total,
        cycles=progress.cycles, rss_kb=_rss_kb(),
    )


def _heartbeat_loop(journal: RunJournal, interval: float) -> None:
    """Daemon-thread body: periodic heartbeats until the journal closes.
    Emits even while idle — an idle heartbeat is still a liveness proof
    for the parent's hang detector and keeps tailers' freshness ages
    honest."""
    while not journal.closed:
        time.sleep(interval)
        if journal.closed:
            break
        journal.emit("parallel.worker.heartbeat",
                     **_heartbeat_payload(_PROGRESS))


_CONTEXT: Optional[WorkerContext] = None
_JOURNAL: Optional[RunJournal] = None
_PROGRESS = _ShardProgress()
_HEARTBEAT: Optional[threading.Thread] = None


def init_worker(context: WorkerContext) -> None:
    """Pool initializer: stash the shared context; open the per-process
    journal (tagged with the parent's trace id) and start the heartbeat
    thread when the parent is tracing."""
    global _CONTEXT, _JOURNAL, _HEARTBEAT
    # Under the fork start method the child inherits the parent's active
    # telemetry session — including its open journal file handle.  Any
    # worker-side obs hook writing through it would interleave foreign
    # seq numbers into the parent's journal, so drop it first: workers
    # report only via their own journal / the plain ShardResult.
    obs.deactivate(None)
    _CONTEXT = context
    if context.trace_base and _JOURNAL is None:
        _JOURNAL = RunJournal(
            worker_journal_path(context.trace_base, os.getpid()),
            trace_id=context.trace_id)
        _JOURNAL.emit("parallel.worker.start", pid=os.getpid())
        # NOT atexit: fork-started children exit via os._exit, which
        # skips atexit handlers — multiprocessing finalizers are the
        # one hook Process._bootstrap runs on the way out (and the
        # parent's own atexit runs them for the in-process fallback).
        mp_util.Finalize(None, _JOURNAL.close, exitpriority=0)
        if context.heartbeat_interval > 0 and _HEARTBEAT is None:
            _HEARTBEAT = threading.Thread(
                target=_heartbeat_loop,
                args=(_JOURNAL, context.heartbeat_interval),
                name="repro-heartbeat", daemon=True)
            _HEARTBEAT.start()


def _maybe_crash_for_tests() -> None:
    """Die hard exactly once per marker path (test hook, dormant unless
    the env var is set; see :data:`CRASH_ONCE_ENV`)."""
    marker = os.environ.get(CRASH_ONCE_ENV)
    if not marker:
        return
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(fd)
    os._exit(17)


def simulate_shard(task: ShardTask) -> ShardResult:
    """Simulate the shard against the context's vectors (pool task)."""
    if _CONTEXT is None:
        raise RuntimeError("worker not initialized (init_worker not run)")
    _maybe_crash_for_tests()
    return run_shard(_CONTEXT, task, journal=_JOURNAL)


def run_shard(
    context: WorkerContext,
    task: ShardTask,
    journal: Optional[RunJournal] = None,
) -> ShardResult:
    """The actual shard simulation; also the pool's in-process serial
    fallback (no module state needed)."""
    start = perf_counter()
    faults = [context.faults[p] for p in task.positions]
    session = SimSession(context.circuit, faults,
                         sim_backend=context.sim_backend)
    span_id = ""
    span_path = f"shard.{task.shard_index}"
    if journal is not None:
        from ..obs.trace import new_span_id
        span_id = new_span_id()
        journal.emit("span.open", path=span_path, depth=0,
                     span=span_id, parent=task.parent_span)
        _PROGRESS.begin(task.shard_index, len(faults), len(task.vectors))
        # One immediate heartbeat so tailers see the shard the moment it
        # starts, however long the periodic interval is.
        journal.emit("parallel.worker.heartbeat",
                     **_heartbeat_payload(_PROGRESS))
        session.progress_hook = _PROGRESS.update
    try:
        sim_result = session.run(
            list(task.vectors),
            stop_when_all_detected=task.stop_when_all_detected,
        )
    finally:
        _PROGRESS.finish()
    counters = session.close()
    by_fault = {f: p for f, p in zip(faults, task.positions)}
    result = ShardResult(
        shard_index=task.shard_index,
        positions=task.positions,
        times={by_fault[f]: t for f, t in sim_result.detection_time.items()},
        num_vectors=sim_result.num_vectors,
        counters=counters,
        pid=os.getpid(),
        elapsed_seconds=perf_counter() - start,
        journal_path=str(journal.path) if journal is not None else None,
    )
    payload = dict(
        shard=task.shard_index, faults=len(faults),
        detected=len(result.times), cycles=counters.get("cycles", 0),
        elapsed=round(result.elapsed_seconds, 6), pid=result.pid,
    )
    if journal is not None:
        journal.emit("parallel.shard", **payload)
        journal.emit("span.close", path=span_path,
                     duration=round(result.elapsed_seconds, 6),
                     span=span_id, parent=task.parent_span)
    else:
        obs.event("parallel.shard", **payload)
    return result
