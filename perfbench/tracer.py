"""In-memory spans around the package's public entry points.

The benchmark measures layers from outside: :func:`install` replaces
public functions and methods of ``repro`` with timing wrappers for the
traced pass only and :func:`uninstall` puts the originals back, so the
untraced passes run the unmodified program.

Each span is a list ``[name, run_id, parent, start, end, child_seconds,
note]`` where ``parent`` is the enclosing span on the same thread.
``child_seconds`` accumulates the durations of the span's direct
children, so a span's self time is its duration minus the time its
children cover.  The per-cycle simulator calls are far too many to keep
one record each (hundreds of thousands per pass); they are *leaf*
spans, folded into per-name totals (calls, seconds, simulated cycles,
fault machines x cycles) while still being charged to their parent's
``child_seconds``.

Spans opened in forked worker processes stay in those processes; the
parent sees the call that fanned out (for example
``ParallelFaultSim.run``) as one span.  Recording takes no lock (a
``list.append`` is atomic), so a fork can never inherit a held one.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, RUN, PARENT, START, END, CHILD, NOTE = range(7)


class Tracer:
    """Span store shared by every wrapper of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: leaf name -> [calls, seconds, cycles, machine_cycles]
        self.leaves: Dict[str, List[float]] = defaultdict(
            lambda: [0, 0.0, 0, 0])
        #: Shared by the spans of one flow or one serve pass.
        self.run_id: Optional[str] = None
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs,
             note: Optional[Callable] = None):
        stack = self._stack()
        record = [name, self.run_id, stack[-1] if stack else None,
                  0.0, 0.0, 0.0, None]
        self.spans.append(record)
        stack.append(record)
        record[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            if record[PARENT] is not None:
                record[PARENT][CHILD] += record[END] - record[START]
        if note is not None:
            record[NOTE] = note(result)
        return result

    def leaf(self, name: str, fn: Callable, args, kwargs, cycles: int,
             machines: int):
        if getattr(self._local, "in_leaf", False):
            return fn(*args, **kwargs)
        self._local.in_leaf = True
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._local.in_leaf = False
            totals = self.leaves[name]
            totals[0] += 1
            totals[1] += elapsed
            totals[2] += cycles
            totals[3] += cycles * machines
            stack = self._stack()
            if stack:
                stack[-1][CHILD] += elapsed

    # -- summaries -----------------------------------------------------------

    def named(self, name: str) -> List[list]:
        return [s for s in self.spans if s[NAME] == name]

    def self_seconds(self, name: str) -> float:
        spans = sum(s[END] - s[START] - s[CHILD] for s in self.named(name))
        return spans + (self.leaves[name][1] if name in self.leaves else 0.0)

    def total_seconds(self, name: str) -> float:
        """Wall time inside ``name`` spans, counting nested ones once."""
        return sum(s[END] - s[START] for s in self.outermost(name))

    def outermost(self, name: str) -> List[list]:
        """``name`` spans not nested in another ``name`` span."""
        return [s for s in self.named(name)
                if s[PARENT] is None or s[PARENT][NAME] != name]

    def write(self, path) -> None:
        """Write every span (parents as indices) and every leaf total as
        one JSON document."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s[START] for s in self.spans), default=0.0)
        doc = {
            "fields": ["name", "run", "parent", "start_s", "end_s",
                       "child_s", "note"],
            "spans": [[s[NAME], s[RUN],
                       None if s[PARENT] is None else index[id(s[PARENT])],
                       round(s[START] - t0, 7), round(s[END] - t0, 7),
                       round(s[CHILD], 7), s[NOTE]]
                      for s in self.spans],
            "leaves": {name: dict(zip(("calls", "seconds", "cycles",
                                       "machine_cycles"), totals))
                       for name, totals in self.leaves.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def _span(tracer: Tracer, name: str, fn: Callable,
          note: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note)
    return wrapper


def _step(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        return tracer.leaf(name, fn, (self,) + args, kwargs, 1,
                           len(self.faults))
    return wrapper


def _run(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, vectors, *args, **kwargs):
        vectors = list(vectors)
        return tracer.leaf(name, fn, (self, vectors) + args, kwargs,
                           len(vectors), len(self.faults))
    return wrapper


def _counter(name: str) -> int:
    from repro import obs

    telemetry = obs.active()
    return telemetry.metrics.counter(name).value if telemetry else 0


def _with_session_cycles(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A span noting how many session cycles were simulated inside it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = _counter("faultsim.session.cycles")
        return tracer.call(name, fn, args, kwargs, lambda _result: {
            "session_cycles": _counter("faultsim.session.cycles") - before})
    return wrapper


def _untestable_note(result):
    from repro.atpg.podem import UNTESTABLE

    return {"untestable": result.status == UNTESTABLE}


def _hit_note(result):
    return {"hit": result is not None}


def _shard_note(_result):
    """Shard timing gauges the engine sets after each fan-out."""
    from repro import obs

    telemetry = obs.active()
    if telemetry is None:
        return None
    gauges = telemetry.metrics.snapshot()["gauges"]
    return {"shard_max_s": gauges.get("parallel.last.shard_seconds_max", 0.0),
            "shard_mean_s": gauges.get("parallel.last.shard_seconds_mean",
                                       0.0)}


class _Patch:
    def __init__(self, owner, attr: str, original):
        self.owner, self.attr, self.original = owner, attr, original


def install(tracer: Tracer) -> List[_Patch]:
    """Wrap the public entry points of every layer; returns the patches
    for :func:`uninstall`."""
    from repro.atpg.podem import Podem
    from repro.atpg.scan_seq import SecondApproachATPG
    from repro.atpg.seq_atpg import SequentialATPG
    from repro.cache.store import LayeredResultStore, ResultStore
    from repro.circuit.scan import insert_scan
    from repro.compaction.base import CompactionOracle
    from repro.compaction.omission import omission_compact
    from repro.compaction.restoration import restoration_compact
    from repro.core.scan_aware import ScanAwareATPG
    from repro.core.translate import translate_test_set
    from repro.faults.collapse import collapse_faults
    from repro.parallel.engine import ParallelFaultSim
    from repro.serve.app import ReproServer
    from repro.sim.fault_sim import PackedFaultSimulator
    from repro.sim.kernel import VectorFaultSimulator
    from repro.sim.session import SimSession

    patches: List[_Patch] = []
    span = functools.partial(_span, tracer)

    def method(cls, attr, name, note=None):
        original = cls.__dict__[attr]
        patches.append(_Patch(cls, attr, original))
        setattr(cls, attr, span(name, original, note))

    method(Podem, "run", "atpg.podem", _untestable_note)
    method(SequentialATPG, "generate", "atpg.seq")
    method(SecondApproachATPG, "generate", "atpg.baseline")
    method(ScanAwareATPG, "generate", "core.scan_aware")
    for attr in ("detection_times", "detected_mask"):
        method(CompactionOracle, attr, "compaction.oracle")
        method(SimSession, attr, "sim.session")
    method(SimSession, "run", "sim.session")
    for attr in ("run", "detection_times"):
        method(ParallelFaultSim, attr, "parallel.run", _shard_note)
    method(ResultStore, "get", "cache.get", _hit_note)
    method(LayeredResultStore, "get", "cache.get", _hit_note)
    method(ResultStore, "put", "cache.put")
    method(ReproServer, "submit", "serve.admit")
    for cls, name in ((PackedFaultSimulator, "sim.packed"),
                      (VectorFaultSimulator, "sim.vector")):
        for attr, wrap in (("step", _step), ("run", _run)):
            original = cls.__dict__[attr]
            patches.append(_Patch(cls, attr, original))
            setattr(cls, attr, wrap(tracer, name, original))

    # Module-level functions are bound by name into their importers
    # (``from ..faults.collapse import collapse_faults``): rebind every
    # ``repro`` module attribute that is the original function object.
    wrappers = {
        id(insert_scan): (insert_scan, span("circuit.insert_scan",
                                            insert_scan)),
        id(collapse_faults): (collapse_faults, span("faults.collapse",
                                                    collapse_faults)),
        id(translate_test_set): (translate_test_set, span(
            "core.translate", translate_test_set)),
        id(restoration_compact): (restoration_compact, _with_session_cycles(
            tracer, "compaction.restoration", restoration_compact)),
        id(omission_compact): (omission_compact, _with_session_cycles(
            tracer, "compaction.omission", omission_compact)),
    }
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                patches.append(_Patch(module, attr, value))
                setattr(module, attr, entry[1])
    return patches


def uninstall(patches: List[_Patch]) -> None:
    for patch in reversed(patches):
        setattr(patch.owner, patch.attr, patch.original)
