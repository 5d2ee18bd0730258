"""Pluggable fault-simulation backends: the ``SimBackend`` protocol and
the ``make_backend`` factory.

Two standard backends implement the protocol, bit-identically:

* ``"packed"`` — :class:`~repro.sim.fault_sim.PackedFaultSimulator`,
  the pure-Python packed-integer reference oracle.  Always available.
* ``"vector"`` — :class:`~repro.sim.kernel.VectorFaultSimulator`, the
  levelized uint64-plane kernel (compiled C step interpreter with a
  numpy fallback).  Needs numpy; the ≥10x speedup needs a C compiler
  (found automatically, cached per machine).

``"auto"`` — the default everywhere — picks ``vector`` only when it
would actually win: numpy importable, the C engine available, and the
fault list big enough that kernel setup amortizes.  Every other case
falls back to ``packed``.  Because the backends are bit-identical,
``auto`` is a pure performance knob: it can never change result bits.

Selection precedence mirrors the ``jobs``/``REPRO_JOBS`` convention:
an explicit name (``FlowConfig(sim_backend=...)``, ``--sim-backend``)
wins, then the ``REPRO_SIM_BACKEND`` environment variable, then
``auto``.

Flow code used to construct ``PackedFaultSimulator`` directly; those
paths now route through :func:`make_backend`.  Passing
``simulator_factory=PackedFaultSimulator`` explicitly still works but
is deprecated (one :class:`DeprecationWarning` per process, mirroring
the PR-2 ``coerce_flow_config`` shim); custom API-compatible factories
(e.g. ``PackedTransitionSimulator``, test doubles) pass through
untouched and unwarned.
"""

from __future__ import annotations

import importlib.util
import os
import warnings
from time import perf_counter
from typing import (
    Dict, Iterable, List, Optional, Protocol, Sequence, Tuple,
    runtime_checkable,
)

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..obs import context as obs
from .fault_sim import FaultSimResult, PackedFaultSimulator

#: Resolve to packed/vector by availability and fault count.
BACKEND_AUTO = "auto"
#: The pure-Python packed-integer reference simulator.
BACKEND_PACKED = "packed"
#: The levelized uint64-plane kernel (:mod:`repro.sim.kernel`).
BACKEND_VECTOR = "vector"

#: The concrete (selectable) backends, in preference order.
BACKEND_NAMES = (BACKEND_PACKED, BACKEND_VECTOR)

#: Environment override consulted when no explicit name is given.
BACKEND_ENV = "REPRO_SIM_BACKEND"

#: ``auto`` keeps fault lists smaller than this on the packed backend
#: unless the circuit is big enough (below).  Measured on a 16-gate
#: scan circuit (Intel Xeon vCPU, Python 3.11, C engine), simulator
#: build plus 32 stepped cycles: packed and vector tie at 1-4 fault
#: machines, vector wins from 8 (1.5-2x at 16-32).
AUTO_MIN_FAULTS = 16

#: ...or the circuit has at least this many gates.  Then even a single
#: fault machine steps faster on the kernel, whose levelized program is
#: fingerprint-cached on the circuit object, so every mini sim after
#: the first reuses it.  Measured per beam-search candidate (restore,
#: step, ``ff_effect_masks``, ``good_net_value``, save, with the build
#: amortized over 160 candidates) on the same host: packed and vector
#: tie at 16-20 gates; vector costs 11 against 13 us at 22 gates (s27
#: scan), 13 against 31 us at 53 and 18 against 67 us at 123 (s386);
#: packed wins below 16 gates (7 against 10 us at 6 gates).
AUTO_MIN_GATES = 20


@runtime_checkable
class SimBackend(Protocol):
    """What every fault-simulation backend must provide.

    The contract is exactly the surface :class:`SimSession`, the
    compaction oracle and the parallel workers consume; the protocol is
    ``runtime_checkable`` so tests can assert conformance structurally.
    Implementations also expose ``faults`` / ``num_machines`` /
    ``full_mask`` / ``fault_mask`` / ``time`` attributes and the
    ``backend_name`` class attribute naming them.
    """

    def reset(self) -> None: ...

    def step(self, vector: Sequence[int]) -> int: ...

    def run(self, vectors: Iterable[Sequence[int]],
            stop_when_all_detected: bool = False,
            reset: bool = True) -> FaultSimResult: ...

    def save_state(self): ...

    def restore_state(self, token) -> None: ...

    def detects_all(self, vectors: Sequence[Sequence[int]]) -> bool: ...

    def detecting_outputs(self, mask: int) -> List[str]: ...

    def faults_from_mask(self, mask: int) -> List[Fault]: ...


def numpy_available() -> bool:
    """True when numpy is importable — checked via ``find_spec`` so the
    packed-only path never pays (or risks) the actual import."""
    return importlib.util.find_spec("numpy") is not None


def vector_available() -> bool:
    """True when the vector backend would actually be *worth* using:
    numpy importable and the compiled C step engine loadable.  (The
    numpy fallback engine exists for portability and parity testing,
    but on one-core boxes it loses to packed, so ``auto`` ignores it.)"""
    if not numpy_available():
        return False
    from .kernel import load_kernel_library

    return load_kernel_library() is not None


def resolve_backend_name(name: Optional[str] = None) -> str:
    """Apply the ``explicit -> $REPRO_SIM_BACKEND -> auto`` rule and
    validate the result (``auto`` or a concrete backend name)."""
    if name is None:
        name = os.environ.get(BACKEND_ENV, "").strip() or BACKEND_AUTO
    if name != BACKEND_AUTO and name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown sim backend {name!r}: expected one of "
            f"{(BACKEND_AUTO,) + BACKEND_NAMES}")
    return name


def resolve_concrete_backend(name: Optional[str], num_faults: int,
                             num_gates: int = 0) -> str:
    """The concrete backend ``make_backend`` would build: resolves
    ``auto`` by availability, fault count and circuit size.  Callers
    that must pin a choice for a simulator's lifetime (e.g.
    :class:`SimSession`, whose repacks must keep one state-token
    format) resolve once through here and reuse the answer."""
    name = resolve_backend_name(name)
    if name != BACKEND_AUTO:
        return name
    worthwhile = num_faults >= AUTO_MIN_FAULTS or num_gates >= AUTO_MIN_GATES
    if worthwhile and vector_available():
        return BACKEND_VECTOR
    return BACKEND_PACKED


def backend_class(name: str):
    """The simulator class registered under a concrete backend name
    (the class itself is the ``factory(circuit, faults)``)."""
    if name == BACKEND_PACKED:
        return PackedFaultSimulator
    if name == BACKEND_VECTOR:
        from .kernel import VectorFaultSimulator

        return VectorFaultSimulator
    raise ValueError(f"not a concrete sim backend: {name!r}")


def make_backend(circuit: Circuit, faults: Sequence[Fault],
                 name: Optional[str] = None) -> SimBackend:
    """Build a fault simulator for ``circuit`` × ``faults``.

    ``name`` is ``"auto"`` (default), ``"packed"``, ``"vector"``, or
    ``None`` (defer to ``REPRO_SIM_BACKEND``, then ``auto``).  An
    explicit ``"vector"`` without numpy raises :class:`RuntimeError`
    rather than silently degrading.  Emits one ``faultsim.backend``
    event (journal) and counter/gauges (metrics registry) per build so
    ``repro-atpg profile``/``watch`` show which kernel served a run.
    """
    concrete = resolve_concrete_backend(name, len(faults),
                                        circuit.num_gates)
    if concrete == BACKEND_VECTOR and not numpy_available():
        raise RuntimeError(
            "sim_backend='vector' requires numpy (not importable here); "
            "use 'packed' or 'auto'")
    start = perf_counter()
    sim = backend_class(concrete)(circuit, faults)
    compile_seconds = perf_counter() - start
    plane_bytes = getattr(sim, "plane_bytes", 0)
    obs.incr(f"faultsim.backend.{concrete}")
    obs.set_gauge("faultsim.backend.compile_seconds", compile_seconds)
    obs.set_gauge("faultsim.backend.plane_bytes", plane_bytes)
    obs.event("faultsim.backend", backend=concrete,
              engine=getattr(sim, "engine", "python"),
              faults=len(faults),
              compile_seconds=round(compile_seconds, 6),
              plane_bytes=plane_bytes)
    return sim


_WARNED_FACTORY: set = set()


def coerce_simulator_factory(factory, name: Optional[str], owner: str):
    """Resolve an ``(simulator_factory, sim_backend)`` argument pair to
    ``(custom_factory_or_None, backend_name)``.

    * ``factory is None`` — the modern path: backend selection by name.
    * ``factory is PackedFaultSimulator`` — the legacy explicit spelling;
      honored as ``sim_backend="packed"`` after one
      :class:`DeprecationWarning` per ``owner`` per process.
    * anything else — a custom API-compatible factory (transition
      simulator, test double); passed through untouched, and combining
      it with an explicit backend name is a :class:`TypeError`.
    """
    if factory is None:
        return None, name
    if factory is PackedFaultSimulator:
        if owner not in _WARNED_FACTORY:
            _WARNED_FACTORY.add(owner)
            warnings.warn(
                f"passing simulator_factory=PackedFaultSimulator to "
                f"{owner} is deprecated; pass sim_backend='packed' "
                f"(or let the default 'auto' pick a backend)",
                DeprecationWarning,
                stacklevel=3,
            )
        if name is not None and resolve_backend_name(name) not in (
                BACKEND_AUTO, BACKEND_PACKED):
            raise TypeError(
                f"{owner}: simulator_factory=PackedFaultSimulator "
                f"conflicts with sim_backend={name!r}")
        return None, BACKEND_PACKED
    if name is not None:
        raise TypeError(
            f"{owner}: cannot combine a custom simulator_factory with "
            f"sim_backend={name!r}")
    return factory, None
