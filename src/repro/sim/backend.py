"""Fault-simulation backends: the ``SimBackend`` protocol and the
``make_backend`` factory.

Two standard backends implement the protocol, bit-identically:

* ``"packed"`` — :class:`~repro.sim.fault_sim.PackedFaultSimulator`,
  the pure-Python packed-integer reference oracle.  Always available.
* ``"vector"`` — :class:`~repro.sim.kernel.VectorFaultSimulator`, the
  levelized uint64-plane kernel run by a compiled C step interpreter.
  Needs numpy and a C compiler (found automatically, the library is
  cached per machine).

The choice is the code's, not the user's: :func:`resolve_concrete_backend`
picks ``vector`` only when it is available here and would actually win
(fault list or circuit big enough that kernel setup amortizes), else
``packed``.  Because the backends are bit-identical, the choice never
changes result bits.  A concrete name is only ever passed around as an
internal pin — :class:`~repro.sim.session.SimSession` repacks and the
parallel engine's shard workers reuse their owner's resolved backend so
state tokens keep one format.  ``simulator_factory=`` on the flow
classes is the one override, for API-compatible simulators of another
fault model (``PackedTransitionSimulator``) or test doubles.
"""

from __future__ import annotations

import importlib.util
from time import perf_counter
from typing import (
    Iterable, List, Optional, Protocol, Sequence, runtime_checkable,
)

from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..obs import context as obs
from .fault_sim import FaultSimResult, PackedFaultSimulator

#: Resolve to packed/vector by availability, fault count and size.
BACKEND_AUTO = "auto"
#: The pure-Python packed-integer reference simulator.
BACKEND_PACKED = "packed"
#: The levelized uint64-plane kernel (:mod:`repro.sim.kernel`).
BACKEND_VECTOR = "vector"

#: The concrete backends.
BACKEND_NAMES = (BACKEND_PACKED, BACKEND_VECTOR)

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
    """True when the vector backend can run here: numpy importable and
    the compiled C step library loadable."""
    if not numpy_available():
        return False
    from .kernel import load_kernel_library

    return load_kernel_library() is not None


def resolve_concrete_backend(name: Optional[str], num_faults: int,
                             num_gates: int = 0) -> str:
    """The concrete backend ``make_backend`` would build.

    ``None``/``"auto"`` means: observe — the vector kernel when it is
    available and the fault list or circuit is big enough for it to
    win, else packed.  A concrete name is returned as is (it is the
    internal pin of a :class:`SimSession` or parallel engine, whose
    repacks and workers must keep one state-token format)."""
    if name in BACKEND_NAMES:
        return name
    if name not in (None, BACKEND_AUTO):
        raise ValueError(
            f"unknown sim backend {name!r}: expected one of "
            f"{(BACKEND_AUTO,) + BACKEND_NAMES}")
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

    ``name`` is ``None``/``"auto"`` (default: see
    :func:`resolve_concrete_backend`) or a pinned concrete name.  A
    pinned ``"vector"`` without numpy raises :class:`RuntimeError`
    rather than silently degrading.  Emits one ``faultsim.backend``
    event (journal) and counter/gauges (metrics registry) per build so
    ``repro-atpg profile``/``watch`` show which kernel served a run.
    """
    concrete = resolve_concrete_backend(name, len(faults),
                                        circuit.num_gates)
    if concrete == BACKEND_VECTOR and not numpy_available():
        raise RuntimeError(
            "the vector backend requires numpy (not importable here); "
            "use 'packed' or 'auto'")
    start = perf_counter()
    sim = backend_class(concrete)(circuit, faults)
    compile_seconds = perf_counter() - start
    plane_bytes = getattr(sim, "plane_bytes", 0)
    obs.incr(f"faultsim.backend.{concrete}")
    obs.set_gauge("faultsim.backend.compile_seconds", compile_seconds)
    obs.set_gauge("faultsim.backend.plane_bytes", plane_bytes)
    obs.event("faultsim.backend", backend=concrete,
              faults=len(faults),
              compile_seconds=round(compile_seconds, 6),
              plane_bytes=plane_bytes)
    return sim

