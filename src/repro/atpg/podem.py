"""PODEM combinational ATPG (Goel [1], with SOCRATES-style backtrace
heuristics kept deliberately simple).

PODEM searches the primary-input space only: it repeatedly derives an
*objective* (a net value needed to activate the fault or advance the
D-frontier), *backtraces* the objective to an unassigned primary input,
assigns it, and forward-implies by simulating the good and faulty
machines.  Conflicts are undone chronologically by flipping the most
recent unflipped decision.

The engine runs on combinational circuits — in this package that is the
:mod:`~repro.atpg.comb_view` of a sequential circuit, whose pseudo
primary inputs/outputs give the classic full-scan ATPG formulation, or a
time-frame expansion (:mod:`~repro.atpg.timeframe`), where the same
physical fault appears at one site *per frame*.  Two generalizations
serve the latter:

* **multi-site injection** (:meth:`Podem.run_multi`) — a list of fault
  sites is forced simultaneously in the faulty machine (a permanent
  fault replicated across frames is still *one* fault);
* **frozen inputs** — inputs the search must leave at X (the unknown
  frame-0 state of a non-scan circuit).

Faults are the :class:`~repro.faults.model.Fault` objects of this
package: stem faults on any net, branch faults on gate input pins or
primary-output pins.

A complete run returns one of three verdicts:

* ``detected`` — a cube (partial PI assignment) plus the outputs where
  the fault effect appears,
* ``untestable`` — the whole decision tree was exhausted: the fault is
  provably redundant (under the engine's X-semantics and frozen inputs),
* ``aborted`` — the backtrack limit was hit first.

Implication is event-driven and restricted to the fault cone: each
:class:`Podem` compiles its circuit once into integer-indexed tables,
and after every assign, flip or backtrack only the gates downstream of
the changed inputs are re-evaluated, level by level, stopping where
neither machine's value changed.  The faulty machine is simulated only
inside the transitive fanout of the fault sites (elsewhere it equals
the good one), which is also the only place the D-frontier and
detection are looked for.  The search is exactly that of a full
re-simulation after every decision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..circuit.gates import CONTROLLING_VALUE, INVERTING, ONE, X, ZERO, invert
from ..circuit.netlist import Circuit
from ..faults.model import BRANCH, STEM, Fault
from ..obs import context as obs
from ..obs import ledger

DETECTED = "detected"
UNTESTABLE = "untestable"
ABORTED = "aborted"


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    status: str
    fault: Fault
    assignment: Dict[str, int] = field(default_factory=dict)
    detecting_outputs: List[str] = field(default_factory=list)
    backtracks: int = 0

    @property
    def found(self) -> bool:
        return self.status == DETECTED


#: Gate kind codes of the compiled tables.  The AND/NAND/OR/NOR codes
#: come first so that ``code >> 1`` is their controlling value, and the
#: inverting member of each pair (NAND, NOR, XNOR) has ``code & 1`` set.
_AND, _NAND, _OR, _NOR, _XOR, _XNOR, _NOT, _BUF, _MUX = range(9)
_KIND_CODE = {"AND": _AND, "NAND": _NAND, "OR": _OR, "NOR": _NOR,
              "XOR": _XOR, "XNOR": _XNOR, "NOT": _NOT, "BUF": _BUF,
              "MUX": _MUX}
#: Shared empty ``{pin: stuck}`` map of gates without branch faults.
_NO_FORCE: Dict[int, int] = {}
_INVERTING_CODES = frozenset(
    code for kind, code in _KIND_CODE.items() if INVERTING[kind])
#: D-frontier objective per kind code: the non-controlling value of the
#: first X input (0 for gates without a controlling value).
_PROPAGATE_VALUE = tuple(
    ZERO if CONTROLLING_VALUE[kind] is None else invert(CONTROLLING_VALUE[kind])
    for kind in sorted(_KIND_CODE, key=_KIND_CODE.get))


def _evaluate(code: int, values: List[int]) -> int:
    """Three-valued gate evaluation on a kind code — the semantics of
    :func:`~repro.circuit.gates.eval_gate`."""
    if code <= _NOR:
        control = code >> 1
        if control in values:
            return control ^ (code & 1)
        if X in values:
            return X
        return control ^ 1 ^ (code & 1)
    if code <= _XNOR:
        if X in values:
            return X
        return (sum(values) & 1) ^ (code & 1)
    if code == _NOT:
        value = values[0]
        return X if value == X else value ^ 1
    if code == _BUF:
        return values[0]
    select, d0, d1 = values
    if select == ZERO:
        return d0
    if select == ONE:
        return d1
    # Unknown select: known output only if both data inputs agree.
    return d0 if d0 == d1 else X


@lru_cache(maxsize=None)
def _truth_table(code: int, arity: int) -> Tuple[int, ...]:
    """The nine :func:`_evaluate` outputs of a one- or two-input gate,
    indexed by ``3 * a + b`` for input values ``a`` and ``b`` (a
    one-input gate reads its input twice)."""
    return tuple(_evaluate(code, [a, b][:arity])
                 for a, b in product((ZERO, ONE, X), repeat=2))


class Podem:
    """Reusable PODEM engine for one combinational circuit.

    Construction compiles the circuit once into integer-indexed tables
    (see :meth:`_compile`); :meth:`run` / :meth:`run_multi` may then be
    called for any number of faults.

    ``frozen_inputs`` are primary inputs the engine must leave at X —
    they are never chosen by the backtrace, so any cube found is valid
    for *every* value of those inputs (the unknown-initial-state model
    of time-frame expansion).
    """

    def __init__(self, circuit: Circuit, backtrack_limit: int = 1000,
                 frozen_inputs: Optional[Iterable[str]] = None):
        if circuit.num_state_vars:
            raise ValueError("PODEM requires a combinational circuit")
        self.circuit = circuit
        self.backtrack_limit = backtrack_limit
        frozen = set(frozen_inputs or ())
        unknown = frozen - set(circuit.inputs)
        if unknown:
            raise ValueError(f"frozen nets are not inputs: {sorted(unknown)}")
        self._compile(frozen)

    def _compile(self, frozen: Set[str]) -> None:
        """Integer-indexed tables of the circuit.

        Net ids: primary input ``i`` is net ``i``; gate ``g`` of
        ``circuit.topo_gates`` is gate ``g`` and drives net
        ``num_inputs + g``, so gate order is topological order.
        """
        circuit = self.circuit
        gates = circuit.topo_gates
        names = list(circuit.inputs) + [gate.output for gate in gates]
        net_id = {name: i for i, name in enumerate(names)}
        n_in = len(circuit.inputs)
        self._names = names
        self._net_id = net_id
        self._num_inputs = n_in
        self._gate_kind = [_KIND_CODE[gate.kind] for gate in gates]
        self._gate_inputs = [tuple(net_id[n] for n in gate.inputs)
                             for gate in gates]
        #: Truth table of each one- and two-input gate, indexed by
        #: ``3 * a + b`` for its input pair ``(a, b)`` (``(a, a)`` for
        #: one input); None for wider gates.
        self._gate_table = [
            _truth_table(code, len(ins)) if len(ins) <= 2 else None
            for code, ins in zip(self._gate_kind, self._gate_inputs)]
        self._gate_pair = [(ins[0], ins[-1]) if len(ins) <= 2 else None
                           for ins in self._gate_inputs]
        fanout: List[List[int]] = [[] for _ in names]
        level = [0] * len(names)
        for gi, ins in enumerate(self._gate_inputs):
            for i in ins:
                if not fanout[i] or fanout[i][-1] != gi:
                    fanout[i].append(gi)
            level[n_in + gi] = 1 + max(level[i] for i in ins)
        #: Fanout gate ids per net (each consumer once).
        self._fanout = [tuple(sinks) for sinks in fanout]
        self._level = level
        self._gate_level = level[n_in:]
        self._is_po = bytearray(len(names))
        for po in circuit.outputs:
            self._is_po[net_id[po]] = 1
        self._frozen = bytearray(len(names))
        for net in frozen:
            self._frozen[net_id[net]] = 1
        self._buckets: List[List[int]] = [[] for _ in range(max(level, default=0) + 1)]
        self._queued = bytearray(len(gates))
        self._backtrace_steps = 10 * (len(circuit.gates) + 1)

    # -- public API --------------------------------------------------------

    def run(self, fault: Fault) -> PodemResult:
        """Generate a test cube for a single fault (see module docstring)."""
        return self.run_multi([fault])

    def run_multi(self, faults: Sequence[Fault]) -> PodemResult:
        """Generate one cube detecting the *composite* fault whose sites
        are all of ``faults`` at once.

        Used by time-frame expansion: the same physical fault is present
        in every frame, so all its per-frame sites are forced together.
        Detection means the composite effect reaches some output —
        exactly the semantics of a permanent fault in the unrolled
        circuit.  The reported ``fault`` is ``faults[0]``.
        """
        if not faults:
            raise ValueError("run_multi needs at least one fault site")
        obs.incr("atpg.podem.calls")
        self._prepare(faults)
        representative = faults[0]
        backtracks = 0
        # Decision stack entries: [pi, value, flipped_already].  The
        # stack order is the cube's insertion order.
        stack: List[List] = []
        while True:
            detected = self._detected_outputs()
            if detected:
                names = self._names
                return self._record(PodemResult(
                    status=DETECTED,
                    fault=representative,
                    assignment={names[pi]: value for pi, value, _ in stack},
                    detecting_outputs=detected,
                    backtracks=backtracks,
                ))
            advanced = False
            for objective in self._objectives():
                pi, value = self._backtrace(*objective)
                if pi is not None:
                    stack.append([pi, value, False])
                    self._imply(((pi, value),))
                    advanced = True
                    break
            if advanced:
                continue
            # No viable objective or backtrace dead-ends: backtrack.
            backtracks += 1
            if backtracks > self.backtrack_limit:
                return self._record(PodemResult(
                    status=ABORTED, fault=representative,
                    backtracks=backtracks))
            changes = []
            while stack and stack[-1][2]:
                pi, _value, _ = stack.pop()
                changes.append((pi, X))
            if not stack:
                return self._record(PodemResult(
                    status=UNTESTABLE, fault=representative,
                    backtracks=backtracks,
                ))
            entry = stack[-1]
            entry[1] ^= 1
            entry[2] = True
            changes.append((entry[0], entry[1]))
            self._imply(changes)

    def _record(self, result: PodemResult) -> PodemResult:
        """Telemetry funnel for every run_multi outcome."""
        obs.incr(f"atpg.podem.{result.status}")
        if result.backtracks:
            obs.incr("atpg.backtracks", result.backtracks)
        obs.incr("atpg.podem.implications", self._implications)
        obs.incr("atpg.podem.gate_evals", self._gate_evals)
        ledger.record("atpg.podem", fault=result.fault, engine="podem",
                      status=result.status, backtracks=result.backtracks)
        return result

    # -- fault site compilation -----------------------------------------------

    def _prepare(self, faults: Sequence[Fault]) -> None:
        """Compile fault sites into forcing tables and the fault cone,
        then imply the empty assignment."""
        net_id = self._net_id
        n_in = self._num_inputs
        fanout = self._fanout
        #: net id -> stuck value forced on the net in the faulty machine
        self._stem: Dict[int, int] = {}
        #: gate id -> {pin: stuck value} forced on its faulty inputs
        self._branch: Dict[int, Dict[int, int]] = {}
        po_force: Dict[str, int] = {}
        self._sites: List[Tuple[int, int]] = []
        for fault in faults:
            if fault.kind == STEM:
                self._stem[net_id[fault.net]] = fault.stuck_at
            elif fault.consumer.startswith("PO:"):
                po_force[fault.consumer[3:]] = fault.stuck_at
            else:
                consumer = net_id.get(fault.consumer, -1)
                if consumer >= n_in:
                    self._branch.setdefault(consumer - n_in, {})[
                        fault.pin] = fault.stuck_at
            self._sites.append((net_id[fault.net], fault.stuck_at))

        # The fault cone: gates driving a stem site, reading a forced
        # net or pin, or (transitively) reading such a gate.  Outside it
        # the faulty machine equals the good one.
        roots = list(self._branch)
        for net in self._stem:
            if net >= n_in:
                roots.append(net - n_in)
            roots.extend(fanout[net])
        in_cone = bytearray(len(self._gate_kind))
        cone: List[int] = []
        work = list(roots)
        while work:
            gi = work.pop()
            if in_cone[gi]:
                continue
            in_cone[gi] = 1
            cone.append(gi)
            work.extend(fanout[n_in + gi])
        cone.sort()
        self._in_cone = in_cone
        self._cone_gates = cone
        self._cone_pos: List[Tuple[int, str, Optional[int]]] = []
        for po in self.circuit.outputs:
            net = net_id[po]
            if po in po_force or net in self._stem or (
                    net >= n_in and in_cone[net - n_in]):
                self._cone_pos.append((net, po, po_force.get(po)))

        self._good = [X] * len(self._names)
        self._faulty = [X] * len(self._names)
        for net, stuck in self._stem.items():
            if net < n_in:
                self._faulty[net] = stuck
        self._implications = 1
        self._gate_evals = 0
        self._propagate(roots)

    # -- event-driven implication ----------------------------------------------

    def _imply(self, changes: Iterable[Tuple[int, int]]) -> None:
        """Set primary inputs (``(pi, value)`` pairs, X to unassign) and
        forward-imply the good and faulty machines from them."""
        good = self._good
        faulty = self._faulty
        stem = self._stem
        fanout = self._fanout
        seeds: List[int] = []
        for pi, value in changes:
            good[pi] = value
            faulty[pi] = stem.get(pi, value)
            seeds.extend(fanout[pi])
        self._implications += 1
        self._propagate(seeds)

    def _propagate(self, seeds: Iterable[int]) -> None:
        """Re-evaluate ``seeds`` and, level by level, every gate reading
        a net whose good or faulty value changed.

        Values are a pure function of the input assignment, so this
        reaches the fixed point a full pass over ``topo_gates`` would.
        """
        good = self._good
        faulty = self._faulty
        kinds = self._gate_kind
        gate_inputs = self._gate_inputs
        tables = self._gate_table
        pairs = self._gate_pair
        gate_level = self._gate_level
        fanout = self._fanout
        buckets = self._buckets
        queued = self._queued
        in_cone = self._in_cone
        branch = self._branch
        stem = self._stem
        n_in = self._num_inputs
        evaluate = _evaluate
        lo = len(buckets)
        hi = -1
        for gi in seeds:
            if not queued[gi]:
                queued[gi] = 1
                lvl = gate_level[gi]
                buckets[lvl].append(gi)
                if lvl < lo:
                    lo = lvl
                if lvl > hi:
                    hi = lvl
        evals = 0
        lvl = lo
        while lvl <= hi:
            bucket = buckets[lvl]
            lvl += 1
            if not bucket:
                continue
            evals += len(bucket)
            for gi in bucket:
                queued[gi] = 0
                table = tables[gi]
                out = n_in + gi
                if table is None:
                    g = evaluate(kinds[gi], [good[i] for i in gate_inputs[gi]])
                else:
                    a, b = pairs[gi]
                    g = table[3 * good[a] + good[b]]
                if in_cone[gi]:
                    f = stem.get(out)
                    if f is None:
                        if table is None or gi in branch:
                            values = [faulty[i] for i in gate_inputs[gi]]
                            for pin, stuck in branch.get(gi, _NO_FORCE).items():
                                values[pin] = stuck
                            f = evaluate(kinds[gi], values)
                        else:
                            a, b = pairs[gi]
                            f = table[3 * faulty[a] + faulty[b]]
                    if g == good[out] and f == faulty[out]:
                        continue
                    faulty[out] = f
                elif g == good[out]:
                    continue
                else:
                    faulty[out] = g
                good[out] = g
                for sink in fanout[out]:
                    if not queued[sink]:
                        queued[sink] = 1
                        sink_level = gate_level[sink]
                        buckets[sink_level].append(sink)
                        if sink_level > hi:
                            hi = sink_level
            bucket.clear()
        self._gate_evals += evals

    def _detected_outputs(self) -> List[str]:
        """POs where good and faulty values are opposite binary values
        (only POs in the fault cone can differ)."""
        good = self._good
        faulty = self._faulty
        found = []
        for net, po, stuck in self._cone_pos:
            g = good[net]
            if g == X:
                continue
            f = faulty[net] if stuck is None else stuck
            if f != X and f != g:
                found.append(po)
        return found

    # -- objective selection ---------------------------------------------------

    def _d_frontier(self) -> List[int]:
        """Gates with a fault effect on an input and an X output, in
        topological order (only cone gates can have one)."""
        good = self._good
        faulty = self._faulty
        gate_inputs = self._gate_inputs
        branch = self._branch
        n_in = self._num_inputs
        frontier = []
        for gi in self._cone_gates:
            out = n_in + gi
            if good[out] != X and faulty[out] != X:
                continue
            forced = branch.get(gi, _NO_FORCE)
            for pin, net in enumerate(gate_inputs[gi]):
                g = good[net]
                if g == X:
                    continue
                f = forced.get(pin, faulty[net])
                if f != X and g != f:
                    frontier.append(gi)
                    break
        return frontier

    def _x_path_exists(self, frontier: List[int]) -> bool:
        """Is there a path of X nets from some frontier gate to a PO?"""
        good = self._good
        faulty = self._faulty
        fanout = self._fanout
        is_po = self._is_po
        n_in = self._num_inputs
        seen = set()
        work = [n_in + gi for gi in frontier]
        while work:
            net = work.pop()
            if net in seen:
                continue
            seen.add(net)
            if is_po[net]:
                return True
            for sink in fanout[net]:
                out = n_in + sink
                if out in seen:
                    continue
                if good[out] == X or faulty[out] == X:
                    work.append(out)
        return False

    def _objectives(self) -> List[Tuple[int, int]]:
        """Candidate ``(net id, value)`` objectives in priority order;
        empty list = back up.

        With multiple sites (time-frame replication) an activated site
        whose effect died does NOT justify pruning: a still-undecided
        site (typically a later frame) may yet activate, so activation of
        every other site is kept as a fallback objective.  Sites sitting
        directly on frozen inputs can never reach a binary good value and
        are excluded.  This is what keeps ``untestable`` verdicts sound
        for unrolled faults — checked empirically by the test suite.
        """
        good = self._good
        frozen = self._frozen
        activated = False
        undecided: List[Tuple[int, int]] = []
        for net, stuck in self._sites:
            value = good[net]
            if value == X:
                if not frozen[net]:
                    undecided.append((net, stuck ^ 1))
            elif value != stuck:
                activated = True
        candidates: List[Tuple[int, int]] = []
        if activated:
            frontier = self._d_frontier()
            if frontier and self._x_path_exists(frontier):
                kinds = self._gate_kind
                gate_inputs = self._gate_inputs
                # Stable sort: equal levels keep topological order.
                for gi in sorted(frontier, key=self._gate_level.__getitem__):
                    for net in gate_inputs[gi]:
                        if good[net] == X:
                            candidates.append((net, _PROPAGATE_VALUE[kinds[gi]]))
                            break
        candidates.extend(undecided)
        return candidates

    # -- backtrace ---------------------------------------------------------------

    def _backtrace(self, net: int, value: int) -> Tuple[Optional[int], int]:
        """Walk an objective back to an unassigned primary input.

        Returns ``(None, 0)`` when the walk dead-ends (every path reaches
        assigned or frozen inputs), which forces a backtrack.
        """
        good = self._good
        frozen = self._frozen
        level = self._level
        n_in = self._num_inputs
        for _ in range(self._backtrace_steps):
            if net < n_in:
                # Assigned inputs are exactly those with a binary value.
                if good[net] != X or frozen[net]:
                    return None, 0
                return net, value
            gi = net - n_in
            code = self._gate_kind[gi]
            ins = self._gate_inputs[gi]
            if code == _MUX:
                sel, d0, d1 = ins
                sel_value = good[sel]
                if sel_value == X:
                    net, value = sel, ZERO
                else:
                    net = d1 if sel_value == ONE else d0
                continue
            needed = value ^ 1 if code in _INVERTING_CODES else value
            x_inputs = [n for n in ins if good[n] == X]
            if not x_inputs:
                return None, 0
            if code >= _XOR:  # XOR / XNOR / NOT / BUF: no controlling value
                if code >= _NOT:
                    net, value = ins[0], needed
                else:
                    first = x_inputs[0]
                    parity = 0
                    for n in ins:
                        if n != first and good[n] != X:
                            parity ^= good[n]
                    net, value = first, needed ^ parity
                continue
            control = code >> 1
            if needed == control:
                # One controlling input suffices: pick the easiest (lowest
                # level) X input, avoiding frozen inputs when possible.
                net = min(x_inputs, key=lambda n: (frozen[n], level[n]))
                value = control
            else:
                # All inputs must be non-controlling: pick the hardest.
                net = max(x_inputs, key=level.__getitem__)
                value = control ^ 1
        return None, 0

