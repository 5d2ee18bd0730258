"""Reference PODEM with full-recompute implication.

The oracle of the parity tests in ``test_podem_parity.py`` (it is not
part of the package): after every decision, flip and backtrack it
re-simulates the whole netlist through name-keyed dicts, scans every
gate for the D-frontier and every output for detection.  The search
itself (objectives, backtrace, decision order) is the one
:class:`repro.atpg.podem.Podem` keeps, so both engines must return
identical :class:`~repro.atpg.podem.PodemResult` values.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.atpg.podem import ABORTED, DETECTED, UNTESTABLE, PodemResult
from repro.circuit.gates import (
    CONTROLLING_VALUE, INVERTING, ONE, X, ZERO, eval_gate, invert,
)
from repro.circuit.netlist import Circuit
from repro.faults.model import STEM, Fault


class ReferencePodem:
    """Reusable PODEM engine for one combinational circuit.

    Construction precomputes topology (levels, fanout) once; :meth:`run`
    / :meth:`run_multi` may then be called for any number of faults.

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
        self._inputs = set(circuit.inputs)
        self._frozen: Set[str] = set(frozen_inputs or ())
        unknown = self._frozen - self._inputs
        if unknown:
            raise ValueError(f"frozen nets are not inputs: {sorted(unknown)}")
        self._level: Dict[str, int] = {net: 0 for net in circuit.inputs}
        for gate in circuit.topo_gates:
            self._level[gate.output] = 1 + max(self._level[n] for n in gate.inputs)
        self._po_set = set(circuit.outputs)

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
        self._prepare(faults)
        representative = faults[0]
        self._assignment: Dict[str, int] = {}
        backtracks = 0
        # Decision stack entries: (pi, value, flipped_already)
        stack: List[List] = []
        self._imply()
        while True:
            if self._detected_outputs():
                return self._record(PodemResult(
                    status=DETECTED,
                    fault=representative,
                    assignment=dict(self._assignment),
                    detecting_outputs=self._detected_outputs(),
                    backtracks=backtracks,
                ))
            advanced = False
            for objective in self._objectives():
                pi, value = self._backtrace(*objective)
                if pi is not None:
                    stack.append([pi, value, False])
                    self._assignment[pi] = value
                    self._imply()
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
            while stack and stack[-1][2]:
                pi, _value, _ = stack.pop()
                del self._assignment[pi]
            if not stack:
                return self._record(PodemResult(
                    status=UNTESTABLE, fault=representative,
                    backtracks=backtracks,
                ))
            entry = stack[-1]
            entry[1] ^= 1
            entry[2] = True
            self._assignment[entry[0]] = entry[1]
            self._imply()

    @staticmethod
    def _record(result: PodemResult) -> PodemResult:
        return result

    # -- fault site compilation -----------------------------------------------

    def _prepare(self, faults: Sequence[Fault]) -> None:
        """Compile fault sites into forcing tables."""
        self._stem_force: Dict[str, int] = {}
        self._branch_force: Dict[Tuple[str, int], int] = {}
        self._po_force: Dict[str, int] = {}
        self._activation_sites: List[Tuple[str, int]] = []
        for fault in faults:
            if fault.kind == STEM:
                self._stem_force[fault.net] = fault.stuck_at
            elif fault.consumer.startswith("PO:"):
                self._po_force[fault.consumer[3:]] = fault.stuck_at
            else:
                self._branch_force[(fault.consumer, fault.pin)] = fault.stuck_at
            self._activation_sites.append((fault.net, fault.stuck_at))
        self._good: Dict[str, int] = {}
        self._faulty: Dict[str, int] = {}

    # -- simulation of good and faulty machines ------------------------------

    def _imply(self) -> None:
        """Five-valued forward implication via dual 3-valued simulation."""
        stem_force = self._stem_force
        branch_force = self._branch_force
        good = {net: self._assignment.get(net, X) for net in self.circuit.inputs}
        faulty = dict(good)
        for net, stuck in stem_force.items():
            if net in self._inputs:
                faulty[net] = stuck
        for gate in self.circuit.topo_gates:
            good_inputs = [good[n] for n in gate.inputs]
            good[gate.output] = eval_gate(gate.kind, good_inputs)
            faulty_inputs = [faulty[n] for n in gate.inputs]
            if branch_force:
                for pin in range(len(faulty_inputs)):
                    stuck = branch_force.get((gate.output, pin))
                    if stuck is not None:
                        faulty_inputs[pin] = stuck
            value = eval_gate(gate.kind, faulty_inputs)
            stuck = stem_force.get(gate.output)
            if stuck is not None:
                value = stuck
            faulty[gate.output] = value
        self._good = good
        self._faulty = faulty

    def _faulty_at_po(self, po: str) -> int:
        """Faulty-machine value observed at a primary output pin."""
        stuck = self._po_force.get(po)
        if stuck is not None:
            return stuck
        return self._faulty[po]

    def _detected_outputs(self) -> List[str]:
        """POs where good and faulty values are opposite binary values."""
        found = []
        for po in self.circuit.outputs:
            g = self._good[po]
            f = self._faulty_at_po(po)
            if g != X and f != X and g != f:
                found.append(po)
        return found

    # -- objective selection ---------------------------------------------------

    def _d_frontier(self) -> List:
        """Gates with a fault effect on an input and an X output."""
        branch_force = self._branch_force
        frontier = []
        for gate in self.circuit.topo_gates:
            if self._good[gate.output] != X and self._faulty[gate.output] != X:
                continue
            for pin, net in enumerate(gate.inputs):
                g = self._good[net]
                f = self._faulty[net]
                stuck = branch_force.get((gate.output, pin))
                if stuck is not None:
                    f = stuck
                if g != X and f != X and g != f:
                    frontier.append(gate)
                    break
        return frontier

    def _x_path_exists(self, frontier) -> bool:
        """Is there a path of X nets from some frontier gate to a PO?"""
        seen = set()
        work = [gate.output for gate in frontier]
        while work:
            net = work.pop()
            if net in seen:
                continue
            seen.add(net)
            if net in self._po_set:
                return True
            for consumer, _pin in self.circuit.fanout(net):
                if consumer.startswith("PO:"):
                    return True
                if consumer in seen:
                    continue
                if self._good.get(consumer, X) == X or self._faulty.get(consumer, X) == X:
                    work.append(consumer)
        return False

    def _objectives(self) -> List[Tuple[str, int]]:
        """Candidate objectives in priority order; empty list = back up.

        With multiple sites (time-frame replication) an activated site
        whose effect died does NOT justify pruning: a still-undecided
        site (typically a later frame) may yet activate, so activation of
        every other site is kept as a fallback objective.  Sites sitting
        directly on frozen inputs can never reach a binary good value and
        are excluded.  This is what keeps ``untestable`` verdicts sound
        for unrolled faults — checked empirically by the test suite.
        """
        activated = False
        undecided: List[Tuple[str, int]] = []
        for net, stuck in self._activation_sites:
            value = self._good[net]
            if value == X:
                if net not in self._frozen:
                    undecided.append((net, stuck ^ 1))
            elif value != stuck:
                activated = True
        candidates: List[Tuple[str, int]] = []
        if activated:
            frontier = self._d_frontier()
            if frontier and self._x_path_exists(frontier):
                for gate in sorted(frontier,
                                   key=lambda g: self._level[g.output]):
                    control = CONTROLLING_VALUE[gate.kind]
                    for net in gate.inputs:
                        if self._good[net] == X:
                            if control is None:
                                candidates.append((net, ZERO))
                            else:
                                candidates.append((net, invert(control)))
                            break
        candidates.extend(undecided)
        return candidates

    # -- backtrace ---------------------------------------------------------------

    def _backtrace(self, net: str, value: int) -> Tuple[Optional[str], int]:
        """Walk an objective back to an unassigned primary input.

        Returns ``(None, 0)`` when the walk dead-ends (every path reaches
        assigned or frozen inputs), which forces a backtrack.
        """
        for _ in range(10 * (len(self.circuit.gates) + 1)):
            if net in self._inputs:
                if net in self._assignment or net in self._frozen:
                    return None, 0
                return net, value
            gate = self.circuit.gate_by_output[net]
            kind = gate.kind
            if kind == "MUX":
                sel, d0, d1 = gate.inputs
                sel_value = self._good[sel]
                if sel_value == X:
                    net, value = sel, ZERO
                else:
                    net = d1 if sel_value == ONE else d0
                continue
            inverted = INVERTING[kind]
            needed = value ^ 1 if inverted else value
            control = CONTROLLING_VALUE[kind]
            x_inputs = [n for n in gate.inputs if self._good[n] == X]
            if not x_inputs:
                return None, 0
            if control is None:  # NOT / BUF / XOR / XNOR
                if kind in ("NOT", "BUF"):
                    net, value = gate.inputs[0], needed
                else:
                    others = [self._good[n] for n in gate.inputs if n != x_inputs[0]]
                    parity = 0
                    for v in others:
                        parity ^= v if v != X else 0
                    net, value = x_inputs[0], needed ^ parity
                continue
            if needed == control:
                # One controlling input suffices: pick the easiest (lowest
                # level) X input, avoiding frozen inputs when possible.
                net = min(
                    x_inputs,
                    key=lambda n: (n in self._frozen, self._level[n]),
                )
                value = control
            else:
                # All inputs must be non-controlling: pick the hardest.
                net = max(x_inputs, key=lambda n: self._level[n])
                value = invert(control)
        return None, 0
