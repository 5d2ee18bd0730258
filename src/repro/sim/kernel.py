"""Levelized, vectorized fault-simulation kernel (the ``vector`` backend).

:class:`VectorFaultSimulator` is a drop-in alternative to
:class:`~repro.sim.fault_sim.PackedFaultSimulator` that stores the
three-valued ``(ones, zeros)`` planes as a ``(nets, 2, words)`` uint64
numpy matrix instead of per-net Python integers, and evaluates the
netlist through a *compiled program*: flat gate/slot tables in
topological order plus sparse force records, interpreted by a small C
step engine.  The engine is compiled once per machine from the embedded
source below (``cc -O3``), loaded with ``ctypes`` and cached under the
user cache dir keyed by a digest of the source, the compiler flags and
the host CPU: one C call per step (or one per *sequence* via
``run_block``), zero Python dispatch in the inner loop.  Gates of any
fanin run on it.  Without a working C compiler the simulator cannot be
built; :func:`~repro.sim.backend.resolve_concrete_backend` then keeps
every simulation on the packed reference.

The engine mirrors ``PackedFaultSimulator``'s gate formulas word for
word, so detection masks, coverage and ``(cycle, position)`` detection
order are bit-identical to the packed reference — the parity tests in
``tests/test_sim_backend.py`` assert exactly that.

Compilation is keyed on the circuit fingerprint: the fault-independent
tables are cached on the circuit object (``circuit._vector_topology``),
mirroring ``compiled_topology``, so fault-dropping repacks and the
parallel engine's workers reuse them for free.  Fault injection is
sparse: each fault site becomes one ``(word, set1, set0)`` record per
plane word its faults touch (a stuck-at fault sets one bit of one
word), built per instance from the same site grouping as the packed
simulator's injection masks.  Storage is O(faults), not O(sites × W),
and a step patches only the forced words.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.gates import ONE, X, ZERO
from ..circuit.netlist import Circuit
from ..faults.model import Fault
from ..obs import context as obs
from ..obs import ledger
from .fault_sim import (
    FaultSimResult, compiled_topology, group_fault_sites,
    iter_fault_positions,
)
from .logic_sim import vector_from_string

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

typedef uint64_t u64;
typedef int32_t i32;
typedef int64_t i64;

/* gate record: kind, out_net, slot_off, nin, out_force */
enum { K_AND, K_NAND, K_OR, K_NOR, K_NOT, K_BUF, K_XOR, K_XNOR, K_MUX };

/* force record: the bits one fault site forces in one plane word.  A
   site's records are consecutive, ascending by word, and end with a
   record whose word is -1; a table's force column holds the index of
   the site's first record, or -1 for an unfaulted site. */
typedef struct { i64 word; u64 set1, set0; } frec;

static inline void force_word(u64 *o, u64 *z, const frec *r) {
    u64 a = (*o | r->set1) & ~r->set0;
    u64 b = (*z | r->set0) & ~r->set1;
    *o = a; *z = b;
}

static void apply_force(u64 *o, u64 *z, const frec *r) {
    for (; r->word >= 0; r++) force_word(o + r->word, z + r->word, r);
}

/* the site's record for word w, or 0 */
static const frec *find_word(const frec *r, i64 w) {
    while (r->word >= 0 && r->word < w) r++;
    return r->word == w ? r : 0;
}

/* one word of one gate from its per-pin input words v1[k], v0[k] */
static void eval_word(i32 kind, i64 nin, const u64 *v1, const u64 *v0,
                      u64 *ro, u64 *rz) {
    u64 a1 = v1[0], a0 = v0[0];
    switch (kind) {
    case K_AND: case K_NAND:
        for (i64 k = 1; k < nin; k++) { a1 &= v1[k]; a0 |= v0[k]; }
        a1 &= ~a0;
        break;
    case K_OR: case K_NOR:
        for (i64 k = 1; k < nin; k++) { a1 |= v1[k]; a0 &= v0[k]; }
        a0 &= ~a1;
        break;
    case K_NOT:
        *ro = a0; *rz = a1; return;
    case K_XOR: case K_XNOR:
        for (i64 k = 1; k < nin; k++) {
            u64 no = (a1 & v0[k]) | (a0 & v1[k]);
            u64 nz = (a1 & v1[k]) | (a0 & v0[k]);
            a1 = no; a0 = nz;
        }
        break;
    case K_MUX:
        a1 = (v0[0] & v1[1]) | (v1[0] & v1[2]) | (v1[1] & v1[2]);
        a0 = (v0[0] & v0[1]) | (v1[0] & v0[2]) | (v0[1] & v0[2]);
        break;
    }
    if (kind == K_NAND || kind == K_NOR || kind == K_XNOR) {
        *ro = a0; *rz = a1;
    } else {
        *ro = a1; *rz = a0;
    }
}

/* scratch: caller-owned room for 2 * (widest fanin) words, so gates of
   any arity run here */
static void step_core(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const frec *recs, u64 *scratch,
    const uint8_t *vec, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, const u64 *state, u64 *newstate,
    u64 *det)
{
    const i64 R = 2 * W;
    for (i64 p = 0; p < npis; p++) {
        i64 net = pis[2*p]; i32 fi = pis[2*p + 1];
        u64 *o = planes + net * R, *z = o + W;
        uint8_t v = vec[p];
        if (v == 1) { memcpy(o, fullm, W * 8); memset(z, 0, W * 8); }
        else if (v == 0) { memset(o, 0, W * 8); memcpy(z, fullm, W * 8); }
        else { memset(o, 0, W * 8); memset(z, 0, W * 8); }
        if (fi >= 0) apply_force(o, z, recs + fi);
    }
    for (i64 f = 0; f < nff; f++) {
        i64 net = ffs[4*f]; i32 fi = ffs[4*f + 2];
        u64 *o = planes + net * R, *z = o + W;
        memcpy(o, state + f * R, R * 8);
        if (fi >= 0) apply_force(o, z, recs + fi);
    }
    for (i64 g = 0; g < ngates; g++) {
        const i32 *gr = gates + g * 5;
        i32 kind = gr[0];
        i64 out = gr[1];
        const i32 *sl = slots + (i64)gr[2] * 2;
        i64 nin = gr[3];
        u64 *ro = planes + out * R, *rz = ro + W;
        /* the whole row from the unforced inputs; inverting kinds
           accumulate straight into the swapped target rows, mirroring
           the packed formulas without a swap pass */
        u64 *ao = ro, *az = rz;
        if (kind == K_NAND || kind == K_NOR || kind == K_XNOR) {
            ao = rz; az = ro;
        }
        const u64 *f1 = planes + sl[0] * R, *f0 = f1 + W;
        switch (kind) {
        case K_AND: case K_NAND: {
            memcpy(ao, f1, W * 8); memcpy(az, f0, W * 8);
            for (i64 k = 1; k < nin; k++) {
                const u64 *b1 = planes + sl[2*k] * R, *b0 = b1 + W;
                for (i64 w = 0; w < W; w++) { ao[w] &= b1[w]; az[w] |= b0[w]; }
            }
            for (i64 w = 0; w < W; w++) ao[w] &= ~az[w];
            break; }
        case K_OR: case K_NOR: {
            memcpy(ao, f1, W * 8); memcpy(az, f0, W * 8);
            for (i64 k = 1; k < nin; k++) {
                const u64 *b1 = planes + sl[2*k] * R, *b0 = b1 + W;
                for (i64 w = 0; w < W; w++) { ao[w] |= b1[w]; az[w] &= b0[w]; }
            }
            for (i64 w = 0; w < W; w++) az[w] &= ~ao[w];
            break; }
        case K_NOT:
            memcpy(ro, f0, W * 8); memcpy(rz, f1, W * 8); break;
        case K_BUF:
            memcpy(ro, f1, W * 8); memcpy(rz, f0, W * 8); break;
        case K_XOR: case K_XNOR: {
            memcpy(ao, f1, W * 8); memcpy(az, f0, W * 8);
            for (i64 k = 1; k < nin; k++) {
                const u64 *b1 = planes + sl[2*k] * R, *b0 = b1 + W;
                for (i64 w = 0; w < W; w++) {
                    u64 no = (ao[w] & b0[w]) | (az[w] & b1[w]);
                    u64 nz = (ao[w] & b1[w]) | (az[w] & b0[w]);
                    ao[w] = no; az[w] = nz;
                }
            }
            break; }
        case K_MUX: {
            const u64 *s1 = f1, *s0 = f0;
            const u64 *a1 = planes + sl[2] * R, *a0 = a1 + W;
            const u64 *b1 = planes + sl[4] * R, *b0 = b1 + W;
            for (i64 w = 0; w < W; w++) {
                ro[w] = (s0[w] & a1[w]) | (s1[w] & b1[w]) | (a1[w] & b1[w]);
                rz[w] = (s0[w] & a0[w]) | (s1[w] & b0[w]) | (a0[w] & b0[w]);
            }
            break; }
        }
        /* then re-evaluate each word a pin force touches, with every
           pin's forces for that word applied */
        for (i64 k = 0; k < nin; k++) {
            i32 fk = sl[2*k + 1];
            if (fk < 0) continue;
            u64 *v1 = scratch, *v0 = scratch + nin;
            for (const frec *r = recs + fk; r->word >= 0; r++) {
                i64 w = r->word;
                for (i64 j = 0; j < nin; j++) {
                    const u64 *o = planes + sl[2*j] * R;
                    v1[j] = o[w]; v0[j] = o[W + w];
                    i32 fj = sl[2*j + 1];
                    if (fj >= 0) {
                        const frec *q = j == k ? r : find_word(recs + fj, w);
                        if (q) force_word(v1 + j, v0 + j, q);
                    }
                }
                eval_word(kind, nin, v1, v0, ro + w, rz + w);
            }
        }
        i32 ofi = gr[4];
        if (ofi >= 0) apply_force(ro, rz, recs + ofi);
    }
    memset(det, 0, W * 8);
    for (i64 p = 0; p < npos; p++) {
        i64 net = pos[2*p]; i32 fi = pos[2*p + 1];
        const u64 *o = planes + net * R, *z = o + W;
        /* forces never touch bit 0, the fault-free machine */
        int good1 = (int)(o[0] & 1);
        if (!good1 && !(z[0] & 1)) continue;
        const u64 *opp = good1 ? z : o;
        if (fi < 0) {
            for (i64 w = 0; w < W; w++) det[w] |= opp[w];
            continue;
        }
        const frec *r = recs + fi;
        for (i64 w = 0; w < W; w++) {
            if (r->word == w) {
                u64 v1 = o[w], v0 = z[w];
                force_word(&v1, &v0, r++);
                det[w] |= good1 ? v0 : v1;
            } else {
                det[w] |= opp[w];
            }
        }
    }
    det[0] &= ~(u64)1;
    for (i64 f = 0; f < nff; f++) {
        i64 net = ffs[4*f + 1]; i32 fi = ffs[4*f + 3];
        u64 *so = newstate + f * R, *sz = so + W;
        memcpy(so, planes + net * R, R * 8);
        if (fi >= 0) apply_force(so, sz, recs + fi);
    }
}

void repro_step(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const frec *recs, u64 *scratch,
    const uint8_t *vec, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, const u64 *state, u64 *newstate,
    u64 *det)
{
    step_core(planes, W, fullm, gates, ngates, slots, recs, scratch,
              vec, pis, npis, pos, npos, ffs, nff, state, newstate, det);
}

void repro_run_block(
    u64 *planes, i64 W, const u64 *fullm,
    const i32 *gates, i64 ngates, const i32 *slots,
    const frec *recs, u64 *scratch,
    const uint8_t *vecs, i64 nvec, const i32 *pis, i64 npis,
    const i32 *pos, i64 npos,
    const i32 *ffs, i64 nff, u64 *state, u64 *state_scratch,
    u64 *dets)
{
    u64 *sin = state, *sout = state_scratch;
    for (i64 t = 0; t < nvec; t++) {
        step_core(planes, W, fullm, gates, ngates, slots, recs, scratch,
                  vecs + t * npis, pis, npis, pos, npos, ffs, nff,
                  sin, sout, dets + t * W);
        u64 *tmp = sin; sin = sout; sout = tmp;
    }
    if (sin != state)
        memcpy(state, sin, (size_t)nff * 2 * W * 8);
}
"""

_LIB: Optional[ctypes.CDLL] = None
_LIB_TRIED = False


def _cache_dir() -> str:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-atpg")


#: Compiler flag sets tried in order; the first that builds is cached.
_CC_FLAG_SETS = (("-march=native", "-funroll-loops"), ())

#: /proc/cpuinfo keys that identify the instruction set a
#: ``-march=native`` build may use (x86 and ARM spellings).
_CPU_KEYS = ("vendor_id", "cpu family", "model", "model name", "flags",
             "CPU implementer", "CPU architecture", "CPU variant",
             "CPU part", "Features")


def _cpu_identity() -> str:
    """The host CPU as the native build sees it: the machine type plus
    the first processor's model and feature lines from /proc/cpuinfo
    (read directly, so no subprocess joins the load path)."""
    lines = [platform.machine()]
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if not line.strip():
                    break  # end of the first processor's block
                key, _, value = line.partition(":")
                if key.strip() in _CPU_KEYS:
                    lines.append(f"{key.strip()}:{value.strip()}")
    except OSError:
        pass
    return "\n".join(lines)


def _kernel_so_name(cpu: str) -> str:
    """Cached library file name: a digest of the C source, the flag
    sets and ``cpu``, so a cache shared between hosts never loads a
    build made for another instruction set."""
    key = "\0".join([_C_SOURCE, repr(_CC_FLAG_SETS), cpu])
    return f"simkernel-{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"


def _compile_kernel_library() -> Optional[str]:
    """Compile the embedded C source into a cached shared object;
    returns its path, or ``None`` when no working C compiler exists."""
    name = _kernel_so_name(_cpu_identity())
    cache = _cache_dir()
    so_path = os.path.join(cache, name)
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(cache, exist_ok=True)
    except OSError:
        cache = tempfile.gettempdir()
        so_path = os.path.join(cache, f"repro-{name}")
        if os.path.exists(so_path):
            return so_path
    src_fd, src_path = tempfile.mkstemp(suffix=".c", dir=cache)
    tmp_so = src_path[:-2] + ".so"
    try:
        with os.fdopen(src_fd, "w") as fh:
            fh.write(_C_SOURCE)
        base = ["cc", "-shared", "-fPIC", "-O3", "-o", tmp_so, src_path]
        for extra in _CC_FLAG_SETS:
            try:
                proc = subprocess.run(base[:4] + list(extra) + base[4:],
                                      capture_output=True, timeout=120)
            except (OSError, subprocess.TimeoutExpired):
                return None
            if proc.returncode == 0:
                os.replace(tmp_so, so_path)  # atomic vs concurrent builds
                return so_path
        return None
    finally:
        for leftover in (src_path, tmp_so):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def load_kernel_library() -> Optional[ctypes.CDLL]:
    """The process-wide C step library (memoized; ``None`` when
    compilation fails)."""
    global _LIB, _LIB_TRIED
    if _LIB_TRIED:
        return _LIB
    _LIB_TRIED = True
    try:
        so_path = _compile_kernel_library()
        if so_path is None:
            return None
        lib = ctypes.CDLL(so_path)
        lib.repro_step.restype = None
        lib.repro_run_block.restype = None
        _LIB = lib
    except OSError:
        _LIB = None
    return _LIB


class LevelizedTopology:
    """Fault-independent compiled program for one circuit.

    Flat int32 tables in topological order (the C interpreter's input,
    force columns left at -1), and ``gate_slots``, each gate's
    ``(row, slot_offset, fanin)`` by output net.  Cached on the circuit
    keyed by its content fingerprint, like
    :func:`~repro.sim.fault_sim.compiled_topology`.
    """

    __slots__ = ("num_nets", "gates", "slots", "max_arity", "gate_slots")

    def __init__(self, circuit: Circuit):
        topo = compiled_topology(circuit)
        self.num_nets = topo.num_nets
        gates: List[List[int]] = []
        slots: List[List[int]] = []
        max_arity = 1
        self.gate_slots = {}
        for gate, (code, out_idx, in_idx) in zip(circuit.topo_gates,
                                                 topo.gates):
            soff = len(slots)
            for i in in_idx:
                slots.append([i, -1])
            self.gate_slots[gate.output] = (len(gates), soff, len(in_idx))
            gates.append([code, out_idx, soff, len(in_idx), -1])
            max_arity = max(max_arity, len(in_idx))
        self.gates = np.asarray(gates, dtype=np.int32).reshape(-1, 5)
        self.slots = np.asarray(slots, dtype=np.int32).reshape(-1, 2)
        self.max_arity = max_arity


def levelized_topology(circuit: Circuit) -> LevelizedTopology:
    """The (fingerprint-cached) levelized program for ``circuit``."""
    from ..cache.fingerprint import circuit_fingerprint

    fingerprint = circuit_fingerprint(circuit)
    cached = getattr(circuit, "_vector_topology", None)
    if cached is not None:
        cached_fp, topo = cached
        if cached_fp == fingerprint:
            return topo
    topo = LevelizedTopology(circuit)
    circuit._vector_topology = (fingerprint, topo)
    return topo


#: Word of the record that ends a fault site's run (-1 as int64).
_END_WORD = (1 << 64) - 1
_END_RECORD = (_END_WORD, 0, 0)


def _int_to_words(value: int, words: int) -> np.ndarray:
    return np.frombuffer(value.to_bytes(words * 8, "little"),
                         dtype="<u8").copy()


def _words_to_int(row: np.ndarray) -> int:
    return int.from_bytes(np.ascontiguousarray(row, dtype="<u8").tobytes(),
                          "little")


class VectorFaultSimulator:
    """Parallel-fault three-valued simulator over a uint64 plane matrix.

    API-compatible with :class:`PackedFaultSimulator` (the full
    :class:`~repro.sim.backend.SimBackend` surface plus the query
    helpers the flow uses), with bit-identical detection behaviour.
    Raises :class:`RuntimeError` when the C step library cannot be
    built on this machine.
    """

    backend_name = "vector"

    def __init__(self, circuit: Circuit, faults: Sequence[Fault]):
        lib = load_kernel_library()
        if lib is None:
            raise RuntimeError("the vector kernel needs a working C "
                               "compiler; use the packed backend")
        self._lib = lib
        self.circuit = circuit
        self.faults = list(faults)
        self.num_machines = len(self.faults) + 1
        self.full_mask = (1 << self.num_machines) - 1
        self.fault_mask = self.full_mask & ~1
        topo = compiled_topology(circuit)
        program = levelized_topology(circuit)
        self._index = topo.index
        self._topo = topo
        W = (self.num_machines + 63) // 64
        self.W = W
        self._full_words = _int_to_words(self.full_mask, W)

        stem, branch = group_fault_sites(self.faults, topo.index)
        records: List[Tuple[int, int, int]] = []

        def fidx(site) -> int:
            """Append ``site``'s force records; the C tables' index."""
            if site is None:
                return -1
            start = len(records)
            words = {}
            for plane, bits in enumerate(site):
                for bit in bits:
                    entry = words.setdefault(bit >> 6, [0, 0])
                    entry[plane] |= 1 << (bit & 63)
            records.extend((w, s1, s0)
                           for w, (s1, s0) in sorted(words.items()))
            records.append(_END_RECORD)
            return start

        self._pis = np.asarray(
            [[i, fidx(stem.get(n))] for i, n in topo.pi],
            dtype=np.int32).reshape(-1, 2)
        self._pos = np.asarray(
            [[i, fidx(branch.get((n, 0)))] for i, n in topo.po],
            dtype=np.int32).reshape(-1, 2)
        self._ffs = np.asarray(
            [[q, d, fidx(stem.get(flop.q)), fidx(branch.get((flop.q, 0)))]
             for (q, (d, _)), flop in zip(
                 zip(topo.flop_q, topo.flop_d), circuit.flops)],
            dtype=np.int32).reshape(-1, 4)

        # Only faulted gates are visited: the fault-free columns stay -1.
        gates = program.gates.copy()
        slots = program.slots.copy()
        gate_slots = program.gate_slots
        for net, site in stem.items():
            entry = gate_slots.get(net)
            if entry is not None:
                gates[entry[0], 4] = fidx(site)
        for (consumer, pin), site in branch.items():
            entry = gate_slots.get(consumer)
            if entry is not None and pin < entry[2]:
                slots[entry[1] + pin, 1] = fidx(site)
        self._gates = gates
        self._slots = slots
        self._records = np.array(records or [_END_RECORD],
                                 dtype=np.uint64).reshape(-1, 3)

        self.planes = np.zeros((program.num_nets, 2, W), dtype=np.uint64)
        nff = len(self._ffs)
        self._state = np.zeros((nff, 2, W), dtype=np.uint64)
        self._state_scratch = np.zeros_like(self._state)
        # input words of the gate being re-evaluated (C-side only)
        self._scratch = np.zeros(2 * program.max_arity, dtype=np.uint64)
        self._det = np.zeros(W, dtype=np.uint64)
        self.time = 0

        vp = ctypes.c_void_p
        p = lambda a: vp(a.ctypes.data)
        self._head_args = (
            p(self.planes), ctypes.c_int64(self.W), p(self._full_words),
            p(self._gates), ctypes.c_int64(len(self._gates)), p(self._slots),
            p(self._records), p(self._scratch))
        self._tail_args = (
            p(self._pis), ctypes.c_int64(len(self._pis)),
            p(self._pos), ctypes.c_int64(len(self._pos)),
            p(self._ffs), ctypes.c_int64(len(self._ffs)))
        self._state_ptr = p(self._state)
        self._state_scratch_ptr = p(self._state_scratch)
        self._det_ptr = p(self._det)

    def _force_masks(self, fi: int) -> Tuple[int, int]:
        """``(force_ones, force_zeros)`` of the site at record ``fi``."""
        m1 = m0 = 0
        word, s1, s0 = self._records[fi].tolist()
        while word != _END_WORD:
            m1 |= s1 << (64 * word)
            m0 |= s0 << (64 * word)
            fi += 1
            word, s1, s0 = self._records[fi].tolist()
        return m1, m0

    # -- state -----------------------------------------------------------------

    def reset(self) -> None:
        """All flip-flops back to X in every machine; time to 0."""
        self._state[:] = 0
        self.time = 0

    def load_state(self, values: Sequence[int]) -> None:
        """Force an identical binary/X state into every machine."""
        if len(values) != len(self._state):
            raise ValueError(f"need {len(self._state)} state values")
        self._state[:] = 0
        for i, v in enumerate(values):
            if v == ONE:
                self._state[i, 0] = self._full_words
            elif v == ZERO:
                self._state[i, 1] = self._full_words

    def save_state(self):
        """Snapshot the flip-flop planes and time (opaque token)."""
        return (self._state.copy(), self.time)

    def restore_state(self, token) -> None:
        state, time = token
        self._state[...] = state
        self.time = time

    @staticmethod
    def remap_state_token(token, kept_bits: Sequence[int]):
        """Project a :meth:`save_state` token onto a narrower packing
        (same contract as the packed simulator's method — machines are
        independent, so bit-gathering the planes is exact)."""
        state, time = token
        kept = np.asarray(list(kept_bits), dtype=np.int64)
        new_w = (len(kept) + 63) // 64
        bits = np.unpackbits(state.astype("<u8", copy=False).view(np.uint8),
                             axis=2, bitorder="little")[:, :, kept]
        out = np.zeros(state.shape[:2] + (new_w * 8,), dtype=np.uint8)
        packed = np.packbits(bits, axis=2, bitorder="little")
        out[:, :, :packed.shape[2]] = packed
        return (out.view("<u8").astype(np.uint64), time)

    def machine_state(self, machine: int) -> Tuple[int, ...]:
        """Scalar flip-flop values of one machine (0 = fault-free)."""
        word, bit = machine >> 6, machine & 63
        return tuple(
            ONE if ones >> bit & 1 else (ZERO if zeros >> bit & 1 else X)
            for ones, zeros in self._state[:, :, word].tolist())

    def load_machine_states(self, states: Sequence[Sequence[int]]) -> None:
        """Load a distinct scalar state per machine (packed contract)."""
        if len(states) != self.num_machines:
            raise ValueError(f"need {self.num_machines} per-machine states")
        arr = np.asarray(states, dtype=np.int64)  # (machines, nff)
        machines = np.arange(self.num_machines)
        words, bits = machines >> 6, (machines & 63).astype(np.uint64)
        self._state[:] = 0
        for plane, value in ((0, ONE), (1, ZERO)):
            sel = arr == value  # (machines, nff)
            for w in range(self.W):
                m = words == w
                if not m.any():
                    continue
                contrib = sel[m].astype(np.uint64) << bits[m][:, None]
                self._state[:, plane, w] = np.bitwise_or.reduce(
                    contrib, axis=0)

    def good_state(self) -> Tuple[int, ...]:
        """Fault-free flip-flop values (``ZERO``/``ONE``/``X``)."""
        return self.machine_state(0)

    def ff_effect_masks(self) -> List[int]:
        """Per flip-flop: machines holding the opposite binary value of
        the fault-free machine (packed contract).

        The state planes become Python ints in one conversion (one
        ``tolist`` at W=1, one ``tobytes`` otherwise) rather than
        through per-flop numpy scalar reads.
        """
        if self.W == 1:
            planes = self._state[:, :, 0].reshape(-1).tolist()
        else:
            raw = self._state.astype("<u8", copy=False).tobytes()
            wb = self.W * 8
            planes = [int.from_bytes(raw[i:i + wb], "little")
                      for i in range(0, len(raw), wb)]
        mask = self.fault_mask
        rows = iter(planes)
        return [(zeros & mask) if ones & 1 else
                ((ones & mask) if zeros & 1 else 0)
                for ones, zeros in zip(rows, rows)]

    # -- simulation ------------------------------------------------------------

    def _vector_array(self, vector: Sequence[int]) -> np.ndarray:
        if isinstance(vector, str):
            vector = vector_from_string(vector)
        return np.asarray(vector, dtype=np.uint8)

    def _vector_bytes(self, vector: Sequence[int]) -> bytes:
        """The vector as the uint8 buffer the C engine reads; ctypes
        passes a ``bytes`` argument as a pointer to its data, which is
        cheaper than building an array and its ctypes view."""
        if isinstance(vector, (tuple, list)):
            buf = bytes(vector)
        else:
            buf = self._vector_array(vector).tobytes()
        if len(buf) < len(self._pis):
            # the C step reads one byte per primary input
            raise ValueError(f"vector has {len(buf)} values for "
                             f"{len(self._pis)} primary inputs")
        return buf

    def step(self, vector: Sequence[int]) -> int:
        """Apply one vector; return this cycle's detection mask
        (bit-identical to the packed simulator's)."""
        self._lib.repro_step(
            *self._head_args, self._vector_bytes(vector),
            *self._tail_args, self._state_ptr, self._state_scratch_ptr,
            self._det_ptr)
        self._state, self._state_scratch = self._state_scratch, self._state
        self._state_ptr, self._state_scratch_ptr = (
            self._state_scratch_ptr, self._state_ptr)
        self.time += 1
        return _words_to_int(self._det) & self.fault_mask

    # -- queries (post-step plane reads, packed contract) ----------------------

    def _net_planes(self, idx: int) -> Tuple[int, int]:
        return (_words_to_int(self.planes[idx, 0]),
                _words_to_int(self.planes[idx, 1]))

    def good_net_value(self, net: str) -> int:
        """Fault-free value of ``net`` as of the last :meth:`step`."""
        one = np.uint64(1)
        idx = self._index[net]
        if self.planes[idx, 0, 0] & one:
            return ONE
        if self.planes[idx, 1, 0] & one:
            return ZERO
        return X

    def net_effect_mask(self, net: str) -> int:
        """Machines whose value at ``net`` opposes the fault-free one."""
        idx = self._index[net]
        ones, zeros = self._net_planes(idx)
        if ones & 1:
            return zeros & self.fault_mask
        if zeros & 1:
            return ones & self.fault_mask
        return 0

    def good_outputs(self) -> Tuple[int, ...]:
        """Fault-free primary output values of the last :meth:`step`."""
        one = np.uint64(1)
        result = []
        for idx in self._pos[:, 0]:
            if self.planes[idx, 0, 0] & one:
                result.append(ONE)
            elif self.planes[idx, 1, 0] & one:
                result.append(ZERO)
            else:
                result.append(X)
        return tuple(result)

    def detecting_outputs(self, mask: int) -> List[str]:
        """PO names observing the machines in ``mask`` (last step)."""
        observed: List[str] = []
        for (idx, name), rec in zip(self._topo.po, self._pos):
            ones, zeros = self._net_planes(idx)
            fi = rec[1]
            if fi >= 0:
                m1, m0 = self._force_masks(fi)
                ones = (ones | m1) & ~m0
                zeros = (zeros | m0) & ~m1
            if ones & 1:
                hit = zeros
            elif zeros & 1:
                hit = ones
            else:
                hit = 0
            if hit & mask:
                observed.append(name)
        return observed

    def run(
        self,
        vectors: Iterable[Sequence[int]],
        stop_when_all_detected: bool = False,
        reset: bool = True,
    ) -> FaultSimResult:
        """Simulate a whole sequence; record first-detection times.

        Identical semantics (and telemetry counters) to the packed
        simulator's :meth:`~PackedFaultSimulator.run`.  Without early
        stopping the entire block runs in one C call.
        """
        if reset:
            self.reset()
        result = FaultSimResult(faults=list(self.faults))
        faults = self.faults
        detection_time = result.detection_time
        remaining = self.fault_mask
        vectors = list(vectors)
        if not stop_when_all_detected and vectors:
            for t, newly in enumerate(self._run_block(vectors)):
                newly &= remaining
                if newly:
                    remaining &= ~newly
                    for position in iter_fault_positions(newly):
                        detection_time[faults[position]] = t
            result.num_vectors = len(vectors)
        else:
            for t, vector in enumerate(vectors):
                newly = self.step(vector) & remaining
                if newly:
                    remaining &= ~newly
                    for position in iter_fault_positions(newly):
                        detection_time[faults[position]] = t
                result.num_vectors = t + 1
                if stop_when_all_detected and remaining == 0:
                    break
        obs.incr("faultsim.runs")
        obs.incr("faultsim.cycles", result.num_vectors)
        if result.detection_time:
            obs.incr("faultsim.faults_dropped", len(result.detection_time))
        if ledger.enabled():
            ledger.record("faultsim.run", vectors=result.num_vectors,
                          detected=len(result.detection_time),
                          packed=len(faults))
        return result

    def _run_block(self, vectors: Sequence[Sequence[int]]) -> List[int]:
        """One C call for the whole sequence; per-cycle detection ints."""
        vecs = np.stack([self._vector_array(v) for v in vectors])
        vecs = np.ascontiguousarray(vecs, dtype=np.uint8)
        dets = np.zeros((len(vectors), self.W), dtype=np.uint64)
        self._lib.repro_run_block(
            *self._head_args, ctypes.c_void_p(vecs.ctypes.data),
            ctypes.c_int64(len(vectors)), *self._tail_args,
            self._state_ptr, self._state_scratch_ptr,
            ctypes.c_void_p(dets.ctypes.data))
        self.time += len(vectors)
        self._det[:] = dets[-1]
        fault_mask = self.fault_mask
        raw = dets.astype("<u8").tobytes()
        wb = self.W * 8
        return [int.from_bytes(raw[t * wb:(t + 1) * wb], "little")
                & fault_mask for t in range(len(vectors))]

    def detects_all(self, vectors: Sequence[Sequence[int]]) -> bool:
        """True when the sequence detects *every* packed fault."""
        self.reset()
        remaining = self.fault_mask
        for vector in vectors:
            remaining &= ~self.step(vector)
            if remaining == 0:
                return True
        return remaining == 0

    def faults_from_mask(self, mask: int) -> List[Fault]:
        """Decode a detection mask into the fault objects it covers."""
        faults = self.faults
        return [faults[position] for position in iter_fault_positions(mask)]

    @property
    def plane_bytes(self) -> int:
        """Bytes held in the uint64 plane/force-record/state arrays."""
        return (self.planes.nbytes + self._records.nbytes
                + 2 * self._state.nbytes + self._scratch.nbytes)
