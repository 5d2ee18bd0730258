"""The fault-simulation backend API (repro.sim.backend) and the
vectorized levelized kernel (repro.sim.kernel).

The contract under test: the ``vector`` backend (the compiled C step
interpreter) is bit-identical to the ``PackedFaultSimulator`` reference
on every observable surface: per-step detection masks, ``run()``
detection maps and (cycle, position) ordering, state tokens
round-tripping through :class:`SimSession` checkpoints, fault
drops/repacks, gates of any fanin, and the parallel engine at every
worker count.  Automatic backend selection (with and without numpy or
a C compiler), custom simulator factories and the
no-numpy-when-packed guarantee are covered alongside.
"""

import os
import random
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FlowConfig, generation_flow, obs
from repro.circuit import insert_scan, random_circuit, s27
from repro.circuit.netlist import Circuit, FlipFlop, Gate
from repro.faults import collapse_faults
from repro.parallel import ParallelFaultSim
from repro.sim import (
    BACKEND_AUTO,
    BACKEND_NAMES,
    BACKEND_PACKED,
    BACKEND_VECTOR,
    PackedFaultSimulator,
    SimBackend,
    SimSession,
    make_backend,
)
from repro.sim import backend as backend_mod
from repro.sim.backend import (
    AUTO_MIN_FAULTS,
    resolve_concrete_backend,
    vector_available,
)
from tests.util import random_vectors

requires_vector = pytest.mark.skipif(
    not vector_available(),
    reason="vector backend unavailable (needs numpy and a C compiler)")


def _vector_sim(circuit, faults):
    from repro.sim.kernel import VectorFaultSimulator

    return VectorFaultSimulator(circuit, faults)


CIRCUITS = {
    "s27": lambda: s27(),
    "scan_mid": lambda: insert_scan(
        random_circuit("be_mid", 5, 8, 70, seed=11)).circuit,
    "seq_wide": lambda: random_circuit("be_wide", 7, 5, 50, seed=23),
}


@pytest.fixture(params=sorted(CIRCUITS))
def circuit(request):
    return CIRCUITS[request.param]()


# -- step/run parity against the packed reference ----------------------------


@requires_vector
def test_step_masks_bit_identical(circuit):
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 24, seed=3)
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    packed.reset()
    vector.reset()
    for vec in vectors:
        assert vector.step(vec) == packed.step(vec)


@requires_vector
@pytest.mark.parametrize("early_stop", [False, True])
def test_run_detection_maps_bit_identical(circuit, early_stop):
    """run(): same detection times, same (cycle, position) insertion
    order, same vector count — the acceptance-criterion equality."""
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 30, seed=7)
    ref = PackedFaultSimulator(circuit, faults).run(
        [list(v) for v in vectors], stop_when_all_detected=early_stop)
    got = _vector_sim(circuit, faults).run(
        [list(v) for v in vectors], stop_when_all_detected=early_stop)
    assert got.detection_time == ref.detection_time
    assert list(got.detection_time) == list(ref.detection_time)
    assert got.num_vectors == ref.num_vectors
    assert got.faults == ref.faults


@requires_vector
def test_query_surface_parity(circuit):
    """The session-facing query surface (good values, effect masks,
    detecting outputs, detects_all) agrees with packed mid-sequence."""
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 10, seed=5)
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    packed.reset()
    vector.reset()
    for vec in vectors:
        mask_p = packed.step(vec)
        mask_v = vector.step(vec)
        assert mask_v == mask_p
        assert vector.detecting_outputs(mask_p) == \
            packed.detecting_outputs(mask_p)
        assert vector.faults_from_mask(mask_p) == \
            packed.faults_from_mask(mask_p)
        for net in list(circuit.outputs)[:3]:
            assert vector.good_net_value(net) == packed.good_net_value(net)
            assert vector.net_effect_mask(net) == packed.net_effect_mask(net)
    assert vector.detects_all(vectors) == packed.detects_all(vectors)


@requires_vector
def test_state_tokens_round_trip(circuit):
    """save_state/restore_state replays to identical futures, and
    machine-state export/import agrees with packed."""
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 16, seed=9)
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    packed.reset()
    vector.reset()
    for vec in vectors[:8]:
        packed.step(vec)
        vector.step(vec)
    token_p, token_v = packed.save_state(), vector.save_state()
    assert vector.good_state() == packed.good_state()
    for pos in (0, len(faults) // 2):
        assert vector.machine_state(pos + 1) == packed.machine_state(pos + 1)
    tail_p = [packed.step(vec) for vec in vectors[8:]]
    tail_v = [vector.step(vec) for vec in vectors[8:]]
    assert tail_v == tail_p
    packed.restore_state(token_p)
    vector.restore_state(token_v)
    assert [packed.step(vec) for vec in vectors[8:]] == tail_p
    assert [vector.step(vec) for vec in vectors[8:]] == tail_v


# -- gates wider than any fixed pointer table --------------------------------


def _wide_fanin_circuit():
    """17- and 33-input AND/NAND/OR/NOR/XOR/XNOR gates over buffered
    copies of three inputs (so the wide AND/OR gates still see
    all-ones / all-zeros under random vectors and faults on their pins
    get detected), plus flops fed from and feeding wide gates."""
    rng = random.Random(5)
    inputs = [f"i{k}" for k in range(6)]
    flops = [FlipFlop(f"q{k}", f"d{k}") for k in range(4)]
    gates = [Gate(f"p{k}", "BUF", (("i0", "i1", "i2")[k % 3],))
             for k in range(40)]
    pool = [g.output for g in gates]
    outputs = []
    for width in (17, 33):
        for kind in ("AND", "NAND", "OR", "NOR", "XOR", "XNOR"):
            gates.append(Gate(f"w{kind}{width}", kind,
                              tuple(rng.sample(pool, width))))
            outputs.append(f"w{kind}{width}")
    for k in range(4):
        gates.append(Gate(f"d{k}", "XOR",
                          (outputs[k], outputs[-1 - k], f"i{3 + k % 3}")))
    gates.append(Gate("wq", "XNOR", tuple(pool[:14]) + tuple(
        f.q for f in flops)))
    outputs.append("wq")
    return Circuit("wide_fanin", inputs, outputs, gates, flops)


@requires_vector
@pytest.mark.parametrize("num_faults", [1, 63, 64, 150])
def test_wide_fanin_gates_bit_identical(num_faults):
    """The C engine has no fanin limit: step masks, ``run`` detection
    maps and order, and state tokens equal packed on 17- and 33-input
    gates, at one- and multi-word plane widths."""
    circuit = _wide_fanin_circuit()
    assert max(len(g.inputs) for g in circuit.gates) == 33
    faults = random.Random(num_faults).sample(collapse_faults(circuit),
                                              num_faults)
    vectors = random_vectors(circuit, 40, seed=num_faults)
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    packed.reset()
    vector.reset()
    masks = []
    for vec in vectors[:20]:
        masks.append(packed.step(vec))
        assert vector.step(vec) == masks[-1]
    token_p, token_v = packed.save_state(), vector.save_state()
    assert vector.ff_effect_masks() == packed.ff_effect_masks()
    tail = [packed.step(vec) for vec in vectors[20:]]
    assert [vector.step(vec) for vec in vectors[20:]] == tail
    vector.restore_state(token_v)
    packed.restore_state(token_p)
    assert [vector.step(vec) for vec in vectors[20:]] == tail
    assert [packed.step(vec) for vec in vectors[20:]] == tail
    if num_faults >= 63:
        assert any(masks + tail), "no detections: the check is vacuous"
    for early_stop in (False, True):
        ref = PackedFaultSimulator(circuit, faults).run(
            vectors, stop_when_all_detected=early_stop)
        got = _vector_sim(circuit, faults).run(
            vectors, stop_when_all_detected=early_stop)
        assert list(got.detection_time.items()) == \
            list(ref.detection_time.items())
        assert got.num_vectors == ref.num_vectors


# -- property test: random circuits through both backends --------------------


@requires_vector
@settings(max_examples=10, deadline=None)
@given(
    params=st.tuples(
        st.integers(min_value=2, max_value=5),     # inputs
        st.integers(min_value=1, max_value=6),     # flops
        st.integers(min_value=6, max_value=45),    # gates
        st.integers(min_value=0, max_value=10_000),  # seed
    ),
    sim_seed=st.integers(0, 1000),
)
def test_backends_agree_on_random_circuits(params, sim_seed):
    inputs, flops, gates, seed = params
    circuit = random_circuit("bh", inputs, flops, max(gates, flops),
                             seed=seed)
    faults = collapse_faults(circuit)
    if not faults:
        return
    vectors = random_vectors(circuit, 20, seed=sim_seed)
    ref = PackedFaultSimulator(circuit, faults).run([list(v) for v in vectors])
    got = _vector_sim(circuit, faults).run([list(v) for v in vectors])
    assert got.detection_time == ref.detection_time
    assert list(got.detection_time) == list(ref.detection_time)


# -- sparse force records: multi-word planes, shared words, wide gates -------


def _force_record_circuit(seed, wide_kind, wide_fanin):
    """A random sequential circuit plus three observed gates that stress
    the per-word re-evaluation of pin forces: ``dup`` reads one net on
    both pins, ``wide`` has ``wide_fanin`` (> 64) pins drawn with
    repetition, and ``mux`` selects by a flip-flop (X until it is
    initialised) between two copies of one input, so its consensus
    term decides the output."""
    base = random_circuit("sparse", 4, 4, 40, seed=seed)
    rng = random.Random(seed)
    nets = list(base.inputs) + [f.q for f in base.flops] + \
        [g.output for g in base.gates]
    extra = [
        Gate("dup", rng.choice(("AND", "NAND", "OR", "NOR", "XOR", "XNOR")),
             (nets[0], nets[0])),
        Gate("wide", wide_kind,
             tuple(rng.choice(nets) for _ in range(wide_fanin))),
        Gate("mux", "MUX", (base.flops[0].q, base.inputs[1],
                            base.inputs[1])),
    ]
    return Circuit(base.name, base.inputs,
                   list(base.outputs) + ["dup", "wide", "mux"],
                   list(base.gates) + extra, base.flops)


def _sparse_fault_list(circuit, seed):
    """Every fault of the universe, shuffled, with the faults on
    ``mux``'s pins moved into word 0 (beside the fault-free machine) and
    both branch faults of ``dup``'s two pins (on the same net) into
    one plane word."""
    from repro.faults import enumerate_faults

    faults = enumerate_faults(circuit)
    random.Random(seed).shuffle(faults)
    dup_pins = [f for f in faults if f.consumer == "dup"]
    assert {f.pin for f in dup_pins} == {0, 1}
    mux_pins = [f for f in faults if f.consumer == "mux"]
    rest = mux_pins + [f for f in faults
                       if f.consumer not in ("dup", "mux")]
    return rest[:74] + dup_pins + rest[74:]


def _state_ints(token):
    """A vector state token as the packed simulator's ``(ones, zeros)``
    int pairs."""
    state, time = token
    raw = state.astype("<u8").tobytes()
    wb = state.shape[2] * 8
    ints = [int.from_bytes(raw[i:i + wb], "little")
            for i in range(0, len(raw), wb)]
    return list(zip(ints[::2], ints[1::2])), time


@requires_vector
@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    wide_kind=st.sampled_from(["AND", "NAND", "OR", "NOR", "XOR", "XNOR"]),
    wide_fanin=st.integers(65, 90),
    x_rate=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_sparse_forces_match_packed(seed, wide_kind, wide_fanin, x_rate):
    """Force records patch single words: at W >= 3, with X inputs, two
    pin faults of one net sharing a word and a > 64-pin gate, step
    masks, ``run`` detection order and state tokens (also projected
    onto a narrower packing) equal packed."""
    circuit = _force_record_circuit(seed, wide_kind, wide_fanin)
    faults = _sparse_fault_list(circuit, seed)
    rng = random.Random(seed)
    vectors = [tuple(2 if rng.random() < x_rate else rng.randint(0, 1)
                     for _ in circuit.inputs) for _ in range(24)]
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    assert vector.W >= 3
    dup_bits = {(i + 1) >> 6 for i, f in enumerate(faults)
                if f.consumer == "dup"}
    assert len(dup_bits) == 1
    packed.reset()
    vector.reset()
    for vec in vectors:
        assert vector.step(vec) == packed.step(vec)
        assert _state_ints(vector.save_state()) == packed.save_state()
        assert vector.detecting_outputs(vector.fault_mask) == \
            packed.detecting_outputs(packed.fault_mask)
    kept = [0] + sorted(rng.sample(range(1, len(faults) + 1),
                                   len(faults) // 3))
    assert _state_ints(vector.remap_state_token(
        vector.save_state(), kept)) == \
        packed.remap_state_token(packed.save_state(), kept)
    for early_stop in (False, True):
        ref = PackedFaultSimulator(circuit, faults).run(
            vectors, stop_when_all_detected=early_stop)
        got = _vector_sim(circuit, faults).run(
            vectors, stop_when_all_detected=early_stop)
        assert list(got.detection_time.items()) == \
            list(ref.detection_time.items())
        assert got.num_vectors == ref.num_vectors


@requires_vector
def test_force_storage_is_linear_in_faults():
    """One record per (site, word) a site touches, plus one end record
    per site: no per-site row scales with the plane width."""
    from repro.sim.fault_sim import compiled_topology, group_fault_sites

    circuit = CIRCUITS["scan_mid"]()
    faults = collapse_faults(circuit) * 4  # a multi-word packing
    vector = _vector_sim(circuit, faults)
    assert vector.W >= 4
    stem, branch = group_fault_sites(faults,
                                     compiled_topology(circuit).index)
    sites = len(stem) + len(branch)
    assert vector._records.nbytes <= 24 * (len(faults) + sites)


# -- SimSession: checkpoints, drops, repacks ---------------------------------


@requires_vector
def test_session_checkpoint_drop_repack_parity(circuit):
    """A mixed session workload (prefix re-queries, edits, drops that
    trigger repacks) answers bit-identically on both backends."""
    faults = collapse_faults(circuit)
    rng = random.Random(42)
    vectors = random_vectors(circuit, 24, seed=13)
    edited = [list(v) for v in vectors]
    edited[10] = [1 - v for v in edited[10]]

    def drive(name):
        session = SimSession(circuit, faults, sim_backend=name)
        answers = [session.detection_times(vectors)]
        answers.append(session.detection_times(vectors[:12]))
        detected = session.detected_mask(vectors)
        # Drop roughly half the detected faults to force a repack.
        half = 0
        for fault in session.faults_of(detected)[::2]:
            half |= session.mask_of([fault])
        session.drop(half)
        answers.append(session.detection_times(edited))
        session.restore_dropped()
        answers.append(session.detection_times(vectors))
        stats = session.close()
        return answers, stats["faults_dropped"]

    packed_answers, packed_dropped = drive(BACKEND_PACKED)
    vector_answers, vector_dropped = drive(BACKEND_VECTOR)
    assert vector_answers == packed_answers
    assert vector_dropped == packed_dropped


def test_session_pins_concrete_backend():
    """auto resolves once at construction; repacks reuse the pinned
    class so state-token formats never switch mid-session."""
    circuit = CIRCUITS["scan_mid"]()
    faults = collapse_faults(circuit)
    session = SimSession(circuit, faults)
    assert session.sim_backend in BACKEND_NAMES
    expected = resolve_concrete_backend(None, len(faults))
    assert session.sim_backend == expected
    assert type(session._sim).backend_name == expected


# -- parallel engine: serial-vs-vector, jobs in {1, 2} -----------------------


@requires_vector
def test_parallel_jobs_bit_identical_across_backends():
    """Acceptance criterion: serial-vs-vector and jobs in {1, 2}
    detection maps are bit-identical."""
    circuit = CIRCUITS["scan_mid"]()
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 24, seed=17)
    serial_packed = PackedFaultSimulator(circuit, faults).run(
        [list(v) for v in vectors])
    for name in (BACKEND_PACKED, BACKEND_VECTOR):
        for jobs in (1, 2):
            with ParallelFaultSim(
                circuit, faults, jobs=jobs, min_parallel_faults=1,
                sim_backend=name,
            ) as engine:
                par = engine.run(vectors)
            assert par.detection_time == serial_packed.detection_time
            assert list(par.detection_time) == \
                list(serial_packed.detection_time)
            assert par.num_vectors == serial_packed.num_vectors


# -- selection: observed, never configured -----------------------------------


def test_resolve_concrete_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown sim backend"):
        resolve_concrete_backend("gpu", 10)
    assert resolve_concrete_backend(BACKEND_PACKED, 10_000) == BACKEND_PACKED


def test_auto_keeps_small_fault_lists_packed():
    assert resolve_concrete_backend(
        BACKEND_AUTO, AUTO_MIN_FAULTS - 1) == BACKEND_PACKED


@requires_vector
def test_auto_picks_vector_for_large_fault_lists():
    assert resolve_concrete_backend(
        BACKEND_AUTO, AUTO_MIN_FAULTS) == BACKEND_VECTOR


@requires_vector
def test_auto_picks_vector_for_big_circuits():
    """Single-fault minis on a big circuit go vector: the packed Python
    step costs milliseconds at 10k gates while the kernel program is
    fingerprint-cached on the circuit."""
    from repro.sim.backend import AUTO_MIN_GATES

    assert resolve_concrete_backend(
        BACKEND_AUTO, 1, AUTO_MIN_GATES) == BACKEND_VECTOR
    assert resolve_concrete_backend(
        BACKEND_AUTO, 1, AUTO_MIN_GATES - 1) == BACKEND_PACKED


@requires_vector
@pytest.mark.parametrize("num_faults", [1, 40, 63, 64, 150])
def test_flop_state_queries_match_packed(num_faults):
    """``ff_effect_masks`` / ``machine_state`` read the planes in one
    conversion; they must equal the packed reference at W=1 (up to 63
    faults) and at multi-word widths, after per-machine loads and
    after stepping."""
    circuit = insert_scan(random_circuit("ffq", 4, 9, 60, seed=5)).circuit
    faults = collapse_faults(circuit)[:num_faults]
    packed = PackedFaultSimulator(circuit, faults)
    vector = _vector_sim(circuit, faults)
    assert vector.W == (len(faults) + 64) // 64
    rng = random.Random(num_faults)
    states = [tuple(rng.choice((0, 1, 2)) for _ in circuit.flops)
              for _ in range(len(faults) + 1)]
    packed.load_machine_states(states)
    vector.load_machine_states(states)
    for vec in [None] + random_vectors(circuit, 6, seed=num_faults):
        if vec is not None:
            assert vector.step(vec) == packed.step(vec)
        assert vector.ff_effect_masks() == packed.ff_effect_masks()
        for machine in (0, 1, len(faults) // 2, len(faults)):
            assert vector.machine_state(machine) == \
                packed.machine_state(machine)


def test_kernel_cache_is_keyed_by_cpu(monkeypatch, tmp_path):
    """A cache shared between hosts never serves a ``-march=native``
    build to another CPU: a changed CPU identity yields a different
    library path, and a cached build loads without starting a
    compiler."""
    pytest.importorskip("numpy")  # the kernel module itself needs it
    import platform

    from repro.sim import kernel

    assert kernel._cpu_identity().split("\n")[0] == platform.machine()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))

    def no_compiler(*args, **kwargs):
        raise AssertionError("a compiler started on the load path")

    monkeypatch.setattr(kernel.subprocess, "run", no_compiler)
    paths = []
    for cpu in ("x86_64\nflags:sse2 avx2", "x86_64\nflags:sse2 avx512f"):
        monkeypatch.setattr(kernel, "_cpu_identity", lambda cpu=cpu: cpu)
        path = os.path.join(kernel._cache_dir(), kernel._kernel_so_name(cpu))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "wb").close()
        assert kernel._compile_kernel_library() == path
        paths.append(path)
    assert paths[0] != paths[1]


@requires_vector
def test_c_step_rejects_short_vectors():
    """The C step reads one byte per primary input: a short vector must
    raise instead of reading past its buffer."""
    circuit = s27()
    sim = _vector_sim(circuit, collapse_faults(circuit)[:1])
    with pytest.raises(ValueError, match="primary inputs"):
        sim.step((0,) * (circuit.num_inputs - 1))
    sim.step((0,) * circuit.num_inputs)


@requires_vector
def test_seq_atpg_auto_minis_bit_identical_to_packed():
    """On s386 (123 scan gates, above ``AUTO_MIN_GATES``) ``auto`` runs
    the beam-search minis on the kernel; sequences, detection times and
    aborts must equal an all-packed run."""
    from repro.atpg import SequentialATPG
    from repro.experiments import suite
    from repro.sim.backend import AUTO_MIN_GATES

    circuit = insert_scan(suite.build_circuit("s386")).circuit
    assert circuit.num_gates >= AUTO_MIN_GATES
    faults = collapse_faults(circuit)
    config = suite.atpg_config_for("s386")
    results = {}
    for name, factory in ((BACKEND_PACKED, PackedFaultSimulator),
                          (BACKEND_AUTO, None)):
        with obs.session() as telemetry:
            results[name] = SequentialATPG(
                circuit, faults, config=config,
                simulator_factory=factory).generate()
        counters = telemetry.metrics.snapshot()["counters"]
        if name == BACKEND_AUTO:
            # the global simulator plus at least one mini per target
            assert counters["faultsim.backend.vector"] > 1
            assert "faultsim.backend.packed" not in counters
        else:
            # the factory builds simulators directly: no backend builds
            assert "faultsim.backend.vector" not in counters
    packed, auto = results[BACKEND_PACKED], results[BACKEND_AUTO]
    assert auto.sequence.vectors == packed.sequence.vectors
    assert auto.detection_time == packed.detection_time
    assert list(auto.detection_time) == list(packed.detection_time)
    assert auto.aborted == packed.aborted


def test_auto_degrades_without_numpy(monkeypatch):
    monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
    assert resolve_concrete_backend(BACKEND_AUTO, 10_000) == BACKEND_PACKED


def test_auto_runs_packed_without_c_library(monkeypatch):
    """No C compiler: ``auto`` builds only packed simulators and the
    flow's result is bit-identical to the one with the kernel."""
    pytest.importorskip("numpy")  # the kernel module itself needs it
    from repro.sim import kernel

    def outcome(flow):
        return (flow.omitted.sequence.vectors, flow.fault_coverage,
                flow.raw.vectors, flow.untestable)

    with obs.session() as telemetry:
        reference = generation_flow(s27(), FlowConfig(seed=1))
    expected = outcome(reference)
    if vector_available():  # else both runs are packed-only anyway
        assert telemetry.metrics.snapshot()["counters"][
            "faultsim.backend.vector"] > 0
    monkeypatch.setattr(kernel, "load_kernel_library", lambda: None)
    assert resolve_concrete_backend(None, 10_000, 10_000) == BACKEND_PACKED
    with pytest.raises(RuntimeError, match="C compiler"):
        kernel.VectorFaultSimulator(s27(), collapse_faults(s27()))
    with obs.session() as telemetry_no_c:
        flow = generation_flow(s27(), FlowConfig(seed=1))
    counters = telemetry_no_c.metrics.snapshot()["counters"]
    assert counters["faultsim.backend.packed"] > 0
    assert "faultsim.backend.vector" not in counters
    assert outcome(flow) == expected


def test_explicit_vector_without_numpy_raises(monkeypatch):
    monkeypatch.setattr(backend_mod, "numpy_available", lambda: False)
    circuit = s27()
    faults = collapse_faults(circuit)
    with pytest.raises(RuntimeError, match="requires numpy"):
        make_backend(circuit, faults, BACKEND_VECTOR)


def test_make_backend_protocol_conformance():
    circuit = s27()
    faults = collapse_faults(circuit)
    sim = make_backend(circuit, faults, BACKEND_PACKED)
    assert isinstance(sim, SimBackend)
    assert type(sim).backend_name == BACKEND_PACKED
    if vector_available():
        vec = make_backend(CIRCUITS["scan_mid"](),
                           collapse_faults(CIRCUITS["scan_mid"]()),
                           BACKEND_VECTOR)
        assert isinstance(vec, SimBackend)
        assert type(vec).backend_name == BACKEND_VECTOR


# -- custom simulator factories ----------------------------------------------


def test_explicit_packed_factory_still_works():
    circuit = s27()
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 12, seed=1)
    session = SimSession(circuit, faults,
                         simulator_factory=PackedFaultSimulator)
    try:
        assert type(session._sim) is PackedFaultSimulator
        reference = SimSession(circuit, faults, sim_backend=BACKEND_PACKED)
        assert session.detection_times(vectors) == \
            reference.detection_times(vectors)
        reference.close()
    finally:
        session.close()


def test_custom_factory_passes_through_unwarned():
    calls = []

    def factory(circuit, faults):
        calls.append(len(faults))
        return PackedFaultSimulator(circuit, faults)

    circuit = s27()
    faults = collapse_faults(circuit)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        session = SimSession(circuit, faults, simulator_factory=factory)
    assert calls == [len(faults)]
    assert session.sim_backend is None  # custom factories are unnamed
    session.close()


# -- telemetry: the faultsim.backend signal ----------------------------------


def test_make_backend_emits_metrics_and_event():
    circuit = s27()
    faults = collapse_faults(circuit)
    with obs.session() as telemetry:
        make_backend(circuit, faults, BACKEND_PACKED)
        snapshot = telemetry.metrics.snapshot()
    assert snapshot["counters"]["faultsim.backend.packed"] == 1
    assert "faultsim.backend.compile_seconds" in snapshot["gauges"]
    assert "faultsim.backend.plane_bytes" in snapshot["gauges"]


# -- import hygiene: packed never pays for numpy -----------------------------


def test_packed_backend_never_imports_numpy():
    """Building the packed backend (and importing repro at all) must not
    drag numpy in — the no-numpy tier-1 job depends on it."""
    code = (
        "import sys\n"
        "from repro import make_backend, s27\n"
        "from repro.faults import collapse_faults\n"
        "c = s27()\n"
        "sim = make_backend(c, collapse_faults(c), 'packed')\n"
        "sim.run([tuple(0 for _ in c.inputs)] * 4)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert proc.returncode == 0, proc.stderr
