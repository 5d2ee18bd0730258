"""Tests for repro.parallel — planner, pool, merge, engine, integration.

The determinism tests are the heart: for any worker count, the parallel
engine must return results **bit-for-bit identical** to the serial
simulator — same detection sets, same detection cycles, same dict
order, and (at flow level) the same final compacted sequences.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro import FlowConfig, generation_flow, obs
from repro.circuit import s27
from repro.circuit.synth import random_circuit
from repro.cli import build_parser, main
from repro.faults import collapse_faults
from repro.obs import merge_journals, read_journal, worker_journal_path
from repro.obs.journal import RunJournal
from repro.parallel import (
    DEFAULT_MIN_PARALLEL_FAULTS,
    ParallelFaultSim,
    ResilientPool,
    ShardResult,
    costs_from_detection_times,
    merge_shard_results,
    plan_shards,
    resolve_jobs,
)
from repro.parallel.worker import CRASH_ONCE_ENV
from repro.sim import PackedFaultSimulator
from tests.util import random_vectors

CIRCUITS = {
    "s27": s27,
    "par_a": lambda: random_circuit(
        "par_a", num_inputs=4, num_flops=6, num_gates=40, seed=77),
    "par_b": lambda: random_circuit(
        "par_b", num_inputs=5, num_flops=5, num_gates=35, seed=123),
}


# -- planner -----------------------------------------------------------------


def test_plan_partitions_every_position():
    for strategy, costs in (("round_robin", None),
                            ("cost", [float(i % 7) for i in range(100)])):
        plan = plan_shards(100, 8, costs)
        assert plan.strategy == strategy
        seen = sorted(p for s in plan.shards for p in s.positions)
        assert seen == list(range(100))


def test_plan_round_robin_layout():
    plan = plan_shards(10, 3)
    assert [list(s.positions) for s in plan.shards] == [
        [0, 3, 6, 9], [1, 4, 7], [2, 5, 8]]


def test_plan_is_deterministic():
    costs = [((i * 37) % 11) + 1.0 for i in range(60)]
    a = plan_shards(60, 5, costs)
    b = plan_shards(60, 5, costs)
    assert [s.positions for s in a.shards] == [s.positions for s in b.shards]


def test_plan_cost_balances_heavy_tail():
    # One huge fault plus uniform rest: LPT puts the heavy one alone-ish.
    costs = [100.0] + [1.0] * 29
    plan = plan_shards(30, 3, costs)
    loads = sorted(sum(costs[p] for p in s.positions) for s in plan.shards)
    # Round-robin would load the heavy shard at 100 + 9; LPT keeps the
    # other two balanced around (29)/2.
    assert loads[-1] == pytest.approx(100.0)
    assert loads[0] >= 14.0


def test_costs_from_detection_times_orders_undetected_last():
    costs = costs_from_detection_times({0: 3, 2: 10}, 4)
    assert costs[2] > costs[0]          # later detection = more cycles
    assert costs[1] == costs[3] > costs[2]  # undetected cost the horizon


def test_resolve_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(0) == 1
    assert resolve_jobs(None) == 1
    assert resolve_jobs(6) == 6
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(0) == 3
    assert resolve_jobs(2) == 2         # explicit wins over env
    monkeypatch.setenv("REPRO_JOBS", "lots")
    with pytest.raises(ValueError):
        resolve_jobs(0)


# -- merge invariants --------------------------------------------------------


def _shard(index, positions, times, num_vectors=5):
    return ShardResult(shard_index=index, positions=tuple(positions),
                       times=dict(times), num_vectors=num_vectors)


def test_merge_rejects_double_coverage():
    faults = collapse_faults(s27())[:4]
    with pytest.raises(ValueError, match="simulated by shards"):
        merge_shard_results(faults, [_shard(0, [0, 1], {}),
                                     _shard(1, [1, 2, 3], {})])


def test_merge_rejects_missing_positions():
    faults = collapse_faults(s27())[:4]
    with pytest.raises(ValueError, match="never"):
        merge_shard_results(faults, [_shard(0, [0, 1], {})])


def test_merge_rebuilds_serial_dict_order():
    faults = collapse_faults(s27())[:6]
    merged = merge_shard_results(faults, [
        _shard(0, [0, 2, 4], {4: 1, 0: 3}),
        _shard(1, [1, 3, 5], {1: 1, 5: 2}, num_vectors=7),
    ])
    # Ascending (cycle, position): (1,1),(1,4),(2,5),(3,0).
    assert [faults.index(f) for f in merged.detection_time] == [1, 4, 5, 0]
    assert merged.num_vectors == 7


# -- engine determinism (the tentpole guarantee) -----------------------------


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_parallel_identical_to_serial(name):
    circuit = CIRCUITS[name]()
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 30, seed=9)
    serial = PackedFaultSimulator(circuit, faults).run(
        [list(v) for v in vectors])
    for jobs in (2, 3, 8):
        with ParallelFaultSim(
            circuit, faults, jobs=jobs, min_parallel_faults=1,
        ) as engine:
            par = engine.run(vectors)
        assert par.detection_time == serial.detection_time
        assert list(par.detection_time) == list(serial.detection_time)
        assert par.num_vectors == serial.num_vectors
        assert par.faults == serial.faults


def test_parallel_identical_with_cost_strategy_and_early_stop():
    circuit = CIRCUITS["par_a"]()
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 25, seed=4)
    serial = PackedFaultSimulator(circuit, faults).run(
        [list(v) for v in vectors], stop_when_all_detected=True)
    costs = costs_from_detection_times(
        {i: t for i, (f, t) in enumerate(serial.detection_time.items())},
        len(faults))
    with ParallelFaultSim(
        circuit, faults, jobs=3, costs=costs,
        min_parallel_faults=1,
    ) as engine:
        par = engine.run(vectors, stop_when_all_detected=True)
    assert par.detection_time == serial.detection_time
    assert list(par.detection_time) == list(serial.detection_time)
    assert par.num_vectors == serial.num_vectors


def test_small_universe_stays_serial():
    circuit = s27()
    faults = collapse_faults(circuit)
    sim = ParallelFaultSim(circuit, faults, jobs=4)  # default threshold
    assert len(faults) < DEFAULT_MIN_PARALLEL_FAULTS
    assert sim.effective_jobs(10) == 1


def test_crash_injected_worker_is_recovered(monkeypatch, tmp_path):
    """A worker killed hard mid-shard (os._exit) must not lose results:
    the pool rebuilds, resplits and the merge still matches serial."""
    marker = tmp_path / "crash.marker"
    monkeypatch.setenv(CRASH_ONCE_ENV, str(marker))
    circuit = CIRCUITS["par_b"]()
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 20, seed=2)
    with ParallelFaultSim(
        circuit, faults, jobs=2, min_parallel_faults=1,
    ) as engine:
        par = engine.run(vectors)
    assert marker.exists(), "the crash hook never fired"
    monkeypatch.delenv(CRASH_ONCE_ENV)
    serial = PackedFaultSimulator(circuit, faults).run(
        [list(v) for v in vectors])
    assert par.detection_time == serial.detection_time
    assert list(par.detection_time) == list(serial.detection_time)


# -- flow-level determinism ---------------------------------------------------


def test_flow_results_identical_across_job_counts():
    """jobs=2 routes the oracle's full-universe queries through the
    pool; the compacted sequences must not move by a single cycle."""
    circuit = random_circuit(
        "par_flow", num_inputs=4, num_flops=7, num_gates=45, seed=5)
    serial = generation_flow(circuit, FlowConfig(seed=3, jobs=1))
    parallel = generation_flow(circuit, FlowConfig(seed=3, jobs=2))
    assert len(collapse_faults(serial.scan_circuit.circuit)) > \
        DEFAULT_MIN_PARALLEL_FAULTS, "circuit too small to exercise the pool"
    assert parallel.detected_total == serial.detected_total
    assert parallel.fault_coverage == serial.fault_coverage
    assert parallel.restored_stats() == serial.restored_stats()
    assert parallel.omitted_stats() == serial.omitted_stats()
    assert [list(v) for v in parallel.omitted.sequence.vectors] == \
           [list(v) for v in serial.omitted.sequence.vectors]


def test_flow_config_jobs_validation():
    with pytest.raises(ValueError, match="jobs"):
        FlowConfig(jobs=-1)
    assert FlowConfig().jobs == 0
    assert FlowConfig(jobs=5).effective_jobs() == 5


def test_flow_config_effective_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert FlowConfig().effective_jobs() == 4
    assert FlowConfig(jobs=1).effective_jobs() == 1


# -- resilient pool ----------------------------------------------------------


def _double(x):
    return x * 2


def _fail_odd(x):
    if x % 2:
        raise ValueError(f"odd payload {x}")
    return x * 2


def _sleepy(x):
    time.sleep(1.5)
    return x


def _fallback_negate(x):
    return -x


def test_pool_runs_everything():
    pool = ResilientPool(_double, 2)
    assert sorted(pool.run(list(range(6)))) == [0, 2, 4, 6, 8, 10]


def test_pool_deterministic_error_surfaces_in_parent():
    pool = ResilientPool(_fail_odd, 2, max_retries=1, backoff=0.0)
    with pytest.raises(ValueError, match="odd payload"):
        pool.run([1, 2, 3])


def test_pool_serial_fallback_completes():
    pool = ResilientPool(_fail_odd, 2, max_retries=0, backoff=0.0,
                         serial_fn=_fallback_negate)
    assert sorted(pool.run([1, 2, 3])) == [-3, -1, 4]


def test_pool_timeout_requeues_to_fallback():
    pool = ResilientPool(_sleepy, 2, timeout=0.2, max_retries=0,
                         backoff=0.0, serial_fn=_fallback_negate)
    start = time.monotonic()
    assert sorted(pool.run([1, 2])) == [-2, -1]
    assert time.monotonic() - start < 10.0


def test_pool_rejects_zero_jobs():
    with pytest.raises(ValueError):
        ResilientPool(_double, 0)


def test_pool_stats_idle_and_after_run():
    from repro.parallel import PoolStats

    pool = ResilientPool(_double, 2, persistent=True)
    try:
        idle = pool.stats()
        assert isinstance(idle, PoolStats)
        assert (idle.workers, idle.busy, idle.pending) == (0, 0, 0)
        pool.run(list(range(4)))
        after = pool.stats()
        assert after.workers >= 1       # persistent pool keeps processes
        assert after.busy == 0 and after.pending == 0
        assert after.as_dict() == {"workers": after.workers, "busy": 0,
                                   "pending": 0}
    finally:
        pool.close()
    assert pool.stats().workers == 0    # close() released the executor


def test_pool_stats_exports_gauges():
    with obs.session() as telemetry:
        pool = ResilientPool(_double, 2, label="parallel.pool")
        pool.run([1, 2, 3])
        pool.stats()
        gauges = telemetry.metrics.snapshot()["gauges"]
    assert "parallel.pool.workers" in gauges
    assert "parallel.pool.busy" in gauges
    assert "parallel.pool.pending" in gauges


# -- journal merge (satellite: concurrency fix) -------------------------------


def test_worker_journal_path_convention(tmp_path):
    base = tmp_path / "run.jsonl"
    assert worker_journal_path(base, 4711).name == "run.jsonl.w4711"


def _write_journal(path, events):
    journal = RunJournal(path)
    for kind, data in events:
        journal.emit(kind, **data)
    journal.close()


def test_merge_journals_roundtrip(tmp_path):
    base = tmp_path / "run.jsonl"
    a = worker_journal_path(base, 1)
    b = worker_journal_path(base, 2)
    _write_journal(a, [("parallel.shard", {"shard": 0})])
    _write_journal(b, [("parallel.shard", {"shard": 1}),
                       ("parallel.shard", {"shard": 2})])
    merged = merge_journals([a, b], out=tmp_path / "merged.jsonl")
    assert read_journal(tmp_path / "merged.jsonl") == merged
    assert merged[0]["type"] == "journal.open"
    assert merged[0]["src"] == "merge"
    assert sorted(merged[0]["data"]["sources"]) == ["w1", "w2"]
    shards = [e["data"]["shard"] for e in merged
              if e["type"] == "parallel.shard"]
    assert sorted(shards) == [0, 1, 2]
    # Per-source relative order survives the interleave.
    b_events = [e for e in merged if e.get("src") == "w2"]
    assert [e["seq"] for e in b_events] == sorted(e["seq"] for e in b_events)


def test_read_journal_validates_per_source_seq(tmp_path):
    base = tmp_path / "run.jsonl"
    a = worker_journal_path(base, 1)
    b = worker_journal_path(base, 2)
    _write_journal(a, [("x", {})])
    _write_journal(b, [("y", {})])
    merged = merge_journals([a, b], out=tmp_path / "merged.jsonl")
    # Tamper: open a seq gap inside one source only.
    lines = (tmp_path / "merged.jsonl").read_text().splitlines()
    tampered = []
    for line in lines:
        event = json.loads(line)
        if event.get("src") == "w2" and event["seq"] == 2:
            event["seq"] = 5
        tampered.append(json.dumps(event))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(tampered) + "\n")
    with pytest.raises(ValueError, match="seq gap in source 'w2'"):
        read_journal(bad)
    assert len(merged) == len(lines)


def test_merge_journals_rejects_empty_input():
    with pytest.raises(ValueError):
        merge_journals([])


def test_parallel_run_merges_worker_journals_into_trace(tmp_path):
    circuit = CIRCUITS["par_a"]()
    faults = collapse_faults(circuit)
    vectors = random_vectors(circuit, 15, seed=1)
    trace = tmp_path / "run.jsonl"
    with obs.session(trace=str(trace)):
        with ParallelFaultSim(
            circuit, faults, jobs=2, min_parallel_faults=1,
        ) as engine:
            engine.run(vectors)
    events = read_journal(trace)
    kinds = {e["type"] for e in events}
    assert "parallel.merge" in kinds
    worker_events = [e for e in events
                     if e["type"] == "parallel.worker.event"]
    assert {e["data"]["inner"] for e in worker_events} >= {
        "parallel.worker.start", "parallel.shard"}


# -- CLI ---------------------------------------------------------------------


def test_cli_jobs_flag_parses():
    args = build_parser().parse_args(["generate", "s27", "--jobs", "3"])
    assert args.jobs == 3
    args = build_parser().parse_args(["table", "5", "--jobs", "2"])
    assert args.jobs == 2
    args = build_parser().parse_args(["report", "--jobs", "2"])
    assert args.jobs == 2


def test_cli_generate_with_jobs_matches_serial(capsys):
    assert main(["generate", "s27", "--jobs", "2"]) == 0
    with_jobs = capsys.readouterr().out
    assert main(["generate", "s27"]) == 0
    assert capsys.readouterr().out == with_jobs


# -- diff-metrics added/removed reporting (satellite) -------------------------


def test_render_diff_reports_added_and_removed_keys():
    from repro.obs import diff_metrics, render_diff

    old = {"counters": {"kept": 1, "dropped": 2}, "gauges": {},
           "histograms": {}, "spans": []}
    new = {"counters": {"kept": 1, "added.one": 5, "added.two": 6},
           "gauges": {}, "histograms": {}, "spans": []}
    text = render_diff(diff_metrics(old, new))
    assert "2 metric(s) only in the new artifact: added.one, added.two" \
        in text
    assert "1 metric(s) only in the old artifact: dropped" in text


def test_render_diff_key_churn_not_truncated_by_top():
    from repro.obs import diff_metrics, render_diff

    old = {"counters": {"a": 1}, "gauges": {}, "histograms": {}, "spans": []}
    new = {"counters": {"b": 1, "c": 2}, "gauges": {}, "histograms": {},
           "spans": []}
    text = render_diff(diff_metrics(old, new), top=1)
    assert "only in the new artifact: b, c" in text
    assert "only in the old artifact: a" in text
