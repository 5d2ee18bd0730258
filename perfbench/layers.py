"""Per-layer metrics of a ``--trace 1`` run.

Seconds are host seconds inside one traced pass (every circuit of the
workload once, or one serve pass), plus, for ``circuit.build_s``,
``faults.collapse_s``, ``atpg.baseline_s`` and ``sim.kernel.compile_s``,
the median set-up.  Counts come from the tracer's spans and from the
``repro.obs`` counters of the session the traced pass runs in.  A
metric of a layer the workload does not exercise reads 0.
README.md lists which end-to-end metric each should move, and where.
"""

from __future__ import annotations

from typing import Dict

from passes import ServeRun, percentile
from tracer import NAME, NOTE, PARENT

UNITS: Dict[str, str] = {
    "circuit.build_s": "s", "faults.collapse_s": "s",
    "atpg.podem.calls": "count", "atpg.podem.self_s": "s",
    "atpg.podem.backtracks": "count", "atpg.podem.untestable_ratio": "ratio",
    "atpg.seq.self_s": "s", "atpg.baseline_s": "s",
    "core.scan_aware.self_s": "s", "core.translate_s": "s",
    "sim.packed.steps": "count", "sim.packed.self_s": "s",
    "sim.vector.steps": "count", "sim.vector.self_s": "s",
    "sim.vector.machine_cycles_per_s": "1/s", "sim.kernel.compile_s": "s",
    "sim.session.cycles": "count", "sim.session.checkpoint_hit_ratio": "ratio",
    "sim.session.repacks": "count",
    "compaction.restoration_s": "s", "compaction.omission_s": "s",
    "compaction.omission.trials": "count",
    "compaction.omission.success_ratio": "ratio",
    "compaction.cycles_per_trial": "cycles",
    "parallel.run_s": "s", "parallel.shard_max_s": "s",
    "parallel.shard_imbalance": "ratio", "parallel.retries": "count",
    "parallel.serial_fallbacks": "count",
    "cache.get_s": "s", "cache.put_s": "s", "cache.hit_ratio": "ratio",
    "cache.bytes_written": "bytes",
    "serve.admit_s": "s", "serve.queue_wait_s": "s", "serve.execute_s": "s",
    "serve.dedup_ratio": "ratio", "serve.rejected": "count",
    "serve.novel_p50_s": "s", "serve.replay_p50_ms": "ms",
    "serve.replay_p90_ms": "ms", "serve.replay_samples": "count",
    "obs.trace_overhead_pct": "%",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(run, tracer, telemetry, phases) -> Dict[str, float]:
    count = telemetry.metrics.snapshot()["counters"].get

    def leaf(name, field):
        return tracer.leaves[name][field] if name in tracer.leaves else 0

    podem = tracer.named("atpg.podem")
    # PODEM called straight from the flow (not from inside generation)
    # is the redundancy pass: each call is one untestability proof.
    proofs = [s for s in podem
              if s[PARENT] is not None and s[PARENT][NAME] == "flow"]
    omission = tracer.named("compaction.omission")
    trials = count("compaction.omission.attempts", 0)
    parallel = tracer.named("parallel.run")
    nested = {id(s[PARENT]) for s in parallel
              if s[PARENT] is not None and s[PARENT][NAME] == "parallel.run"}
    shards = [s[NOTE] for s in parallel if id(s) not in nested and s[NOTE]]
    shard_max = sum(n["shard_max_s"] for n in shards)
    shard_mean = sum(n["shard_mean_s"] for n in shards)
    gets = tracer.outermost("cache.get")
    hits = count("faultsim.session.checkpoint_hits", 0)
    misses = count("faultsim.session.checkpoint_misses", 0)
    vector_s = leaf("sim.vector", 1)

    metrics = {
        "circuit.build_s": phases["circuit.build_s"]
        + tracer.total_seconds("circuit.insert_scan"),
        "faults.collapse_s": phases["faults.collapse_s"]
        + tracer.total_seconds("faults.collapse"),
        "atpg.podem.calls": len(podem),
        "atpg.podem.self_s": tracer.self_seconds("atpg.podem"),
        "atpg.podem.backtracks": count("atpg.backtracks", 0),
        "atpg.podem.untestable_ratio": _ratio(
            sum(1 for s in proofs if s[NOTE]["untestable"]), len(proofs)),
        "atpg.seq.self_s": tracer.self_seconds("atpg.seq"),
        "atpg.baseline_s": phases.get("atpg.baseline_s", 0.0)
        + tracer.total_seconds("atpg.baseline"),
        "core.scan_aware.self_s": tracer.self_seconds("core.scan_aware"),
        "core.translate_s": tracer.total_seconds("core.translate"),
        "sim.packed.steps": leaf("sim.packed", 2),
        "sim.packed.self_s": leaf("sim.packed", 1),
        "sim.vector.steps": leaf("sim.vector", 2),
        "sim.vector.self_s": vector_s,
        "sim.vector.machine_cycles_per_s": _ratio(leaf("sim.vector", 3),
                                                  vector_s),
        "sim.kernel.compile_s": phases["sim.kernel.compile_s"],
        "sim.session.cycles": count("faultsim.session.cycles", 0),
        "sim.session.checkpoint_hit_ratio": _ratio(hits, hits + misses),
        "sim.session.repacks": count("faultsim.session.repacks", 0),
        "compaction.restoration_s": tracer.total_seconds(
            "compaction.restoration"),
        "compaction.omission_s": tracer.total_seconds("compaction.omission"),
        "compaction.omission.trials": trials,
        "compaction.omission.success_ratio": _ratio(
            count("compaction.omission.successes", 0), trials),
        "compaction.cycles_per_trial": _ratio(
            sum(s[NOTE]["session_cycles"] for s in omission if s[NOTE]),
            trials),
        "parallel.run_s": tracer.total_seconds("parallel.run"),
        "parallel.shard_max_s": shard_max,
        "parallel.shard_imbalance": _ratio(shard_max, shard_mean),
        "parallel.retries": count("parallel.pool.requeues", 0),
        "parallel.serial_fallbacks": count("parallel.pool.serial_fallbacks",
                                           0),
        "cache.get_s": tracer.total_seconds("cache.get"),
        "cache.put_s": tracer.total_seconds("cache.put"),
        "cache.hit_ratio": _ratio(sum(1 for s in gets if s[NOTE]["hit"]),
                                  len(gets)),
        "cache.bytes_written": count("cache.bytes", 0),
        "serve.admit_s": tracer.total_seconds("serve.admit"),
        "serve.queue_wait_s": 0.0,
        "serve.execute_s": 0.0,
        "serve.dedup_ratio": 0.0,
        "serve.rejected": count("serve.rejected", 0),
        "serve.novel_p50_s": 0.0,
        "serve.replay_p50_ms": 0.0,
        "serve.replay_p90_ms": 0.0,
        "serve.replay_samples": 0,
        "obs.trace_overhead_pct": 100.0 * (run.traced_rel / run.wall_rel
                                           - 1.0),
    }
    if isinstance(run, ServeRun):
        metrics.update(_serve_metrics(run))
        metrics["cache.bytes_written"] += sum(
            a["worker_cache_bytes"] or 0 for a in run.traced_pass.answers
            if a["source"] == "new")
    return metrics


def _serve_metrics(run: ServeRun) -> Dict[str, float]:
    """Job-level numbers the daemon reports back, and the latency
    percentiles of the untraced passes (tracing would inflate them)."""
    answers = run.traced_pass.answers
    executed = [a for a in answers
                if a["source"] == "new" and a["execute_s"] is not None]
    novel, replay = run.latencies()
    return {
        # the worker's own elapsed_seconds for each executed job
        "serve.execute_s": sum(a["execute_s"] for a in executed),
        # submit-to-answer time an executed job spent outside its worker
        "serve.queue_wait_s": sum(a["latency_s"] - a["execute_s"]
                                  for a in executed),
        "serve.dedup_ratio": 1.0 - len(executed) / len(answers),
        "serve.novel_p50_s": percentile(novel, 0.5) or 0.0,
        "serve.replay_p50_ms": 1e3 * (percentile(replay, 0.5) or 0.0),
        "serve.replay_p90_ms": 1e3 * (percentile(replay, 0.9) or 0.0),
        "serve.replay_samples": len(replay),
    }
