"""Timed passes of each workload, the host-speed sampler, and the one
traced pass of a ``--trace 1`` run.

Shared hosts drift: the same pure-Python loop runs 20-60% slower for
seconds to minutes at a time when neighbours are busy.  Raw seconds are
therefore printed but not gated; the gated ``wall_rel`` divides every
flow or pass by the median time of a fixed reference loop that a
``SIGALRM`` sampler runs every ``SAMPLE_PERIOD_S`` *during* it, so the
ratio measures work done rather than how fast the host ran meanwhile.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import random
import resource
import signal
import statistics
import time
import traceback
from typing import Dict, List

#: The reference loop: ~2.5 ms of interpreter work on a 2.1 GHz core,
#: run every SAMPLE_PERIOD_S (about 2.5% of the measured time).
REFERENCE_ITERATIONS = 30_000
SAMPLE_PERIOD_S = 0.1
#: The loop's time on an idle vCPU (2.1 GHz) of the 2-vCPU host the
#: bounds in BENCHMARK.json were set on; ``setup_s`` is rescaled to it.
REFERENCE_NOMINAL_S = 0.0025


def percentile(samples, fraction):
    """Nearest-rank percentile, or ``None`` unless at least ten samples
    lie beyond it."""
    ordered = sorted(samples)
    if len(ordered) * (1 - fraction) < 10:
        return None
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (set-ups, fault-shard and serve workers), so far."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reference_seconds(clock=time.perf_counter) -> float:
    start = clock()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return clock() - start


class SpeedSampler:
    """Times the reference loop every ``SAMPLE_PERIOD_S`` of wall time
    while the block runs (and once at each end).  Signals reach only the
    main thread, and forked workers inherit no interval timer.

    ``clock`` is wall time for the single-threaded flows, so the samples
    slow down exactly when the flow is preempted too; a multi-threaded
    process passes ``time.thread_time``, so the samples do not count
    the waits for the interpreter lock that its other threads cause.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock

    def __enter__(self) -> "SpeedSampler":
        self.samples: List[float] = [reference_seconds(self.clock)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(reference_seconds(self.clock))

    def _tick(self, _signum, _frame) -> None:
        self.samples.append(reference_seconds(self.clock))

    def relative(self, seconds: float) -> float:
        """``seconds`` in units of the reference loop's median time."""
        return seconds / statistics.median(self.samples)


class FlowRun:
    """Untraced runs of a flow workload plus an optional traced pass."""

    def __init__(self, workload: str, products: Dict, seed: int):
        import workloads

        self.w = workloads
        self.workload = workload
        self.products = products
        self.order = list(workloads.flow_circuits(workload))
        random.Random(seed).shuffle(self.order)
        baselines = products["baselines"]
        # One pickled (circuit, baseline) per flow: every run unpickles a
        # fresh copy, so nothing a flow caches on its circuit carries
        # over to the next run.
        self.blobs = {name: pickle.dumps((products["circuits"][name],
                                          baselines.get(name)))
                      for name in self.order}
        self.seconds: Dict[str, List[float]] = {n: [] for n in self.order}
        self.rel: Dict[str, List[float]] = {n: [] for n in self.order}
        self.outputs: Dict[str, List[Dict]] = {n: [] for n in self.order}
        self.attempted = 0
        self.failed = 0
        self.traced_rel = None
        self.peak_rss_mb = None

    def __enter__(self) -> "FlowRun":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def _one(self, name: str, tracer=None):
        """Run one flow; returns (seconds, relative) or ``None``."""
        circuit, baseline = pickle.loads(self.blobs[name])
        self.attempted += 1
        args = (self.workload, name, circuit, baseline)
        try:
            with SpeedSampler() as speed:
                start = time.perf_counter()
                if tracer is None:
                    result = self.w.run_flow(*args)
                else:
                    tracer.run_id = f"{self.workload}:{name}"
                    result = tracer.call("flow", self.w.run_flow, args, {})
                elapsed = time.perf_counter() - start
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        self.outputs[name].append(self.w.flow_outputs(self.workload, result))
        return elapsed, speed.relative(elapsed)

    def measure(self, seconds: float) -> None:
        """Round-robin over the circuits in seeded order: every circuit
        runs once, then more runs while the next one is expected to end
        inside the window."""
        start = time.perf_counter()
        for index, name in enumerate(itertools.cycle(self.order)):
            if index >= len(self.order) and \
                    time.perf_counter() - start + self.seconds[name][-1] \
                    > seconds:
                return
            timing = self._one(name)
            if timing is None:
                return
            self.seconds[name].append(timing[0])
            self.rel[name].append(timing[1])
            if index == len(self.order) - 1:
                # After one pass: how many more runs fit the window
                # depends on the host's speed, and each adds heap.
                self.peak_rss_mb = peak_rss_mb()

    def traced(self):
        import tracer as tracing
        from repro import obs

        tracer = tracing.Tracer()
        total = 0.0
        with obs.session() as telemetry:
            patches = tracing.install(tracer)
            try:
                for name in self.order:
                    timing = self._one(name, tracer)
                    if timing is None:
                        return None
                    total += timing[1]
            finally:
                tracing.uninstall(patches)
        self.traced_rel = total
        return tracer, telemetry

    @property
    def wall_rel(self) -> float:
        return sum(statistics.median(r) for r in self.rel.values())

    def end_to_end(self) -> Dict[str, float]:
        outputs = [runs[0] for runs in self.outputs.values()]
        detected = sum(len(o["reported"]) for o in outputs)
        faults = sum(len(o["faults"]) for o in outputs)
        return {
            "wall_rel": self.wall_rel,
            "test_cycles": sum(len(o["final"]) for o in outputs),
            "fault_coverage_pct": 100.0 * detected / faults,
        }

    def check(self) -> List[str]:
        import checks

        if self.failed or any(not runs for runs in self.outputs.values()):
            return ["a flow raised"]
        return checks.check_flows(self.outputs, self.products)

    def describe(self) -> List[str]:
        lines = [f"  {name}: runs={len(s)} median {statistics.median(s):.3f} s"
                 f" = {statistics.median(self.rel[name]):.1f} ref"
                 for name, s in self.seconds.items() if s]
        if all(self.seconds.values()):
            wall = sum(statistics.median(s) for s in self.seconds.values())
            lines.append(f"  host seconds per pass (not gated): {wall:.4f} s,"
                         f" {len(self.order) / wall:.4f} flows/s")
        return lines


class ServeRun:
    """Passes of ``serve_mixed`` on one daemon, each as a new tenant;
    the first only warms the process up (lazy imports, worker forks) and
    is checked but not timed."""

    def __init__(self, products: Dict, seed: int, work: str):
        import workloads

        self.w = workloads
        self.products = products
        self.seed = seed
        self.daemon = workloads.ServeDaemon(
            os.path.join(work, "serve"),
            workloads.serve_benches(products["circuits"]))
        self.passes = []
        self.rel: List[float] = []
        self.traced_pass = None
        self.traced_rel = None
        self.peak_rss_mb = None

    def __enter__(self) -> "ServeRun":
        self.daemon.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self.daemon.__exit__(*exc)
        # Once the daemon's workers have exited, so they count.
        self.peak_rss_mb = peak_rss_mb()

    def _pass(self):
        number = len(self.passes) + (self.traced_pass is not None)
        schedule = self.w.serve_schedule(self.seed, number)
        with SpeedSampler(time.thread_time) as speed:
            run = self.daemon.run_pass(f"pass{number}", schedule)
        return run, speed.relative(run.seconds)

    def measure(self, seconds: float) -> None:
        start = time.perf_counter()
        last = 0.0
        while len(self.passes) < 2 or \
                time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            run, rel = self._pass()
            self.passes.append(run)
            self.rel.append(rel)
            last = time.perf_counter() - began

    def traced(self):
        """One more pass with the parent process traced; the daemon's
        workers were forked before, so they run untraced."""
        import tracer as tracing
        from repro import obs

        tracer = tracing.Tracer()
        tracer.run_id = "serve_mixed:traced"
        with obs.session() as telemetry:
            patches = tracing.install(tracer)
            try:
                self.traced_pass, self.traced_rel = self._pass()
            finally:
                tracing.uninstall(patches)
        return tracer, telemetry

    @property
    def timed(self):
        return self.passes[1:]

    def all_passes(self):
        return self.passes + ([self.traced_pass] if self.traced_pass else [])

    @property
    def answers(self):
        return [a for p in self.all_passes() for a in p.answers]

    @property
    def attempted(self) -> int:
        return len(self.answers)

    @property
    def failed(self) -> int:
        return sum(1 for a in self.answers
                   if a["error"] is not None or a["status"] != "done")

    @property
    def wall_rel(self) -> float:
        return statistics.median(self.rel[1:])

    def end_to_end(self) -> Dict[str, float]:
        import checks

        results = {}
        for answer in self.answers:
            if answer["result"] is not None:
                results.setdefault(answer["key"], json.loads(answer["result"]))
        detected = faults = cycles = 0
        for key, result in sorted(results.items()):
            name = key.split("/")[0]
            detected += len(checks.packed_detected(
                self.products["scan"][name], self.products["faults"][name],
                result["final_vectors"]))
            faults += result["coverage"]["faults"]
            cycles += len(result["final_vectors"])
        return {
            "wall_rel": self.wall_rel,
            "test_cycles": cycles,
            "fault_coverage_pct": 100.0 * detected / faults,
        }

    def latencies(self):
        """Submit-to-answer seconds of executed and of replayed jobs."""
        novel = [a["latency_s"] for p in self.timed for a in p.answers
                 if a["source"] == "new" and a["error"] is None]
        replay = [a["latency_s"] for p in self.timed for a in p.answers
                  if a["source"] == "cache" and a["error"] is None]
        return novel, replay

    def check(self) -> List[str]:
        import checks

        distinct = len(self.w.SERVE_CIRCUITS) * len(self.w.SERVE_SEEDS)
        problems = checks.check_serve(self.all_passes(), self.products,
                                      distinct)
        if self.failed:
            problems.append(f"{self.failed} submissions failed")
        return problems

    def describe(self) -> List[str]:
        seconds = [p.seconds for p in self.timed]
        answered = sum(len(p.answers) for p in self.timed)
        lines = [
            f"  passes={len(self.passes)} (first is warm-up) submissions/pass="
            f"{self.w.SERVE_SUBMISSIONS} clients={self.w.SERVE_CLIENTS} "
            f"workers={self.w.SERVE_WORKERS}",
            "  pass seconds: " + " ".join(f"{s:.3f}" for s in seconds)
            + " | ref: " + " ".join(f"{r:.1f}" for r in self.rel[1:]),
        ]
        if seconds:
            lines.append(f"  host seconds per pass (not gated): "
                         f"{statistics.median(seconds):.4f} s, "
                         f"{answered / sum(seconds):.3f} answers/s")
        novel, replay = self.latencies()
        for label, samples, fraction, scale, unit in (
                ("novel p50", novel, 0.5, 1.0, "s"),
                ("replay p50", replay, 0.5, 1e3, "ms"),
                ("replay p90", replay, 0.9, 1e3, "ms")):
            value = percentile(samples, fraction)
            shown = "n/a (fewer than 10 samples beyond it)" if value is None \
                else f"{value * scale:.3f} {unit}"
            lines.append(f"  {label}: {shown} over {len(samples)} samples")
        return lines
