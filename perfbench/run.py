#!/usr/bin/env python3
"""The repository's benchmark: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite_generate --seed 1 \\
        --seconds 15 --trace 0

Set-up runs ``SETUP_REPS`` times in fresh interpreters
(``perfbench/prepare.py``); ``setup_s`` is its median wall time, each
rescaled to a nominal host speed (``perfbench/passes.py``).  The
timed flows or passes then repeat for ``--seconds`` seconds
(``perfbench/passes.py``), their outputs are checked
(``perfbench/checks.py``), and every metric is printed by name with its
unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``; with ``--trace 1`` one traced
pass follows the untraced ones and the per-layer metrics
(``perfbench/layers.py``) are reported, its spans written to
``.perfbench/traces/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("suite_generate", "suite_translate", "corpus_generate",
             "serve_mixed")
SETUP_REPS = 3
SETUP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "wall_rel": "ref", "test_cycles": "cycles",
    "fault_coverage_pct": "%", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def pinned_env(xdg_cache: str, tmp: str) -> dict:
    """The environment of the measured process and its children: no
    ambient ``REPRO_*`` setting (jobs, cache, backend, run index,
    checkpoint/shard budgets, RSS tracking, test sleeps, suite profile,
    start method, crash hooks) leaks into what is measured, and every
    cache or temporary file stays inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["XDG_CACHE_HOME"] = xdg_cache
    env["TMPDIR"] = tmp
    return env


def set_up(workload: str, work: str, tmp: str):
    """Run the set-up ``SETUP_REPS`` times, each in a fresh interpreter
    with a fresh kernel cache; returns (wall seconds per set-up, the
    same rescaled to the nominal host speed, products of the last one
    with per-layer phase medians, its kernel cache)."""
    from passes import REFERENCE_NOMINAL_S

    seconds, rescaled, phases = [], [], []
    for rep in range(SETUP_REPS):
        xdg = os.path.join(work, f"xdg{rep}")
        out = os.path.join(work, f"setup{rep}.pickle")
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "prepare.py"), workload, out],
            env=pinned_env(xdg, tmp), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        seconds.append(time.perf_counter() - start)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode("utf-8", "replace"))
            raise SystemExit(proc.returncode)
        with open(out, "rb") as handle:
            products = pickle.load(handle)
        rescaled.append(seconds[-1] * REFERENCE_NOMINAL_S / products["ref_s"])
        phases.append(products["phases"])
    products["phases"] = {name: statistics.median(p[name] for p in phases)
                          for name in phases[0]}
    return seconds, rescaled, products, xdg


def bench(args, work: str) -> int:
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    setup_seconds, setup_rescaled, products, xdg = set_up(args.workload,
                                                          work, tmp)

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(pinned_env(xdg, tmp))
    tempfile.tempdir = None

    from repro.sim.backend import resolve_concrete_backend
    from repro.sim.kernel import load_kernel_library

    import layers
    from passes import FlowRun, ServeRun

    if load_kernel_library() is None:
        sys.stderr.write("perfbench: the compiled C kernel did not load\n")
        return 3
    first = next(iter(products["faults"]))
    backend = resolve_concrete_backend(None, len(products["faults"][first]),
                                       products["scan"][first].num_gates)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} backend={backend} "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]}",
          flush=True)

    if args.workload == "serve_mixed":
        # One core for the daemon, its threads and its forked workers:
        # the host-speed sampler in the main thread then times the core
        # the jobs run on.  The last core: the first takes most
        # interrupts.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        run = ServeRun(products, args.seed, work)
    else:
        run = FlowRun(args.workload, products, args.seed)
    with run:
        run.measure(args.seconds)
        traced = run.traced() if args.trace and not run.failed else None

    problems = run.check()
    for problem in problems:
        print(f"  CHECK FAILED: {problem}", flush=True)
    for line in run.describe():
        print(line)

    metrics = {}
    if args.trace:
        units = layers.UNITS
        if traced is not None:
            tracer, telemetry = traced
            traces = os.path.join(ROOT, ".perfbench", "traces")
            os.makedirs(traces, exist_ok=True)
            tracer.write(os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json"))
            metrics = layers.layer_metrics(run, tracer, telemetry,
                                           products["phases"])
    else:
        units = END_TO_END_UNITS
        print("  set-up wall seconds (not gated): "
              + " ".join(f"{s:.3f}" for s in setup_seconds))
        metrics = {"setup_s": statistics.median(setup_rescaled)}
        if not run.failed:
            metrics["peak_rss_mb"] = run.peak_rss_mb
            metrics.update(run.end_to_end())
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name} = {metrics[name]:.6g} {unit}")

    correct = not problems and not run.failed and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=base)
    # Registered before any result store exists: atexit runs handlers
    # last-in first-out, so the stores' hit-tally flushes into the work
    # directory happen before it is removed.
    atexit.register(shutil.rmtree, work, True)
    return bench(args, work)


if __name__ == "__main__":
    sys.exit(main())
