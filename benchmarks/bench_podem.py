"""PODEM work gate: every collapsed fault of the s386 and s510 comb views.

Not a paper table — this bench pins the combinational ATPG engine the
flow leans on (scan-in justification, first-approach tests, the
second-approach baseline, redundancy proofs).  It runs PODEM over every
collapsed fault of the full-scan comb views of the s386 and s510
stand-ins at the experiment runner's redundancy limit, the way the
generation flow's redundancy pass calls it.

The verdict counters (``atpg.podem.calls`` / ``.detected`` /
``.untestable`` / ``.aborted``) and ``atpg.backtracks`` are
deterministic properties of the *search*, so they gate at 0%: the
implication engine may get faster, never decide differently.
``atpg.podem.implications`` is deterministic too (one per run, decision
and flip); ``atpg.podem.gate_evals`` counts the gates implication
re-evaluated, the work measure the event-driven engine cuts.

Run standalone (``python benchmarks/bench_podem.py --metrics-out
BENCH_podem.json``) it runs the sweep inside a telemetry session and
writes the metrics artifact — that produced the committed
``BENCH_podem.json`` baseline CI diffs fresh runs against with
``repro-atpg diff-metrics``.
"""

import time

from repro import obs
from repro.atpg import Podem, comb_view
from repro.atpg.comb_view import view_fault
from repro.circuit import insert_scan
from repro.experiments import suite
from repro.faults import collapse_faults

CIRCUITS = ("s386", "s510")
#: ``repro.experiments.runner``'s redundancy limit for tiny/small tiers.
BACKTRACK_LIMIT = 20000


def _targets(name):
    scan = insert_scan(suite.build_circuit(name)).circuit
    view = comb_view(scan).circuit
    return view, [view_fault(scan, f) for f in collapse_faults(scan)]


def run():
    """The sweep; returns ``{circuit: (gates, faults, statuses, seconds)}``
    (counters land in the ambient telemetry session, if any)."""
    out = {}
    for name in CIRCUITS:
        view, faults = _targets(name)
        statuses = {}
        with obs.span(f"bench_podem.{name}"):
            start = time.perf_counter()
            podem = Podem(view, backtrack_limit=BACKTRACK_LIMIT)
            for fault in faults:
                status = podem.run(fault).status
                statuses[status] = statuses.get(status, 0) + 1
            seconds = time.perf_counter() - start
        out[name] = (view.num_gates, len(faults), statuses, seconds)
    return out


def report_lines(results, counters=None):
    lines = [f"PODEM over every collapsed fault (comb view of the scan "
             f"circuit, backtrack limit {BACKTRACK_LIMIT})"]
    for name, (gates, faults, statuses, seconds) in results.items():
        verdicts = ", ".join(f"{k} {v}" for k, v in sorted(statuses.items()))
        lines.append(f"  {name}: {gates} gates, {faults} faults ({verdicts})"
                     f"  {seconds * 1000:8.1f} ms")
    if counters:
        implications = counters.get("atpg.podem.implications", 0)
        evals = counters.get("atpg.podem.gate_evals", 0)
        lines.append(f"  implications {implications}, gate evaluations "
                     f"{evals} ({evals / max(implications, 1):.1f} per "
                     f"implication), backtracks "
                     f"{counters.get('atpg.backtracks', 0)}")
    return lines


def bench_podem_sweep(benchmark, report_dir):
    from conftest import emit

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for gates, faults, statuses, _seconds in results.values():
        assert sum(statuses.values()) == faults
        assert statuses.get("aborted", 0) == 0
    emit(report_dir, "podem_sweep", "\n".join(report_lines(results)))


def main(argv=None):
    """Standalone baseline producer for the diff-metrics CI gate."""
    import argparse

    parser = argparse.ArgumentParser(
        description="run PODEM over every collapsed fault of the s386 and "
                    "s510 comb views under telemetry and write the metrics "
                    "artifact")
    parser.add_argument("--metrics-out", metavar="FILE", required=True)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    with obs.session() as telemetry:
        # Every gated verdict counter exists, even at zero, so that a
        # change away from zero shows as a regression, not a new metric.
        for status in ("detected", "untestable", "aborted"):
            telemetry.incr(f"atpg.podem.{status}", 0)
        with obs.span("bench_podem"):
            results = run()
    try:
        from conftest import record_bench
    except ImportError:  # run from outside benchmarks/
        record_bench = None
    if record_bench is not None:
        record_bench(telemetry, "podem", "+".join(CIRCUITS),
                     time.perf_counter() - started)
    counters = telemetry.metrics.snapshot()["counters"]
    print("\n".join(report_lines(results, counters)))
    obs.write_metrics_json(args.metrics_out, telemetry,
                           meta={"bench": "podem",
                                 "circuits": list(CIRCUITS),
                                 "backtrack_limit": BACKTRACK_LIMIT})
    print(f"metrics written to {args.metrics_out}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
