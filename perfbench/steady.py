#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and report each
end-to-end metric's median, quartiles and spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workloads suite_generate,serve_mixed \\
        --seeds 1-10 --out .perfbench/steady.json

The spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median; the
check passes when every metric but ``setup_s`` spreads less than a third
of its bound in ``BENCHMARK.json``.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values):
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0], values[0], values[0])
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report, steady = {}, True
    for workload in args.workloads.split(","):
        values, durations = {}, []
        for seed in seed_list(args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            durations.append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
                else None
            if result is None or not result["correct"] or result["failed"]:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
                print(f"{workload} seed {seed}: run failed or incorrect")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {name: summarize(v) for name, v in values.items()}
        report[workload] = {"metrics": summary,
                            "run_seconds_median": statistics.median(durations)}
        print(f"{workload}: {len(durations)} runs, median run "
              f"{statistics.median(durations):.1f} s")
        for name, s in summary.items():
            bound = bounds.get(name)
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"  {name:20s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}"
                  f"  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
                  f"  bound {bound}  {'ok' if ok else 'UNSTEADY'}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
