"""Correctness checks, run outside the timed region.

They assert invariants and never pin values, so an algorithmic change
(fault ordering, a better compactor) may move quality legitimately:

* every final compacted sequence, re-simulated on the ``packed``
  reference simulator (independent of the ``vector`` kernel the flows
  run on) over an independently built scan circuit and fault list,
  detects exactly the set the flow reported;
* compaction never loses a fault its input sequence detected;
* every pass of one invocation produces the same sequences, so
  ``test_cycles`` and ``fault_coverage_pct`` are identical across them;
* for ``serve_mixed``: executions equal distinct keys in every pass, and
  every answer for one key is byte-identical, within and across passes.
"""

from __future__ import annotations

import json
from typing import Dict, List


def packed_detected(circuit, faults, vectors) -> set:
    from repro.sim.fault_sim import PackedFaultSimulator

    result = PackedFaultSimulator(circuit, faults).run(
        [list(v) for v in vectors])
    return set(result.detection_time)


def check_flows(samples: Dict[str, List[Dict]], products) -> List[str]:
    """``samples`` maps circuit -> outputs of every flow run on it."""
    problems: List[str] = []
    for name, runs in samples.items():
        first = runs[0]
        for other in runs[1:]:
            if other["final"] != first["final"] \
                    or other["reported"] != first["reported"]:
                problems.append(f"{name}: passes disagree on the final "
                                f"sequence or its detected set")
        faults = products["faults"][name]
        if list(first["faults"]) != list(faults):
            problems.append(f"{name}: the flow's collapsed fault list differs "
                            f"from an independent collapse")
            continue
        scan = products["scan"][name]
        final = packed_detected(scan, faults, first["final"])
        if final != first["reported"]:
            problems.append(
                f"{name}: packed re-simulation detects {len(final)} faults, "
                f"the flow reported {len(first['reported'])}")
        lost = packed_detected(scan, faults, first["input"]) - final
        if lost:
            problems.append(f"{name}: compaction lost {len(lost)} faults "
                            f"the input sequence detected")
    return problems


def check_serve(passes, products, distinct_keys: int) -> List[str]:
    """``passes`` are finished :class:`workloads.ServePass` objects."""
    problems: List[str] = []
    by_key: Dict[str, str] = {}
    for number, serve_pass in enumerate(passes):
        executed = sum(1 for a in serve_pass.answers if a["source"] == "new")
        if executed != distinct_keys:
            problems.append(f"pass {number}: {executed} executions for "
                            f"{distinct_keys} distinct keys")
        for answer in serve_pass.answers:
            if answer["result"] is None:
                continue
            if by_key.setdefault(answer["key"], answer["result"]) \
                    != answer["result"]:
                problems.append(f"{answer['key']}: answers differ")
    for key, text in sorted(by_key.items()):
        result = json.loads(text)
        name = key.split("/")[0]
        faults = products["faults"][name]
        coverage = result["coverage"]
        final = result["final_vectors"]
        if coverage["faults"] != len(faults):
            problems.append(f"{key}: {coverage['faults']} faults served, "
                            f"{len(faults)} collapsed locally")
            continue
        if len(final) != result["sequences"]["omitted"]["total"]:
            problems.append(f"{key}: final sequence length disagrees with "
                            f"its reported stats")
        detected = packed_detected(products["scan"][name], faults, final)
        if len(detected) < coverage["detected"]:
            problems.append(f"{key}: final sequence detects {len(detected)} "
                            f"faults, generation reported "
                            f"{coverage['detected']}")
    return problems
