"""Fault-shard planning: split a fault universe into balanced shards.

The unit of parallel work is a **shard** — a subset of the collapsed
fault universe, identified by *positions* (0-based indices into the
constructor fault list, the same convention the external masks of
:class:`~repro.sim.session.SimSession` use).  Sharding faults rather
than vectors keeps every worker's simulation timeline identical to the
serial one, which is what makes the merged result bit-for-bit equal to
a serial run (machines are simulated independently in the packed
planes; see ``docs/ARCHITECTURE.md``).

The planner picks one of two strategies from what it is given:

``round_robin`` (no costs)
    Shard ``i`` takes positions ``i, i + K, i + 2K, ...``.  With no
    cost information this is the best static spread: faults that are
    structurally close (and therefore tend to cost the same) land in
    different shards.

``cost`` (costs given)
    Greedy longest-processing-time (LPT) bin packing over a per-fault
    cost model.  Per-fault cost varies wildly — Pomeranz & Reddy's
    accidental-detection work shows hard-to-detect faults dominate
    simulation effort — so when detection-time data is available (from
    the fault ledger, a previous run, or
    :func:`costs_from_detection_times`) the expensive tail is spread
    across shards instead of piling into one.

Both strategies are deterministic: identical inputs produce an
identical plan, and every position appears in exactly one shard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..envvars import env_number

#: Environment variable consulted when a ``jobs`` knob is 0/None.
JOBS_ENV = "REPRO_JOBS"

#: Fault universes below this size are not worth a process pool; the
#: engine falls back to the serial simulator (see ``ParallelFaultSim``).
DEFAULT_MIN_PARALLEL_FAULTS = 64


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a ``jobs`` knob to a concrete worker count.

    ``0`` / ``None`` means *auto*: the ``REPRO_JOBS`` environment
    variable when set, else ``1`` (serial).  Anything else is clamped
    to at least 1.  Auto deliberately does **not** default to the CPU
    count — parallelism stays opt-in, matching the rest of the package
    (telemetry off by default, compaction knobs explicit).
    """
    if jobs is None or jobs == 0:
        jobs = env_number(JOBS_ENV, int) or 1
    return max(1, jobs)


@dataclass(frozen=True)
class Shard:
    """One unit of parallel work: fault positions plus estimated cost."""

    index: int
    positions: Tuple[int, ...]
    cost: float

    def __len__(self) -> int:
        return len(self.positions)

    def split(self) -> List["Shard"]:
        """Two half-shards (round-robin halves) for requeueing after a
        worker failure; a single-fault shard is atomic and returns
        itself."""
        if len(self.positions) <= 1:
            return [self]
        halves = (self.positions[0::2], self.positions[1::2])
        share = self.cost / len(self.positions)
        return [
            Shard(self.index, half, share * len(half))
            for half in halves
        ]


@dataclass(frozen=True)
class ShardPlan:
    """A complete partition of ``num_faults`` positions into shards."""

    num_faults: int
    #: ``"cost"`` or ``"round_robin"`` — a telemetry label.
    strategy: str
    shards: Tuple[Shard, ...]

    def __len__(self) -> int:
        return len(self.shards)

    def validate(self) -> None:
        """Raise ``ValueError`` unless the shards partition the universe
        (every position exactly once) — the merge-layer invariant."""
        seen: Dict[int, int] = {}
        for shard in self.shards:
            for position in shard.positions:
                if position in seen:
                    raise ValueError(
                        f"position {position} in shards {seen[position]} "
                        f"and {shard.index}")
                if not 0 <= position < self.num_faults:
                    raise ValueError(f"position {position} out of range")
                seen[position] = shard.index
        if len(seen) != self.num_faults:
            missing = sorted(set(range(self.num_faults)) - set(seen))[:8]
            raise ValueError(f"positions not covered: {missing} ...")


def plan_shards(
    num_faults: int,
    jobs: int,
    costs: Optional[Sequence[float]] = None,
) -> ShardPlan:
    """Partition ``num_faults`` positions into up to ``jobs`` shards.

    ``costs`` (aligned with positions) selects LPT packing over those
    load estimates; without them the plan is round-robin.  Fewer faults
    than jobs produce fewer (non-empty) shards.
    """
    strategy = "round_robin" if costs is None else "cost"
    if num_faults < 0:
        raise ValueError("num_faults must be >= 0")
    k = max(1, min(jobs, num_faults))
    if num_faults == 0:
        return ShardPlan(0, strategy, ())

    if costs is not None:
        if len(costs) != num_faults:
            raise ValueError(
                f"costs has {len(costs)} entries for {num_faults} faults")
        buckets: List[List[int]] = [[] for _ in range(k)]
        loads = [0.0] * k
        # LPT: heaviest first, stable on position; least-loaded bucket,
        # stable on bucket index — fully deterministic.
        order = sorted(range(num_faults), key=lambda i: (-costs[i], i))
        for position in order:
            target = min(range(k), key=lambda b: (loads[b], b))
            buckets[target].append(position)
            loads[target] += costs[position]
        shards = tuple(
            Shard(i, tuple(sorted(bucket)), loads[i])
            for i, bucket in enumerate(buckets)
        )
    else:
        shards = tuple(
            Shard(i, tuple(range(i, num_faults, k)),
                  float(len(range(i, num_faults, k))))
            for i in range(k)
        )
    plan = ShardPlan(num_faults, strategy, shards)
    plan.validate()
    return plan


def costs_from_detection_times(
    times: Mapping[int, int],
    num_faults: int,
    horizon: Optional[int] = None,
) -> List[float]:
    """Per-position cost model from first-detection data.

    A fault detected at cycle ``t`` costs ``t + 1`` (a dropping
    simulator stops paying for it there); an undetected fault costs the
    full ``horizon`` (every cycle, forever) — these are the
    hard-to-detect faults a balanced plan must spread.  ``times`` maps
    positions to cycles (e.g. from a previous
    :class:`~repro.sim.fault_sim.FaultSimResult` or the ledger's
    detection events); ``horizon`` defaults to one past the latest
    observed detection.
    """
    if horizon is None:
        horizon = (max(times.values()) + 2) if times else 1
    return [
        float(times[i] + 1) if i in times else float(horizon)
        for i in range(num_faults)
    ]
