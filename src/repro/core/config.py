"""Unified flow configuration.

:class:`FlowConfig` is the single knob object for the end-to-end flows
(:func:`~repro.core.pipeline.generation_flow` and
:func:`~repro.core.pipeline.translation_flow`).  It replaces the
spread-out keyword signatures those functions grew: one frozen dataclass
carries the seed, scan-chain count, the Section 2 knowledge toggles, the
Section 4 compaction switches and the speed knobs, so a whole
experiment is reproducible from one value::

    from repro import FlowConfig, generation_flow

    cfg = FlowConfig(seed=1, num_chains=2, max_omission_passes=2)
    flow = generation_flow(circuit, cfg)

``FlowConfig`` is frozen; derive variants with :meth:`FlowConfig.replace`
(a thin wrapper over :func:`dataclasses.replace`).

Which simulation backend runs, and how often the fault-sim session
checkpoints, are not configuration choices: the code picks them from
what it can observe (see :mod:`repro.sim.backend` and
:mod:`repro.sim.session`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from ..atpg.seq_atpg import SeqATPGConfig

#: The result-neutral ``FlowConfig`` fields: they only change how fast
#: (or where) a bit-identical result is computed.  Every other field is
#: semantic and feeds the run-config fingerprint
#: (:func:`repro.obs.history.run_config_fingerprint`) that keys the run
#: history and the serve daemon's dedup; the result cache's stage keys
#: never see these fields either.  One declaration, so all three agree.
SPEED_FIELDS = frozenset({"jobs", "cache_dir", "run_index"})


@dataclass(frozen=True)
class FlowConfig:
    """Immutable configuration for the end-to-end flows."""

    #: Master seed; also seeds the ATPG/baseline configs unless they are
    #: given explicitly.
    seed: int = 0
    #: Scan chains inserted into the circuit under test.
    num_chains: int = 1
    #: Run Section 4 compaction (restoration then omission).
    compact: bool = True
    #: Prove aborted faults redundant with exhaustive PODEM on the
    #: combinational view (generation flow only).
    classify_redundant: bool = True
    #: Enable the Section 2 scan-out completion.
    use_scan_knowledge: bool = True
    #: Enable the PODEM + scan-in justification completion.
    use_justification: bool = True
    #: PODEM backtrack budget for the redundancy proofs.
    redundancy_backtrack_limit: int = 20000
    #: Omission sweeps over the sequence (1 = single backward pass).
    max_omission_passes: int = 1
    #: Worker processes for fault-sharded parallel simulation of the
    #: heavy full-universe queries (see :mod:`repro.parallel`).  ``0``
    #: defers to the ``REPRO_JOBS`` environment variable, defaulting to
    #: serial; ``1`` forces serial.  Results are bit-identical at every
    #: value.
    jobs: int = 0
    #: Root directory of the content-addressed result store (see
    #: :mod:`repro.cache`).  ``None`` defers to the ``REPRO_CACHE``
    #: environment variable; empty/unset both means caching off.  Like
    #: ``jobs``, this knob cannot change result bits — warm runs are
    #: bit-identical to cold ones.
    cache_dir: Optional[str] = None
    #: Run-history index database (see :mod:`repro.obs.history`):
    #: every finished flow appends one run record there.  ``None``
    #: defers to the ``REPRO_RUN_INDEX`` environment variable;
    #: empty/unset both means history off.  Another speed/observability
    #: knob that cannot change result bits — the index is
    #: corruption-tolerant and never a point of failure.
    run_index: Optional[str] = None
    #: Sequential ATPG engine configuration; ``None`` derives one from
    #: ``seed`` (generation flow only).
    atpg: Optional[SeqATPGConfig] = None
    #: Conventional second-approach ATPG configuration; ``None`` derives
    #: one from ``seed`` (translation flow only).
    baseline: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.max_omission_passes < 1:
            raise ValueError("max_omission_passes must be >= 1")
        if self.num_chains < 1:
            raise ValueError("num_chains must be >= 1")
        if self.jobs < 0:
            raise ValueError("jobs must be >= 0 (0 = REPRO_JOBS/serial)")

    def replace(self, **changes: Any) -> "FlowConfig":
        """A copy with ``changes`` applied (the config is frozen)."""
        return dataclasses.replace(self, **changes)

    def atpg_config(self) -> SeqATPGConfig:
        """The effective sequential-ATPG configuration."""
        return self.atpg or SeqATPGConfig(seed=self.seed)

    def effective_jobs(self) -> int:
        """``jobs`` with the ``0 -> REPRO_JOBS -> serial`` rule applied
        (see :func:`repro.parallel.plan.resolve_jobs`)."""
        from ..parallel.plan import resolve_jobs

        return resolve_jobs(self.jobs)

    def effective_cache_dir(self):
        """``cache_dir`` with the ``None -> REPRO_CACHE -> off`` rule
        applied (see :func:`repro.cache.resolve_cache_dir`); a
        :class:`pathlib.Path` or ``None``."""
        from ..cache.store import resolve_cache_dir

        return resolve_cache_dir(self.cache_dir)

    def result_store(self):
        """A :class:`repro.cache.ResultStore` over the effective cache
        directory, or ``None`` when caching is off.  Opened through
        :func:`repro.cache.store.open_store`, so a cache directory that
        carries a namespace pointer (the serve daemon's per-tenant
        layers) transparently reads through to its shared base."""
        root = self.effective_cache_dir()
        if root is None:
            return None
        from ..cache.store import open_store

        return open_store(root)

    def effective_run_index(self):
        """``run_index`` with the ``None -> REPRO_RUN_INDEX -> off``
        rule applied (see :func:`repro.obs.history.resolve_run_index`);
        a :class:`pathlib.Path` or ``None``."""
        from ..obs.history import resolve_run_index

        return resolve_run_index(self.run_index)

