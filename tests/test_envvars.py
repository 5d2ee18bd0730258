"""Numeric ``REPRO_*`` settings reject malformed values loudly."""

import pytest

from repro.circuit import s27
from repro.faults import collapse_faults
from repro.obs.journal import resolve_journal_max_bytes
from repro.parallel import ParallelFaultSim
from repro.parallel.worker import resolve_heartbeat_interval
from repro.sim.session import checkpoint_budget_bytes


def _shard_plan():
    circuit = s27()
    ParallelFaultSim(circuit, collapse_faults(circuit), jobs=2).plan()


RESOLVERS = {
    "REPRO_CHECKPOINT_MB": checkpoint_budget_bytes,
    "REPRO_SHARD_MB": _shard_plan,
    "REPRO_JOURNAL_MAX_MB": resolve_journal_max_bytes,
    "REPRO_HEARTBEAT_INTERVAL": resolve_heartbeat_interval,
}


@pytest.mark.parametrize("name", sorted(RESOLVERS))
def test_malformed_value_raises_naming_the_variable(monkeypatch, name):
    resolve = RESOLVERS[name]
    monkeypatch.setenv(name, "1GB")
    with pytest.raises(ValueError, match=name):
        resolve()
    monkeypatch.setenv(name, " 2 ")
    resolve()
    monkeypatch.delenv(name)
    resolve()
