"""Run-history index (repro.obs.history): records, durability, fleet
analytics, and the ``repro-atpg runs`` CLI surface."""

import json
import sqlite3
import subprocess
import sys
import time

import pytest

from repro import FlowConfig, generation_flow
from repro.circuit import s27
from repro.cli import main
from repro.obs.history import (
    DEFAULT_OUTLIER_Z,
    DETERMINISTIC_GATES,
    RUN_INDEX_ENV,
    RUN_RECORD_SCHEMA,
    RunEntry,
    RunIndex,
    build_run_record,
    compare_records,
    compute_trend,
    deterministic_drift,
    is_runs_ref,
    load_runs_ref,
    modified_z,
    record_to_artifact,
    render_trend,
    resolve_run_index,
    robust_stats,
    run_config_fingerprint,
)


def make_record(circuit="s27", config_fp="cfg0", wall=1.0, cycles=100,
                coverage=100.0, flow="generation"):
    """A hand-built record with controllable deterministic counters."""
    return {
        "schema": RUN_RECORD_SCHEMA,
        "created": time.time(),
        "circuit": circuit,
        "circuit_fp": f"fp-{circuit}",
        "config_fp": config_fp,
        "flow": flow,
        "backend": "packed",
        "jobs": 1,
        "wall_seconds": wall,
        "git_rev": "abc123",
        "python": "3.x",
        "platform": "test",
        "counters": {"faultsim.cycles": cycles, "atpg.backtracks": 7,
                     "cache.hit": 3},
        "gauges": {"pipeline.generation.coverage_percent": coverage},
        "histograms": {},
        "spans": [{"path": "pipeline.generation", "count": 1,
                   "total_seconds": wall, "depth": 0}],
        "journal": {},
    }


# -- fingerprints ------------------------------------------------------------


class TestConfigFingerprint:
    def test_stable(self):
        assert (run_config_fingerprint(FlowConfig(seed=3))
                == run_config_fingerprint(FlowConfig(seed=3)))

    def test_semantic_knobs_change_it(self):
        base = run_config_fingerprint(FlowConfig())
        assert run_config_fingerprint(FlowConfig(seed=9)) != base
        assert run_config_fingerprint(FlowConfig(compact=False)) != base
        assert run_config_fingerprint(
            FlowConfig(max_omission_passes=3)) != base

    def test_flow_changes_it(self):
        """A generation and a translation run of the same config compute
        different things — they must not share a trend group."""
        cfg = FlowConfig(seed=3)
        assert (run_config_fingerprint(cfg, flow="generation")
                != run_config_fingerprint(cfg, flow="translation"))

    def test_speed_knobs_do_not(self):
        """jobs / cache / run_index cannot change result bits, so they
        must not split trend groups."""
        base = run_config_fingerprint(FlowConfig())
        for cfg in (FlowConfig(jobs=4),
                    FlowConfig(cache_dir="/tmp/x"),
                    FlowConfig(run_index="runs.sqlite")):
            assert run_config_fingerprint(cfg) == base

    def test_default_generation_fingerprint_is_pinned(self):
        """Run-history groups and serve dedup keys written by earlier
        versions stay valid: removing a speed-only field must not move
        the fingerprint of an existing config."""
        assert run_config_fingerprint(FlowConfig()) == (
            "86415e0da41f389795063f2388b46c82cb46fed469b157d2633cd5a5335272c0")

    def test_every_field_is_fingerprinted_or_speed_only(self):
        """Each FlowConfig field either moves the fingerprint or is
        declared result-neutral in SPEED_FIELDS — never neither (a new
        semantic field the fingerprint misses would merge distinct
        runs) and never both."""
        from dataclasses import fields

        from repro.atpg import SeqATPGConfig
        from repro.atpg.scan_seq import SecondApproachConfig
        from repro.core.config import SPEED_FIELDS

        varied = {"atpg": SeqATPGConfig(seed=99),
                  "baseline": SecondApproachConfig(seed=99)}
        names = {f.name for f in fields(FlowConfig)}
        assert SPEED_FIELDS <= names
        base = run_config_fingerprint(FlowConfig())
        for f in fields(FlowConfig):
            value = varied.get(f.name, f.default)
            if f.name not in varied:
                if isinstance(f.default, bool):
                    value = not f.default
                elif isinstance(f.default, int):
                    value = f.default + 1
                elif f.default is None:
                    value = "varied"
                else:
                    pytest.fail(f"no variation for FlowConfig.{f.name}")
            moved = run_config_fingerprint(
                FlowConfig(**{f.name: value})) != base
            assert moved != (f.name in SPEED_FIELDS), (
                f"FlowConfig.{f.name} must either feed "
                f"run_config_fingerprint or be in SPEED_FIELDS")


# -- records -----------------------------------------------------------------


class TestRunRecord:
    def test_shape_and_schema(self):
        record = build_run_record(
            circuit_name="s27", circuit_fp="c", config_fp="k",
            flow="generation", wall_seconds=1.5, backend="packed", jobs=2)
        assert record["schema"] == RUN_RECORD_SCHEMA
        assert record["wall_seconds"] == 1.5
        assert record["jobs"] == 2
        assert "journal" in record and "counters" in record
        json.dumps(record)  # must be JSON-able as is

    def test_artifact_bridge(self):
        """record_to_artifact feeds the existing diff toolchain."""
        from repro.obs import METRICS_SCHEMA
        from repro.obs.diff import flatten_metrics

        artifact = record_to_artifact(make_record(wall=2.5))
        assert artifact["schema"] == METRICS_SCHEMA
        flat = flatten_metrics(artifact)
        assert flat["wall_seconds"] == 2.5
        assert flat["faultsim.cycles"] == 100


# -- the index ---------------------------------------------------------------


class TestRunIndex:
    def test_append_get_roundtrip(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        run_id = index.append(make_record(wall=1.25))
        assert run_id is not None
        entry = index.get(run_id)
        assert entry is not None
        assert entry.circuit == "s27"
        assert entry.wall_seconds == 1.25
        assert entry.record["counters"]["faultsim.cycles"] == 100
        assert entry.fingerprint == ("fp-s27", "cfg0")

    def test_list_latest_and_filters(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        index.append(make_record(circuit="s27"))
        index.append(make_record(circuit="s298"))
        index.append(make_record(circuit="s27", wall=9.0))
        assert index.count() == 3
        assert [e.circuit for e in index.list()] == ["s27", "s298", "s27"]
        assert index.latest().wall_seconds == 9.0
        assert index.latest(circuit="s298").circuit == "s298"
        assert len(index.list(circuit="s27")) == 2

    def test_same_fingerprint_window(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        for wall in (1.0, 2.0, 3.0):
            index.append(make_record(config_fp="A", wall=wall))
        index.append(make_record(config_fp="B"))
        window = index.same_fingerprint("fp-s27", "A")
        assert [e.wall_seconds for e in window] == [3.0, 2.0, 1.0]

    def test_missing_db_is_empty_not_error(self, tmp_path):
        index = RunIndex(tmp_path / "nope" / "runs.sqlite")
        assert index.list() == []
        assert index.count() == 0
        assert index.latest() is None


class TestDurability:
    def test_garbage_file_is_quarantined_and_recreated(self, tmp_path):
        """A corrupt database is a clean miss, never an exception."""
        path = tmp_path / "runs.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\x00\xff")
        index = RunIndex(path)
        run_id = index.append(make_record())
        assert run_id is not None
        assert index.count() == 1
        corpse = tmp_path / "runs.sqlite.corrupt"
        assert corpse.exists()
        assert corpse.read_bytes().startswith(b"this is not")

    def test_truncated_db_recovers(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        RunIndex(path).append(make_record())
        path.write_bytes(path.read_bytes()[:100])  # chop mid-header data
        index = RunIndex(path)
        assert index.append(make_record()) is not None
        assert index.count() >= 1

    def test_unreadable_reads_return_empty(self, tmp_path, monkeypatch):
        index = RunIndex(tmp_path / "runs.sqlite")
        index.append(make_record())

        def boom(*a, **k):
            raise sqlite3.OperationalError("disk I/O error")

        monkeypatch.setattr(sqlite3, "connect", boom)
        assert index.list() == []
        assert index.append(make_record()) is None

    def test_concurrent_appends_from_two_processes(self, tmp_path):
        """SQLite file locking serializes writers; no record is lost."""
        db = tmp_path / "runs.sqlite"
        n = 8
        script = (
            "import sys; sys.path.insert(0, sys.argv[3])\n"
            "from tests.test_history import make_record\n"
            "from repro.obs.history import RunIndex\n"
            "index = RunIndex(sys.argv[1])\n"
            "ok = sum(index.append(make_record(wall=float(i))) is not None"
            " for i in range(int(sys.argv[2])))\n"
            "print(ok)\n"
        )
        import repro

        repo_root = str(
            __import__("pathlib").Path(repro.__file__).parents[2])
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(db), str(n), repo_root],
                stdout=subprocess.PIPE, text=True)
            for _ in range(2)
        ]
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert out.strip() == str(n)
        assert RunIndex(db).count() == 2 * n


class TestGc:
    def test_keeps_newest_per_fingerprint(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        for wall in (1.0, 2.0, 3.0, 4.0):
            index.append(make_record(config_fp="A", wall=wall))
        index.append(make_record(config_fp="B", wall=9.0))
        deleted = index.gc(keep=2)
        assert deleted == 2
        walls = {e.wall_seconds for e in index.list()}
        assert walls == {3.0, 4.0, 9.0}

    def test_never_deletes_newest_even_at_keep_zero(self, tmp_path):
        index = RunIndex(tmp_path / "runs.sqlite")
        for wall in (1.0, 2.0):
            index.append(make_record(config_fp="A", wall=wall))
        index.gc(keep=0)  # clamped to 1
        remaining = index.list()
        assert len(remaining) == 1
        assert remaining[0].wall_seconds == 2.0


# -- pipeline hook -----------------------------------------------------------


class TestRecordFlowRun:
    def test_generation_flow_appends_a_record(self, tmp_path):
        db = tmp_path / "runs.sqlite"
        cfg = FlowConfig(seed=1, run_index=str(db))
        generation_flow(s27(), cfg)
        index = RunIndex(db)
        assert index.count() == 1
        entry = index.latest()
        assert entry.circuit == "s27"
        assert entry.flow == "generation"
        assert entry.wall_seconds > 0
        assert entry.config_fp == run_config_fingerprint(
            cfg, flow="generation")

    def test_record_names_the_backends_that_ran(self, tmp_path):
        """The ``backend`` column names the concrete kernel(s) the run
        built — never ``auto`` — read from the session's
        ``faultsim.backend.<name>`` counters."""
        from repro import obs
        from repro.sim.backend import BACKEND_NAMES

        db = tmp_path / "runs.sqlite"
        with obs.session() as telemetry:
            generation_flow(s27(), FlowConfig(seed=1, run_index=str(db)))
        counters = telemetry.metrics.snapshot()["counters"]
        ran = [name for name in BACKEND_NAMES
               if counters.get(f"faultsim.backend.{name}")]
        assert ran, "the flow built no simulator"
        entry = RunIndex(db).latest()
        assert entry.backend == "+".join(ran)
        assert set(entry.backend.split("+")) <= set(BACKEND_NAMES)

    def test_untraced_record_has_no_backend(self, tmp_path):
        db = tmp_path / "runs.sqlite"
        generation_flow(s27(), FlowConfig(seed=1, run_index=str(db)))
        assert RunIndex(db).latest().backend == ""

    def test_off_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RUN_INDEX_ENV, raising=False)
        monkeypatch.chdir(tmp_path)
        generation_flow(s27(), FlowConfig(seed=1))
        assert not list(tmp_path.glob("*.sqlite"))

    def test_env_var_enables(self, tmp_path, monkeypatch):
        db = tmp_path / "env-runs.sqlite"
        monkeypatch.setenv(RUN_INDEX_ENV, str(db))
        generation_flow(s27(), FlowConfig(seed=1))
        assert RunIndex(db).count() == 1

    def test_resolve_rules(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RUN_INDEX_ENV, raising=False)
        assert resolve_run_index(None) is None
        assert resolve_run_index("x.sqlite").name == "x.sqlite"
        monkeypatch.setenv(RUN_INDEX_ENV, str(tmp_path / "e.sqlite"))
        assert resolve_run_index(None).name == "e.sqlite"


# -- analytics ---------------------------------------------------------------


class TestCompareAndDrift:
    def test_identical_records_have_zero_drift(self):
        rec = make_record()
        rows = compare_records(rec, make_record())
        assert deterministic_drift(rows) == []

    def test_cycle_drift_is_flagged(self):
        rows = compare_records(make_record(cycles=100),
                               make_record(cycles=101))
        drift = deterministic_drift(rows)
        assert [r.name for r in drift] == ["faultsim.cycles"]

    def test_drift_in_either_direction(self):
        rows = compare_records(make_record(cycles=101),
                               make_record(cycles=100))
        assert len(deterministic_drift(rows)) == 1

    def test_wall_and_cache_changes_are_not_drift(self):
        old, new = make_record(wall=1.0), make_record(wall=50.0)
        new["counters"]["cache.hit"] = 99
        assert deterministic_drift(compare_records(old, new)) == []


class TestRobustStats:
    def test_median_mad(self):
        med, mad = robust_stats([1.0, 2.0, 3.0, 100.0])
        assert med == 2.5
        assert mad == 1.0

    def test_modified_z_floor_tolerates_tiny_mad(self):
        """5% jitter around the median never flags, even at MAD 0."""
        assert modified_z(1.04, 1.0, 0.0) * 0 == 0  # finite
        assert modified_z(1.04, 1.0, 0.0) <= DEFAULT_OUTLIER_Z


def entries_with_walls(walls, cycles=None):
    cycles = cycles or [100] * len(walls)
    entries = []
    for i, (wall, cyc) in enumerate(zip(walls, cycles)):
        rec = make_record(wall=wall, cycles=cyc)
        entries.append(RunEntry(
            id=i + 1, created=float(i), circuit="s27",
            circuit_fp="fp-s27", config_fp="cfg0", flow="generation",
            backend="packed", jobs=1, git_rev="", wall_seconds=wall,
            record=rec))
    return list(reversed(entries))  # newest-first, like the index


class TestTrend:
    def test_stable_window_passes(self):
        report = compute_trend(entries_with_walls([1.0, 1.01, 0.99, 1.0]))
        assert report.passed
        assert report.drift == []
        assert report.outliers == []
        assert report.window == 4

    def test_wall_outlier_flagged_but_gate_passes(self):
        """The acceptance property: a slowed run flags the wall-clock
        outlier WITHOUT failing the deterministic gate."""
        report = compute_trend(entries_with_walls([1.0, 1.0, 1.0, 30.0]))
        assert report.passed  # outliers never fail the gate
        assert any(r.name == "wall_seconds" for r in report.outliers)
        assert report.outlier_ids == [4]  # the slow record's id

    def test_deterministic_drift_fails_gate(self):
        report = compute_trend(
            entries_with_walls([1.0, 1.0, 1.0],
                               cycles=[100, 100, 105]))
        assert not report.passed
        assert [r.name for r in report.drift] == ["faultsim.cycles"]

    def test_render_mentions_anomalies(self):
        report = compute_trend(entries_with_walls([1.0, 1.0, 25.0]))
        text = render_trend(report)
        assert "wall-clock outliers: " in text
        assert "wall_seconds" in text

    def test_custom_gates_and_threshold(self):
        entries = entries_with_walls([1.0, 1.0, 2.0])
        loose = compute_trend(entries, z_threshold=1e9)
        assert loose.outliers == []
        tight = compute_trend(entries, gates=("wall_seconds",))
        assert not tight.passed  # wall drift now gated deterministically


# -- runs: references --------------------------------------------------------


class TestRunsRefs:
    def test_is_runs_ref(self):
        assert is_runs_ref("runs:3") and is_runs_ref("runs:latest")
        assert not is_runs_ref("metrics.json")

    def test_resolve_by_id_and_latest(self, tmp_path):
        db = tmp_path / "runs.sqlite"
        index = RunIndex(db)
        first = index.append(make_record(wall=1.0))
        index.append(make_record(wall=2.0))
        assert load_runs_ref(f"runs:{first}", db)["gauges"][
            "wall_seconds"] == 1.0
        assert load_runs_ref("runs:latest", db)["gauges"][
            "wall_seconds"] == 2.0

    def test_errors_are_precise(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RUN_INDEX_ENV, raising=False)
        with pytest.raises(ValueError, match="no run index"):
            load_runs_ref("runs:1", None)
        db = tmp_path / "runs.sqlite"
        with pytest.raises(ValueError, match="empty"):
            load_runs_ref("runs:latest", db)
        RunIndex(db).append(make_record())
        with pytest.raises(ValueError, match="no record 99"):
            load_runs_ref("runs:99", db)
        with pytest.raises(ValueError, match="runs:<id>"):
            load_runs_ref("runs:abc", db)


# -- CLI ---------------------------------------------------------------------


@pytest.fixture
def seeded_index(tmp_path):
    """Three bit-identical records plus one slow outlier."""
    db = tmp_path / "runs.sqlite"
    index = RunIndex(db)
    for wall in (1.0, 1.01, 0.99):
        index.append(make_record(wall=wall))
    index.append(make_record(wall=40.0))
    return db


class TestRunsCli:
    def test_list(self, seeded_index, capsys):
        assert main(["runs", "list", "--run-index",
                     str(seeded_index)]) == 0
        out = capsys.readouterr().out
        assert "4 records" in out and "s27" in out

    def test_show(self, seeded_index, capsys):
        assert main(["runs", "show", "1", "--run-index",
                     str(seeded_index)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == RUN_RECORD_SCHEMA

    def test_show_missing(self, seeded_index, capsys):
        assert main(["runs", "show", "77", "--run-index",
                     str(seeded_index)]) == 1

    def test_compare_zero_drift(self, seeded_index, capsys):
        assert main(["runs", "compare", "1", "2", "--assert",
                     "--run-index", str(seeded_index)]) == 0
        assert "zero drift" in capsys.readouterr().out

    def test_compare_assert_fails_on_drift(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        index = RunIndex(db)
        index.append(make_record(cycles=100))
        index.append(make_record(cycles=200))
        assert main(["runs", "compare", "1", "2", "--assert",
                     "--run-index", str(db)]) == 1
        assert "DRIFT faultsim.cycles" in capsys.readouterr().out

    def test_trend_assert_passes_with_outlier(self, seeded_index, capsys):
        assert main(["runs", "trend", "--assert",
                     "--run-index", str(seeded_index)]) == 0
        out = capsys.readouterr().out
        assert "trend gate passed" in out
        assert "outlier" in out

    def test_trend_assert_fails_on_drift(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        index = RunIndex(db)
        index.append(make_record(cycles=100))
        index.append(make_record(cycles=105))
        assert main(["runs", "trend", "--assert",
                     "--run-index", str(db)]) == 1
        assert "TREND GATE FAILED" in capsys.readouterr().out

    def test_gc(self, seeded_index, capsys):
        assert main(["runs", "gc", "--keep", "1",
                     "--run-index", str(seeded_index)]) == 0
        assert RunIndex(seeded_index).count() == 1

    def test_diff_metrics_accepts_runs_refs(self, seeded_index, capsys):
        assert main(["diff-metrics", "runs:1", "runs:2",
                     "--run-index", str(seeded_index),
                     "--threshold", "faultsim.*=0"]) == 0
        assert "all thresholds satisfied" in capsys.readouterr().out

    def test_diff_metrics_bad_ref(self, tmp_path, capsys):
        db = tmp_path / "runs.sqlite"
        RunIndex(db).append(make_record())
        assert main(["diff-metrics", "runs:1", "runs:9",
                     "--run-index", str(db)]) == 2

    def test_generate_flag_roundtrip(self, tmp_path, capsys):
        db = tmp_path / "cli-runs.sqlite"
        for _ in range(2):
            assert main(["generate", "s27", "--run-index", str(db)]) == 0
        capsys.readouterr()
        assert main(["runs", "trend", "--assert",
                     "--run-index", str(db)]) == 0
        assert "0 drifting" in capsys.readouterr().out
