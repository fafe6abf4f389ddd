"""Tests for the fault-tolerant parallel campaign runner
(:mod:`repro.harness.runner`): deterministic merging, bit-identity with
the serial path for any worker count, checkpoint/resume (including a
SIGKILLed campaign), retry/backoff for transient failures, and graceful
degradation."""

import glob
import json
import os
import signal
import subprocess
import sys
import time
import types

import pytest

from repro.harness import store
from repro.harness.results import ExperimentTable, merge_tables
from repro.harness.runner import (
    CampaignCell,
    CampaignRunner,
    TRANSIENT_KINDS,
    build_all_cells,
)
from repro.telemetry import merge_dumps


# ---------------------------------------------------------------------------
# module-level experiment functions (must be importable: they cross a
# process boundary, and the SIGKILL test re-imports this module)
# ---------------------------------------------------------------------------

def _table(tag="row", value=1.0, name="t"):
    table = ExperimentTable(name=name, description="test table",
                            columns=["v"])
    table.add_row(tag, [value])
    return table


def _ok_cell(tag="row", value=1.0, quick=False, workloads=None):
    return _table(tag, value)


def _crash_cell(tag="row", quick=False, workloads=None):
    raise RuntimeError("deterministic boom")


def _flaky_cell(marker, tag="flaky"):
    """Dies with a raw exit (-> ChildCrash) until ``marker`` exists, then
    succeeds — a transient failure the runner should retry through."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        os._exit(13)
    return _table(tag)


def _always_crashing_child(tag="row"):
    os._exit(13)


def _hang_unless_reseeded(seed=0):
    """Raises SimulationHang for the original seed; any reseeded attempt
    (seed bumped past 1000) succeeds."""
    if seed < 1000:
        from repro.chaos.watchdog import HangDiagnostic, SimulationHang

        raise SimulationHang(
            HangDiagnostic(cycle=1.0, cycle_budget=1.0,
                           blocks_remaining=1, committed=0)
        )
    return _table(f"seed{seed}")


def _wait_for_file_gone(block, tag="slow"):
    deadline = time.time() + 120
    while os.path.exists(block) and time.time() < deadline:
        time.sleep(0.05)
    return _table(tag)


def _sigkill_cells(out_root):
    """The two-cell campaign used by the SIGKILL test: a fast cell and a
    cell that blocks while ``<out_root>/block`` exists.  Built from the
    out_root so the parent test and the killed subprocess agree on the
    cells' config hashes."""
    block = os.path.join(out_root, "block")
    return [
        CampaignCell(key="fast", fn=_ok_cell, kwargs={"tag": "fast"},
                     group="g"),
        CampaignCell(key="slow", fn=_wait_for_file_gone,
                     kwargs={"block": block}, group="g"),
    ]


def _sigkill_driver(out_root):
    """Subprocess entry for the SIGKILL test."""
    runner = CampaignRunner(
        _sigkill_cells(out_root), workers=1,
        out_dir=os.path.join(out_root, "campaign"),
    )
    runner.run()


def _sigkill_resume(out_root):
    """Subprocess entry for the resume leg of the SIGKILL test: resumes
    the killed campaign and dumps the outcome summary as JSON.  Runs in a
    subprocess so the cells' config hashes (which include the experiment
    function's module name) match the killed driver's."""
    runner = CampaignRunner(
        _sigkill_cells(out_root), workers=1,
        out_dir=os.path.join(out_root, "campaign"), resume=True,
    )
    result = runner.run()
    summary = {
        "skipped": result.skipped,
        "completed": result.completed,
        "rows": list(result.tables["g"].rows),
    }
    with open(os.path.join(out_root, "resume.json"), "w") as fh:
        json.dump(summary, fh)


# ---------------------------------------------------------------------------
# merging
# ---------------------------------------------------------------------------

class TestMergeTables:
    def _shard(self, labels, note=None):
        t = ExperimentTable(name="m", description="d", columns=["a", "b"])
        for i, label in enumerate(labels):
            t.add_row(label, [float(i), float(i) * 2])
        if note:
            t.notes.append(note)
        return t

    def test_rows_concatenate_in_shard_order(self):
        merged = merge_tables([self._shard(["x"]), self._shard(["y", "z"])])
        assert list(merged.rows) == ["x", "y", "z"]
        assert merged.columns == ["a", "b"]

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError, match="duplicate row"):
            merge_tables([self._shard(["x"]), self._shard(["x"])])

    def test_column_mismatch_rejected(self):
        other = ExperimentTable(name="m", description="d", columns=["a"])
        other.add_row("y", [1.0])
        with pytest.raises(ValueError, match="columns"):
            merge_tables([self._shard(["x"]), other])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_tables([])

    def test_notes_dedup_first_occurrence(self):
        merged = merge_tables(
            [self._shard(["x"], note="n1"), self._shard(["y"], note="n1"),
             self._shard(["z"], note="n2")]
        )
        assert merged.notes == ["n1", "n2"]

    def test_roundtrip_and_row_prefix(self):
        t = self._shard(["x"])
        clone = ExperimentTable.from_dict(t.to_dict())
        assert clone.to_dict() == t.to_dict()
        prefixed = t.with_row_prefix("wl/")
        assert list(prefixed.rows) == ["wl/x"]
        assert t.with_row_prefix("") is t


class TestMergeDumps:
    def test_values_sum_and_rollup_recomputed(self):
        d1 = {"counters": {"a.x": 1, "a.y": 2}, "metadata": {"who": "d1"}}
        d2 = {"counters": {"a.x": 10}, "metadata": {"who": "d2"}}
        merged = merge_dumps([d1, d2])
        assert merged["counters"] == {"a.x": 11, "a.y": 2}
        assert merged["rollup"]["a"]["_total"] == 13
        assert merged["metadata"]["who"] == "d1"  # first writer wins
        assert merged["metadata"]["merged_dumps"] == 2

    def test_merge_is_order_sensitive_only_in_metadata(self):
        d1 = {"counters": {"a": 1}, "metadata": {"who": "d1"}}
        d2 = {"counters": {"a": 2}, "metadata": {"who": "d2"}}
        fwd, rev = merge_dumps([d1, d2]), merge_dumps([d2, d1])
        assert fwd["counters"] == rev["counters"]


# ---------------------------------------------------------------------------
# bit-identity with the serial path
# ---------------------------------------------------------------------------

class TestParallelBitIdentity:
    WORKLOADS = ["saxpy", "stream-sum"]

    @pytest.fixture(scope="class")
    def serial_table(self):
        from repro.harness.experiments import run_fig10

        return run_fig10(workloads=self.WORKLOADS).to_dict()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_match_serial(self, workers, serial_table):
        from repro.harness.experiments import run_fig10

        cells = build_all_cells({"fig10": run_fig10},
                                workloads=self.WORKLOADS)
        result = CampaignRunner(cells, workers=workers,
                                echo=lambda _: None).run()
        assert result.ok
        assert result.tables["fig10"].to_dict() == serial_table

    def test_cells_cover_every_workload_in_order(self):
        from repro.harness.experiments import run_fig10

        cells = build_all_cells({"fig10": run_fig10},
                                workloads=self.WORKLOADS)
        assert [c.key for c in cells] == [
            "fig10/saxpy", "fig10/stream-sum"
        ]

    def test_unsharded_and_custom_experiments_single_cell(self):
        cells = build_all_cells({"table2": lambda: None,
                                 "custom": _ok_cell})
        by_key = {c.key: c for c in cells}
        assert by_key["table2"].kwargs == {}
        assert by_key["custom"].kwargs == {"quick": False}


# ---------------------------------------------------------------------------
# checkpoints + resume
# ---------------------------------------------------------------------------

class TestCheckpointResume:
    def _cells(self, n=3):
        return [
            CampaignCell(key=f"g/c{i}", fn=_ok_cell,
                         kwargs={"tag": f"c{i}"}, group="g")
            for i in range(n)
        ]

    def test_resume_requires_out_dir(self):
        with pytest.raises(ValueError, match="resume"):
            CampaignRunner(self._cells(), resume=True)

    def test_duplicate_keys_rejected(self):
        cells = self._cells(1) * 2
        with pytest.raises(ValueError, match="duplicate"):
            CampaignRunner(cells)

    def test_resume_skips_completed_cells(self, tmp_path):
        out = str(tmp_path / "camp")
        first = CampaignRunner(self._cells(), out_dir=out,
                               echo=lambda _: None).run()
        assert first.completed == ["g/c0", "g/c1", "g/c2"]
        second = CampaignRunner(self._cells(), out_dir=out, resume=True,
                                echo=lambda _: None).run()
        assert second.completed == []
        assert second.skipped == ["g/c0", "g/c1", "g/c2"]
        assert second.tables["g"].to_dict() == first.tables["g"].to_dict()

    def test_stale_checkpoint_reexecutes(self, tmp_path):
        out = str(tmp_path / "camp")
        CampaignRunner(self._cells(), out_dir=out,
                       echo=lambda _: None).run()
        changed = [
            CampaignCell(key="g/c0", fn=_ok_cell,
                         kwargs={"tag": "c0", "value": 2.0}, group="g")
        ]
        result = CampaignRunner(changed, out_dir=out, resume=True,
                                echo=lambda _: None).run()
        assert result.skipped == []
        assert result.completed == ["g/c0"]
        assert result.tables["g"].rows["c0"] == [2.0]

    def test_failed_checkpoint_reexecutes(self, tmp_path):
        out = str(tmp_path / "camp")
        marker = str(tmp_path / "marker")
        cells = [CampaignCell(key="g/flaky", fn=_flaky_cell,
                              kwargs={"marker": marker}, group="g")]
        first = CampaignRunner(cells, out_dir=out, max_attempts=1,
                               echo=lambda _: None).run()
        assert first.failed == ["g/flaky"]
        assert first.failures[0].kind == "ChildCrash"
        # same config hash, but the recorded failure must not be trusted
        second = CampaignRunner(cells, out_dir=out, resume=True,
                                max_attempts=1, echo=lambda _: None).run()
        assert second.completed == ["g/flaky"]
        assert second.ok

    def test_truncated_checkpoint_reexecutes(self, tmp_path):
        out = str(tmp_path / "camp")
        cells = self._cells(1)
        runner = CampaignRunner(cells, out_dir=out, echo=lambda _: None)
        runner.run()
        path = runner.campaign.checkpoint_path(cells[0])
        with open(path, "w") as fh:
            fh.write('{"version": 1, "status": "ok"')  # torn write
        result = CampaignRunner(cells, out_dir=out, resume=True,
                                echo=lambda _: None).run()
        assert result.completed == [cells[0].key]

    def test_non_numeric_row_checkpoint_reexecutes(self, tmp_path):
        out = str(tmp_path / "camp")
        cells = self._cells(1)
        runner = CampaignRunner(cells, out_dir=out, echo=lambda _: None)
        runner.run()
        path = runner.campaign.checkpoint_path(cells[0])
        data = store.read_json(path)
        data["table"]["rows"]["c0"] = ["fast"]
        store.write_json(path, data, compress=True)
        result = CampaignRunner(cells, out_dir=out, resume=True,
                                echo=lambda _: None).run()
        assert result.completed == [cells[0].key]
        assert result.tables["g"].rows["c0"] == [1.0]

    def test_manifest_and_counters_written(self, tmp_path):
        out = str(tmp_path / "camp")
        result = CampaignRunner(self._cells(2), out_dir=out,
                                echo=lambda _: None).run()
        manifest = json.load(open(result.manifest_path))
        assert manifest["totals"] == {
            "cells": 2, "completed": 2, "skipped": 0, "failed": 0,
            "not_run": 0,
        }
        assert [c["status"] for c in manifest["cells"]] == ["ok", "ok"]
        # counters.json is the deterministic merge: per-cell dumps only,
        # in cell order — identical bytes for any worker count/placement.
        counters = json.load(open(result.counters_path))
        assert counters["counters"]["harness.cell.attempts"] == 2
        assert "harness.campaign.completed" not in counters["counters"]
        assert counters["metadata"]["merged_dumps"] == 2
        # ops_counters.json folds in the run-shape campaign counters.
        ops = json.load(open(result.ops_counters_path))
        assert ops["counters"]["harness.campaign.completed"] == 2
        assert ops["counters"]["harness.cell.attempts"] == 2
        assert ops["metadata"]["merged_dumps"] == 3  # campaign + 2 cells
        # tables.json is the canonical merged-table artifact.
        tables = json.load(open(result.tables_path))
        assert set(tables) == set(result.tables)

    def test_torn_manifest_reruns_uncorroborated_checkpoint(self, tmp_path):
        """A driver killed between the checkpoint write and the manifest
        rewrite leaves a valid checkpoint the manifest never
        acknowledged.  Resume must surface it as stale-and-rerun, not
        silently restore it."""
        out = str(tmp_path / "camp")
        cells = self._cells(2)
        runner = CampaignRunner(cells, out_dir=out, echo=lambda _: None)
        runner.run()
        # Simulate the torn write: roll the manifest back to a state that
        # predates the second cell's checkpoint.
        manifest_path = os.path.join(out, "manifest.json")
        manifest = json.load(open(manifest_path))
        for entry in manifest["cells"]:
            if entry["key"] == cells[1].key:
                entry["status"] = "not-run"
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        lines = []
        second = CampaignRunner(cells, out_dir=out, resume=True,
                                echo=lines.append).run()
        assert second.skipped == [cells[0].key]
        assert second.completed == [cells[1].key]
        assert second.counters["counters"]["harness.campaign.torn"] == 1
        assert any("torn" in line for line in lines)

    def test_missing_manifest_reruns_all_checkpoints(self, tmp_path):
        """No manifest at all (killed before the first rewrite, or a
        deleted file) corroborates nothing: every checkpoint is torn."""
        out = str(tmp_path / "camp")
        cells = self._cells(2)
        CampaignRunner(cells, out_dir=out, echo=lambda _: None).run()
        os.remove(os.path.join(out, "manifest.json"))
        second = CampaignRunner(cells, out_dir=out, resume=True,
                                echo=lambda _: None).run()
        assert second.skipped == []
        assert second.completed == [c.key for c in cells]
        assert second.counters["counters"]["harness.campaign.torn"] == 2

    def test_sigkilled_campaign_resumes(self, tmp_path):
        """SIGKILL the campaign process mid-run; --resume must skip the
        checkpointed cell and finish only the interrupted one."""
        out_root = str(tmp_path)
        block = os.path.join(out_root, "block")
        with open(block, "w"):
            pass
        out = os.path.join(out_root, "campaign")
        repo_src = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(repo_src, "src"),
             os.path.join(repo_src, "tests"),
             env.get("PYTHONPATH", "")]
        )
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "from test_campaign_runner import _sigkill_driver;"
             f" _sigkill_driver({out_root!r})"],
            env=env, cwd=repo_src,
        )
        try:
            cells_dir = os.path.join(out, "cells")
            deadline = time.time() + 60

            def fast_checkpointed():
                return glob.glob(os.path.join(cells_dir, "fast.*.json"))

            while not fast_checkpointed():
                assert proc.poll() is None, "driver exited early"
                assert time.time() < deadline, "fast cell never checkpointed"
                time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        os.remove(block)  # unblock the slow cell for the resumed run
        subprocess.run(
            [sys.executable, "-c",
             "from test_campaign_runner import _sigkill_resume;"
             f" _sigkill_resume({out_root!r})"],
            env=env, cwd=repo_src, check=True, timeout=120,
        )
        summary = json.load(open(os.path.join(out_root, "resume.json")))
        assert summary["skipped"] == ["fast"]
        assert summary["completed"] == ["slow"]
        assert summary["rows"] == ["fast", "slow"]


# ---------------------------------------------------------------------------
# retry / backoff
# ---------------------------------------------------------------------------

class TestRetryBackoff:
    def test_transient_kinds(self):
        assert TRANSIENT_KINDS == {"Timeout", "SimulationHang", "ChildCrash"}

    def test_transient_failure_retried_until_success(self, tmp_path):
        marker = str(tmp_path / "marker")
        sleeps = []
        cells = [CampaignCell(key="flaky", fn=_flaky_cell,
                              kwargs={"marker": marker}, group="g")]
        result = CampaignRunner(cells, max_attempts=3, backoff_base=0.25,
                                sleep=sleeps.append,
                                echo=lambda _: None).run()
        assert result.ok
        assert sleeps == [0.25]  # one retry, base delay
        assert result.counters["counters"]["harness.campaign.retries"] == 1

    def test_backoff_schedule_exponential_and_bounded(self):
        sleeps = []
        cells = [CampaignCell(key="dead", fn=_always_crashing_child,
                              group="g")]
        result = CampaignRunner(cells, max_attempts=4, backoff_base=0.5,
                                backoff_cap=1.5, sleep=sleeps.append,
                                echo=lambda _: None).run()
        assert result.failed == ["dead"]
        # 4 attempts => 3 backoffs: 0.5, 1.0, then capped at 1.5
        assert sleeps == [0.5, 1.0, 1.5]
        failure = result.failures[0]
        assert failure.kind == "ChildCrash"
        assert failure.attempts == 4

    def test_deterministic_failure_fails_fast(self):
        sleeps = []
        cells = [CampaignCell(key="boom", fn=_crash_cell, group="g")]
        result = CampaignRunner(cells, max_attempts=5, sleep=sleeps.append,
                                echo=lambda _: None).run()
        assert sleeps == []  # RuntimeError is not transient: no retry
        assert result.failures[0].kind == "RuntimeError"
        assert len(result.failures[0].traceback_text) > 0

    def test_hang_retries_reseeded(self):
        cells = [CampaignCell(key="hang", fn=_hang_unless_reseeded,
                              kwargs={"seed": 7}, group="g")]
        result = CampaignRunner(cells, max_attempts=2,
                                sleep=lambda _: None,
                                echo=lambda _: None).run()
        assert result.ok
        assert list(result.tables["g"].rows) == ["seed1007"]

    def test_ledger_persisted_in_checkpoint(self, tmp_path):
        out = str(tmp_path / "camp")
        marker = str(tmp_path / "marker")
        cells = [CampaignCell(key="flaky", fn=_flaky_cell,
                              kwargs={"marker": marker}, group="g")]
        runner = CampaignRunner(cells, out_dir=out, max_attempts=3,
                                backoff_base=0.1, sleep=lambda _: None,
                                echo=lambda _: None)
        runner.run()
        ckpt = store.read_json(runner.campaign.checkpoint_path(cells[0]))
        assert [e["status"] for e in ckpt["ledger"]] == ["failed", "ok"]
        assert ckpt["ledger"][0]["kind"] == "ChildCrash"
        assert ckpt["ledger"][0]["backoff_s"] == 0.1

    def test_keep_going_completes_remaining_cells(self):
        cells = [
            CampaignCell(key="a-boom", fn=_crash_cell, group="a"),
            CampaignCell(key="b-ok", fn=_ok_cell, group="b"),
            CampaignCell(key="c-boom", fn=_crash_cell, group="c"),
        ]
        result = CampaignRunner(cells, keep_going=True,
                                echo=lambda _: None).run()
        assert result.failed == ["a-boom", "c-boom"]
        assert result.completed == ["b-ok"]
        assert not result.ok
        assert result.failed_groups == ["a", "c"]

    def test_stop_on_failure_leaves_cells_not_run(self):
        cells = [
            CampaignCell(key="a-boom", fn=_crash_cell, group="a"),
            CampaignCell(key="b-ok", fn=_ok_cell, group="b"),
        ]
        result = CampaignRunner(cells, keep_going=False,
                                echo=lambda _: None).run()
        assert result.failed == ["a-boom"]
        assert result.not_run == ["b-ok"]
        assert not result.ok


# ---------------------------------------------------------------------------
# graceful degradation
# ---------------------------------------------------------------------------

class TestDegradation:
    def test_no_start_method_degrades_to_serial(self, monkeypatch):
        import repro.harness.runner as runner_mod

        monkeypatch.setattr(
            runner_mod, "process_isolation_available", lambda: False
        )
        warnings = []
        cells = [CampaignCell(key=f"c{i}", fn=_ok_cell,
                              kwargs={"tag": f"c{i}"}, group="g")
                 for i in range(3)]
        result = CampaignRunner(cells, workers=4,
                                echo=warnings.append).run()
        assert result.ok
        assert result.degraded
        assert any("falling back to serial" in w for w in warnings)
        assert result.counters["counters"]["harness.campaign.degraded"] == 1

    def test_pool_setup_failure_degrades_to_serial(self, monkeypatch):
        import threading

        import repro.harness.runner as runner_mod

        def exploding_thread(*args, **kwargs):
            raise RuntimeError("can't start new thread")

        stub = types.SimpleNamespace(
            Thread=exploding_thread,
            Lock=threading.Lock,
            Event=threading.Event,
            get_ident=threading.get_ident,
        )
        monkeypatch.setattr(runner_mod, "threading", stub)
        warnings = []
        cells = [CampaignCell(key=f"c{i}", fn=_ok_cell,
                              kwargs={"tag": f"c{i}"}, group="g")
                 for i in range(2)]
        result = CampaignRunner(cells, workers=2,
                                echo=warnings.append).run()
        assert result.ok
        assert result.degraded
        assert result.completed == ["c0", "c1"]
        assert any("worker pool setup failed" in w for w in warnings)


# ---------------------------------------------------------------------------
# workers=auto
# ---------------------------------------------------------------------------

class TestWorkersAuto:
    def _one_cell(self):
        return [CampaignCell(key="c0", fn=_ok_cell, group="g")]

    def test_auto_resolves_from_cpu_count_and_logs(self, monkeypatch):
        from repro.harness import runner as runner_mod

        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 3)
        lines = []
        runner = CampaignRunner(self._one_cell(), workers="auto",
                                echo=lines.append)
        assert runner.workers == 3
        assert any("workers=auto -> 3" in line for line in lines)

    def test_auto_clamps_to_cap(self, monkeypatch):
        from repro.harness import runner as runner_mod

        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: 128)
        runner = CampaignRunner(self._one_cell(), workers="auto",
                                echo=lambda _: None)
        assert runner.workers == runner_mod.AUTO_WORKERS_CAP

    def test_auto_survives_unknown_cpu_count(self, monkeypatch):
        from repro.harness import runner as runner_mod

        monkeypatch.setattr(runner_mod.os, "cpu_count", lambda: None)
        runner = CampaignRunner(self._one_cell(), workers="auto",
                                echo=lambda _: None)
        assert runner.workers == 1

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError, match="auto"):
            CampaignRunner(self._one_cell(), workers="turbo",
                           echo=lambda _: None)

    def test_cli_accepts_auto(self, monkeypatch, capsys):
        import repro.harness.__main__ as cli

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {"ok": _ok_cell})
        assert cli.main(["ok", "--workers", "auto"]) == 0

    def test_cli_rejects_garbage(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc_info:
            main(["fig10", "--workers", "fast"])
        assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestCampaignCli:
    def test_parallel_all_keeps_going_and_exits_nonzero(
        self, monkeypatch, capsys
    ):
        import repro.harness.__main__ as cli

        monkeypatch.setattr(
            cli, "ALL_EXPERIMENTS",
            {"a-boom": _crash_cell, "b-ok": _ok_cell,
             "c-boom": _crash_cell},
        )
        code = cli.main(["all", "--workers", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert "test table" in captured.out
        assert "2 experiment(s) failed" in captured.err
        assert "(1 completed)" in captured.err

    def test_out_and_resume_flags(self, monkeypatch, capsys, tmp_path):
        import repro.harness.__main__ as cli

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {"ok": _ok_cell})
        out = str(tmp_path / "camp")
        assert cli.main(["ok", "--out", out]) == 0
        capsys.readouterr()
        assert cli.main(["ok", "--out", out, "--resume"]) == 0
        captured = capsys.readouterr()
        assert "restored from checkpoint" in captured.err
        assert "test table" in captured.out

    def test_resume_without_out_is_a_usage_error(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc_info:
            main(["fig10", "--resume"])
        assert exc_info.value.code == 2

    def test_chaos_soak_mode(self, capsys, tmp_path):
        from repro.harness.__main__ import main

        out = str(tmp_path / "soak")
        code = main(
            ["chaos", "--workloads", "saxpy", "--seeds", "3", "--schemes",
             "replay-queue", "--intensity", "5", "--workers", "2",
             "--out", out]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "saxpy/s3/replay-queue" in captured.out
        assert os.path.exists(os.path.join(out, "manifest.json"))

    def test_chaos_without_workload_errors(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit) as exc_info:
            main(["chaos"])
        assert exc_info.value.code == 2

    def test_campaign_flags_documented(self, capsys):
        from repro.harness.__main__ import main

        with pytest.raises(SystemExit):
            main(["--help"])
        help_text = capsys.readouterr().out
        for flag in ("--workers", "--out", "--resume", "--max-attempts",
                     "--backoff-base"):
            assert flag in help_text


# ---------------------------------------------------------------------------
# adaptive per-cell timeouts (history-derived from the previous manifest)
# ---------------------------------------------------------------------------

def _slow_until_marker(marker, tag="slow"):
    """Sleeps past any reasonable adaptive timeout on the first attempt
    (creating ``marker``), returns promptly once the marker exists — a
    cell whose adaptive timeout was simply too tight."""
    if not os.path.exists(marker):
        with open(marker, "w"):
            pass
        time.sleep(30)
    return _table(tag)


class TestAdaptiveTimeouts:
    def _cell(self, **kwargs):
        return CampaignCell(key="g/ok", fn=_ok_cell, kwargs=kwargs,
                            group="g")

    def test_derived_from_previous_manifest(self, tmp_path):
        out = str(tmp_path / "camp")
        cells = [self._cell()]
        assert CampaignRunner(cells, out_dir=out,
                              echo=lambda m: None).run().ok
        runner = CampaignRunner(cells, out_dir=out, echo=lambda m: None)
        result = runner.run()
        assert result.ok
        # a sub-second cell gets the floor, not a sub-second timeout
        assert runner.campaign.timeouts == {"g/ok": 10.0}
        assert result.counters["counters"][
            "harness.campaign.adaptive_timeouts"] == 1

    def test_caps_at_campaign_timeout_and_scales_duration(self, tmp_path):
        cell = self._cell()
        entry = {"status": "ok", "config_hash": cell.config_hash(),
                 "duration_s": 100.0}
        capped = CampaignRunner([cell], out_dir=str(tmp_path), timeout=50.0,
                                echo=lambda m: None)
        capped.campaign.seed_timeouts({"g/ok": entry})
        assert capped.campaign.timeouts == {"g/ok": 50.0}
        free = CampaignRunner([cell], out_dir=str(tmp_path),
                              echo=lambda m: None)
        free.campaign.seed_timeouts({"g/ok": entry})
        assert free.campaign.timeouts == {"g/ok": 400.0}

    def test_ignores_stale_failed_or_missing_history(self, tmp_path):
        cell = self._cell()
        runner = CampaignRunner([cell], out_dir=str(tmp_path),
                                echo=lambda m: None)
        runner.campaign.seed_timeouts({
            "g/ok": {"status": "ok", "config_hash": "deadbeef",
                     "duration_s": 5.0},
        })
        runner.campaign.seed_timeouts({
            "g/ok": {"status": "failed",
                     "config_hash": cell.config_hash(),
                     "duration_s": 5.0},
        })
        runner.campaign.seed_timeouts({})
        assert runner.campaign.timeouts == {}

    def test_disabled_derives_nothing(self, tmp_path):
        out = str(tmp_path / "camp")
        cells = [self._cell()]
        assert CampaignRunner(cells, out_dir=out,
                              echo=lambda m: None).run().ok
        runner = CampaignRunner(cells, out_dir=out, adaptive_timeout=False,
                                echo=lambda m: None)
        assert runner.run().ok
        assert runner.campaign.timeouts == {}

    def test_timeout_retry_escalates_allowance(self, tmp_path):
        marker = str(tmp_path / "marker")
        cell = CampaignCell(key="g/slow", fn=_slow_until_marker,
                            kwargs={"marker": marker}, group="g")
        runner = CampaignRunner([cell], max_attempts=3,
                                sleep=lambda s: None, echo=lambda m: None)
        runner.campaign.timeouts["g/slow"] = 2.0
        outcome = runner._run_cell(cell)
        assert outcome.ok
        first, second = outcome.ledger[0], outcome.ledger[1]
        assert first["status"] == "failed" and first["kind"] == "Timeout"
        assert first["timeout_s"] == 2.0
        assert second["status"] == "ok"

    def test_cli_flag_plumbed(self, monkeypatch, tmp_path, capsys):
        import repro.harness.__main__ as cli

        monkeypatch.setattr(cli, "ALL_EXPERIMENTS", {"ok": _ok_cell})
        out = str(tmp_path / "camp")
        assert cli.main(["ok", "--out", out]) == 0
        capsys.readouterr()
        assert cli.main(["ok", "--out", out, "--no-adaptive-timeout"]) == 0
        assert "adaptive timeouts derived" not in capsys.readouterr().err
        assert cli.main(["ok", "--out", out]) == 0
        assert "adaptive timeouts derived" in capsys.readouterr().err
