"""Tests for the distributed campaign layer (:mod:`repro.harness.dist`,
:mod:`repro.harness.distproto`): wire-protocol round-trips, byte-identity
of the distributed merge with the serial runner, equal campaign counters
from both drivers, coordinator crash and cross-process resume,
lease-expiry steals with duplicate-upload dedup, 400 replies to
malformed requests, gzip checkpoint back-compat, shared timeout-history
flushes and the campaign dry-run."""

import gzip
import json
import os
import threading
import time

import pytest

from repro.harness import store
from repro.harness.dist import (
    CampaignCoordinator,
    DistWorker,
    EXIT_COORDINATOR_LOST,
    EXIT_OK,
    EXIT_PROTOCOL,
    spawn_worker,
)
from repro.harness.dist_bench import campaign_counters, run_dist_bench_cell
from repro.harness.distproto import (
    ProtocolError,
    cell_from_wire,
    cell_to_wire,
    check_version,
    post_json,
)
from repro.harness.runner import (
    CampaignCell,
    CampaignRunner,
    ExecutionPolicy,
    execute_cell,
    render_dry_run,
)


def _cells(n, work_ms=10.0, prefix="bench"):
    """Sleep-calibrated cells whose function is importable from the
    installed package — required for anything that crosses the wire
    (workers reconstruct cells by module + qualname)."""
    return [
        CampaignCell(
            key=f"{prefix}/{i:03d}",
            fn=run_dist_bench_cell,
            kwargs=dict(cell_id=f"cell-{i:03d}", work_ms=work_ms),
            group="dist-bench",
        )
        for i in range(n)
    ]


def _artifacts(out_dir):
    blobs = {}
    for name in ("tables.json", "counters.json"):
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def _run_checkpoint(cell):
    """Execute one cell locally and return its checkpoint payload."""
    outcome = execute_cell(cell, ExecutionPolicy(timeout=None))
    assert outcome.ok
    return store.build_checkpoint(outcome)


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------

class TestWireProtocol:
    def test_cell_roundtrip(self):
        cell = _cells(1)[0]
        wire = cell_to_wire(cell)
        back = cell_from_wire(json.loads(json.dumps(wire)))
        assert back.key == cell.key
        assert back.fn is cell.fn
        assert back.kwargs == cell.kwargs
        assert back.group == cell.group
        assert back.config_hash() == cell.config_hash()

    def test_tampered_kwargs_rejected(self):
        """The declared config hash must match the reconstruction — a
        worker never silently runs a different computation."""
        wire = cell_to_wire(_cells(1)[0])
        wire["kwargs"]["work_ms"] = 9999.0
        with pytest.raises(ProtocolError, match="config hash"):
            cell_from_wire(wire)

    def test_unresolvable_function_rejected(self):
        wire = cell_to_wire(_cells(1)[0])
        wire["fn"] = {"module": "repro.no_such_module", "qualname": "f"}
        with pytest.raises(ProtocolError, match="resolve"):
            cell_from_wire(wire)

    def test_version_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="protocol"):
            check_version({"protocol": 999}, "coordinator")

    def test_result_hash_ignores_duration(self):
        """Lease-steal duplicates legitimately differ in wall-clock;
        the dedup hash covers status and table only."""
        ckpt = _run_checkpoint(_cells(1)[0])
        slower = dict(ckpt, duration_s=ckpt["duration_s"] + 17.0)
        assert store.result_hash(ckpt) == store.result_hash(slower)
        other = json.loads(json.dumps(ckpt))
        other["table"]["rows"]["cell-000"] = [123.0]
        assert store.result_hash(ckpt) != store.result_hash(other)


# ---------------------------------------------------------------------------
# byte-identity with the serial runner
# ---------------------------------------------------------------------------

class TestDistributedMerge:
    def test_distributed_matches_serial_bytes(self, tmp_path):
        """An in-process worker draining a loopback coordinator must
        produce tables.json and counters.json byte-identical to the
        serial runner's for the same matrix."""
        cells = _cells(6)
        serial_dir = str(tmp_path / "serial")
        dist_dir = str(tmp_path / "dist")
        serial = CampaignRunner(
            cells, out_dir=serial_dir, workers=1, echo=lambda m: None,
        ).run()
        assert serial.ok

        coord = CampaignCoordinator(
            cells, out_dir=dist_dir, echo=lambda m: None,
        )
        url = coord.start()
        worker = DistWorker(url, workers=2, name="t-w0",
                            echo=lambda m: None)
        code = worker.run()
        assert code == EXIT_OK
        assert coord.wait(10.0)
        coord.stop()
        result = coord.collect()
        assert result.ok
        assert result.completed == [c.key for c in cells]
        assert _artifacts(serial_dir) == _artifacts(dist_dir)
        # run-shape counters live in ops_counters.json, not in the
        # deterministic dump
        ops = store.read_json(result.ops_counters_path)
        assert ops["counters"]["harness.dist.uploads"] == len(cells)
        assert ops["counters"]["harness.dist.workers"] == 1

    def test_drivers_book_the_same_campaign_counters(self, tmp_path):
        """The local runner and a loopback fleet book the same
        harness.campaign.* counters, fresh and on a resume that restores
        two cells and re-runs one whose manifest entry was rolled back
        (a torn write)."""
        cells = _cells(3)
        local, fleet = str(tmp_path / "local"), str(tmp_path / "fleet")

        def run_local(resume=False):
            assert CampaignRunner(
                cells, workers=2, out_dir=local, resume=resume,
                echo=lambda m: None,
            ).run().ok

        def run_fleet(resume=False):
            coord = CampaignCoordinator(
                cells, out_dir=fleet, resume=resume, echo=lambda m: None,
            )
            url = coord.start()
            try:
                worker = DistWorker(url, name="t-books",
                                    echo=lambda m: None)
                assert worker.run() == EXIT_OK
                assert coord.wait(10.0)
            finally:
                coord.stop()
            assert coord.collect().ok

        run_local()
        run_fleet()
        assert campaign_counters(local) == campaign_counters(fleet)
        for out_dir in (local, fleet):
            path = store.manifest_path(out_dir)
            manifest = store.read_json(path)
            manifest["cells"][1]["status"] = "not-run"
            store.write_json(path, manifest)
        run_local(resume=True)
        run_fleet(resume=True)
        resumed = campaign_counters(local)
        assert resumed == campaign_counters(fleet)
        assert [resumed[f"harness.campaign.{leaf}"] for leaf in
                ("cells", "completed", "skipped", "torn")] == [3, 1, 2, 1]

    def test_worker_exits_2_on_protocol_mismatch(self, tmp_path):
        coord = CampaignCoordinator(
            _cells(1), out_dir=str(tmp_path / "c"), echo=lambda m: None,
        )
        url = coord.start()
        try:
            coord.describe = lambda: {"protocol": 999}
            worker = DistWorker(url, name="t-mismatch",
                                echo=lambda m: None)
            assert worker.run() == EXIT_PROTOCOL
        finally:
            coord.stop()


# ---------------------------------------------------------------------------
# coordinator crash and resume across processes
# ---------------------------------------------------------------------------

class TestCoordinatorCrash:
    def test_workers_exit_cleanly_and_resume_is_bit_identical(self,
                                                              tmp_path):
        """Kill the coordinator mid-campaign: subprocess workers notice
        the lost heartbeat and exit with code 3; a resumed coordinator
        restores the uploaded checkpoints and the completed campaign is
        byte-identical to a serial run of the same matrix."""
        cells = _cells(6, work_ms=300.0)
        serial_dir = str(tmp_path / "serial")
        dist_dir = str(tmp_path / "dist")
        serial = CampaignRunner(
            cells, out_dir=serial_dir, workers=1, echo=lambda m: None,
        ).run()
        assert serial.ok

        coord = CampaignCoordinator(
            cells, out_dir=dist_dir, lease_seconds=1.0,
            echo=lambda m: None,
        )
        url = coord.start()
        procs = [spawn_worker(url, name=f"t-crash-w{i}")
                 for i in range(2)]
        try:
            deadline = time.monotonic() + 60.0
            while coord.status()["done"] < 2:
                assert time.monotonic() < deadline, "no uploads arrived"
                time.sleep(0.05)
        except BaseException:
            for proc in procs:
                proc.kill()
            raise
        done_before = coord.status()["done"]
        assert done_before < len(cells), (
            "matrix finished before the crash could be simulated; "
            "use slower cells"
        )
        coord.stop()  # the "crash": the endpoint vanishes mid-campaign
        for proc in procs:
            proc.wait(timeout=60.0)
        assert [p.returncode for p in procs] == [
            EXIT_COORDINATOR_LOST, EXIT_COORDINATOR_LOST,
        ]

        resumed = CampaignCoordinator(
            cells, out_dir=dist_dir, resume=True, echo=lambda m: None,
        )
        url = resumed.start()
        assert resumed.status()["done"] >= done_before, (
            "resume must restore every checkpoint the crashed "
            "coordinator persisted"
        )
        procs = [spawn_worker(url, name=f"t-resume-w{i}")
                 for i in range(2)]
        try:
            assert resumed.wait(120.0)
            for proc in procs:
                proc.wait(timeout=60.0)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            resumed.stop()
        assert [p.returncode for p in procs] == [EXIT_OK, EXIT_OK]
        result = resumed.collect()
        assert result.ok
        assert _artifacts(serial_dir) == _artifacts(dist_dir)


# ---------------------------------------------------------------------------
# lease expiry, steals, duplicate uploads
# ---------------------------------------------------------------------------

class TestLeaseStealAndDedup:
    def _coordinator(self, tmp_path, lease_seconds=0.05):
        return CampaignCoordinator(
            _cells(1), out_dir=str(tmp_path / "steal"),
            lease_seconds=lease_seconds, echo=lambda m: None,
        )

    def test_expired_lease_is_stolen_and_duplicate_deduped(self,
                                                           tmp_path):
        coord = self._coordinator(tmp_path)
        first = coord.lease("w-slow")
        key = first["cell"]["key"]
        time.sleep(0.08)  # let w-slow's lease expire (no heartbeats)
        second = coord.lease("w-fast")
        assert second["cell"]["key"] == key
        ctr = coord.counters.to_dict()["counters"]
        assert ctr["harness.dist.steals"] == 1
        assert ctr["harness.dist.lease_expiries"] == 1

        ckpt = _run_checkpoint(coord.cells[0])
        status, body = coord.upload("w-fast", ckpt)
        assert (status, body["dedup"]) == (200, False)
        # the slow worker finishes anyway and re-uploads; durations
        # differ but the result hash matches -> deduplicated
        late = dict(ckpt, duration_s=ckpt["duration_s"] + 5.0)
        status, body = coord.upload("w-slow", late)
        assert (status, body["dedup"]) == (200, True)
        ctr = coord.counters.to_dict()["counters"]
        assert ctr["harness.dist.upload_dedup"] == 1
        assert ctr["harness.dist.uploads"] == 2
        assert coord.wait(0.0)

    def test_conflicting_duplicate_is_rejected_first_write_wins(
            self, tmp_path):
        coord = self._coordinator(tmp_path)
        coord.lease("w-a")
        ckpt = _run_checkpoint(coord.cells[0])
        assert coord.upload("w-a", ckpt)[0] == 200
        conflict = json.loads(json.dumps(ckpt))
        conflict["table"]["rows"]["cell-000"] = [999.0]
        status, body = coord.upload("w-b", conflict)
        assert status == 409
        ctr = coord.counters.to_dict()["counters"]
        assert ctr["harness.dist.upload_conflicts"] == 1
        # first write wins: the persisted checkpoint is the original
        kept = store.read_json(store.checkpoint_path(
            coord.out_dir, coord.cells[0].key,
            coord.cells[0].config_hash(),
        ))
        assert kept["table"]["rows"]["cell-000"] != [999.0]

    def test_invalid_upload_rejected(self, tmp_path):
        coord = self._coordinator(tmp_path)
        assert coord.upload("w", {"nonsense": 1})[0] == 400
        assert coord.upload("w", {"key": "no/such/cell"})[0] == 400
        bad = _run_checkpoint(coord.cells[0])
        bad["config_hash"] = "0" * 16
        assert coord.upload("w", bad)[0] == 400
        ctr = coord.counters.to_dict()["counters"]
        assert ctr["harness.dist.upload_rejected"] == 3

    @pytest.mark.parametrize("path,body", [
        ("/upload", lambda c: {"checkpoint": {**c, "key": [c["key"]]}}),
        ("/upload", lambda c: {"checkpoint": c, "upload_attempt": "two"}),
        ("/upload", lambda c: {"checkpoint": {**c, "ledger": ["ok"]}}),
        ("/upload", lambda c: {"checkpoint": {**c, "duration_s": "1s"}}),
        ("/upload", lambda c: {"checkpoint": {
            **c, "table": {**c["table"], "rows": [1.0]}}}),
        ("/upload", lambda c: {"checkpoint": {
            **c, "table": {**c["table"], "rows": {"cell-000": ["fast"]}}}}),
        ("/upload", lambda c: {"checkpoint": {
            **c, "table": {**c["table"], "rows": {"cell-000": [True]}}}}),
        ("/upload", lambda c: {"checkpoint": {
            **c, "status": "failed", "table": None,
            "failure": {"kind": "ChildCrash", "attempts": "three"}}}),
        ("/heartbeat", lambda c: {"keys": 5}),
        ("/heartbeat", lambda c: {"keys": [["x"]]}),
    ], ids=["upload-key-list", "upload-attempt-str", "upload-ledger-str",
            "upload-duration-str", "upload-table-rows-list",
            "upload-table-row-str", "upload-table-row-bool",
            "upload-failure-attempts-str", "heartbeat-keys-int",
            "heartbeat-keys-nested"])
    def test_malformed_request_answered_400(self, tmp_path, path, body):
        """A malformed field gets a 400 reply over HTTP, never a dropped
        connection (which a worker reads as a lost coordinator); the
        coordinator keeps serving and a valid upload still completes the
        cell."""
        coord = self._coordinator(tmp_path, lease_seconds=15.0)
        url = coord.start()
        try:
            ckpt = _run_checkpoint(coord.cells[0])
            status, reply = post_json(
                url + path, {"worker": "w", **body(ckpt)}, timeout=10.0,
            )
            assert status == 400 and reply["error"]
            rejected = coord.counters.to_dict()["counters"][
                "harness.dist.upload_rejected"]
            assert rejected == (1 if path == "/upload" else 0)
            status, reply = post_json(
                f"{url}/upload", {"worker": "w", "checkpoint": ckpt},
                timeout=10.0,
            )
            assert (status, reply["dedup"]) == (200, False)
            assert coord.wait(5.0)
        finally:
            coord.stop()

    def test_heartbeat_extends_and_reports_held_keys(self, tmp_path):
        coord = self._coordinator(tmp_path, lease_seconds=0.2)
        lease = coord.lease("w-a")
        key = lease["cell"]["key"]
        for _ in range(3):
            time.sleep(0.1)
            beat = coord.heartbeat("w-a", [key])
            assert beat["keys"] == [key]  # heartbeats keep it alive
        time.sleep(0.25)  # stop heartbeating; lease expires
        assert coord.lease("w-b")["cell"]["key"] == key
        assert coord.heartbeat("w-a", [key])["keys"] == [], (
            "a stolen lease must vanish from the old worker's heartbeat"
        )


# ---------------------------------------------------------------------------
# clean shutdown at the natural end of a campaign
# ---------------------------------------------------------------------------

class TestCleanShutdown:
    """The coordinator must not vanish before its workers learn the
    matrix is done — a worker whose next poll hits a closed socket
    would misreport the natural end of the campaign as a coordinator
    crash (exit 3 instead of 0)."""

    def test_linger_waits_for_unacked_workers(self, tmp_path):
        coord = CampaignCoordinator(
            _cells(1), out_dir=str(tmp_path / "linger"),
            echo=lambda m: None,
        )
        lease = coord.lease("w-a")
        assert coord.lease("w-b").get("wait")  # joins, gets no cell
        assert coord.upload("w-a", _run_checkpoint(coord.cells[0]))[0] == 200
        assert coord.lease("w-a").get("done")
        # w-b has not been told yet: linger must hold until the cap
        start = time.monotonic()
        coord.linger(timeout=0.3)
        assert time.monotonic() - start >= 0.25
        # once w-b hears "done" (here via heartbeat), linger is instant
        assert coord.heartbeat("w-b", [])["done"] is True
        start = time.monotonic()
        coord.linger(timeout=5.0)
        assert time.monotonic() - start < 1.0

    def test_fleet_workers_exit_zero_when_coordinator_run_completes(
            self, tmp_path):
        """End-to-end CLI shape: coordinator.run() serves, two worker
        subprocesses drain the matrix, and both must exit 0 — the
        coordinator lingers until they ack instead of closing the
        socket on the last upload."""
        coord = CampaignCoordinator(
            _cells(4, work_ms=50.0), out_dir=str(tmp_path / "fleet"),
            echo=lambda m: None,
        )
        url = coord.start()
        procs = [spawn_worker(url, name=f"z-w{i}") for i in range(2)]
        try:
            assert coord.wait(60.0)
            coord.linger()
            for proc in procs:
                assert proc.wait(timeout=30.0) == EXIT_OK
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
            coord.stop()
        assert coord.collect().ok

    def test_lost_coordinator_after_done_is_a_clean_exit(self):
        worker = DistWorker("http://127.0.0.1:1", echo=lambda m: None)
        worker._finish()
        worker._coordinator_lost("socket closed after the done ack")
        assert worker._lost is False
        assert worker._stop.is_set()


# ---------------------------------------------------------------------------
# gzip checkpoints, shared timeout history, dry-run
# ---------------------------------------------------------------------------

class TestGzipCheckpoints:
    def test_write_compressed_read_sniffed(self, tmp_path):
        path = str(tmp_path / "blob.json")
        payload = {"a": [1, 2, 3], "b": "x"}
        store.write_json(path, payload, compress=True)
        with open(path, "rb") as fh:
            assert fh.read(2) == store.GZIP_MAGIC
        assert store.read_json(path) == payload

    def test_compressed_bytes_are_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        store.write_json(a, {"k": 1}, compress=True)
        time.sleep(0.02)  # a gzip timestamp would differ across these
        store.write_json(b, {"k": 1}, compress=True)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_plain_json_still_readable(self, tmp_path):
        path = str(tmp_path / "legacy.json")
        with open(path, "w") as fh:
            json.dump({"old": True}, fh)
        assert store.read_json(path) == {"old": True}

    def test_resume_restores_legacy_uncompressed_checkpoint(
            self, tmp_path):
        """Campaign directories written before checkpoint compression
        must keep resuming."""
        cells = _cells(1)
        out = str(tmp_path / "campaign")
        first = CampaignRunner(
            cells, out_dir=out, workers=1, echo=lambda m: None,
        ).run()
        assert first.ok
        ckpt_path = store.checkpoint_path(
            out, cells[0].key, cells[0].config_hash()
        )
        data = store.read_json(ckpt_path)
        with open(ckpt_path, "w") as fh:  # rewrite as the old format
            json.dump(data, fh)
        with open(ckpt_path, "rb") as fh:
            assert fh.read(2) != store.GZIP_MAGIC
        resumed = CampaignRunner(
            cells, out_dir=out, workers=1, resume=True,
            echo=lambda m: None,
        ).run()
        assert resumed.ok
        assert resumed.skipped == [cells[0].key]


class TestSharedTimeoutHistory:
    def test_concurrent_flushes_union(self, tmp_path):
        """Workers sharing a campaign directory flush their timeout
        histories concurrently; the atomic read-modify-write must keep
        every entry."""
        out = str(tmp_path)
        cells = _cells(8)
        errors = []

        def flush_one(cell, duration):
            history = store.TimeoutHistory()
            history.record(cell, duration)
            try:
                history.flush(out)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=flush_one, args=(cell, 0.1 * (i + 1)))
            for i, cell in enumerate(cells)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        merged = store.TimeoutHistory.load(out)
        assert set(merged) == {cell.key for cell in cells}

    def test_stale_lock_is_broken(self, tmp_path):
        out = str(tmp_path)
        lock = os.path.join(out, "timeout_history.json.lock")
        with open(lock, "w"):
            pass
        stale = time.time() - 10 * store.HISTORY_LOCK_STALE_S
        os.utime(lock, (stale, stale))
        history = store.TimeoutHistory()
        history.record(_cells(1)[0], 0.5)
        history.flush(out)  # must not deadlock on the dead lock file
        assert store.TimeoutHistory.load(out)


class TestDryRun:
    def test_estimates_from_history(self, tmp_path):
        cells = _cells(2)
        out = str(tmp_path / "campaign")
        fresh = render_dry_run(cells, out)
        assert "[dry-run] 2 cell(s), 0 with history estimates" in fresh
        assert fresh.count("est=?") == 2
        result = CampaignRunner(
            cells, out_dir=out, workers=1, echo=lambda m: None,
        ).run()
        assert result.ok
        seeded = render_dry_run(cells, out)
        assert "2 with history estimates" in seeded
        assert "est=?" not in seeded
        for cell in cells:
            assert cell.key in seeded
