"""Distributed-campaign perf guard: BENCH_dist.json vs. this tree.

Mirrors ``benchmarks/test_bench_campaign.py`` (docs/PERFORMANCE.md):

- record sanity runs everywhere: the committed record must be complete,
  cover at least 32 cells, document the byte-identity run on the real
  chaos matrix, and its 2-worker-over-1-worker speedup must not regress
  below the 1.6x floor;
- a determinism smoke run checks a small chaos matrix is byte-identical
  between the serial runner and a 2-worker loopback fleet (distribution
  may never change results);
- the ±`GATE_TOLERANCE` gate re-measures this machine and compares the
  wall-clock of all three modes and the speedup against the committed
  record.  The timed matrix is sleep-calibrated (see
  :mod:`repro.harness.dist_bench`), so the seconds are dominated by the
  fixed per-cell blocking time and stay comparable across machines
  (the ``perf_gate`` fixture of ``conftest.py``; only with
  ``REPRO_PERF_GATE=1``).
"""

import pytest

from repro.harness import bench
from repro.harness import dist_bench as db


@pytest.fixture(scope="module")
def record():
    return bench.load_record(db.RECORD)


class TestCommittedRecord:
    def test_entries_present_and_complete(self, record):
        assert record.get("schema") == 1
        assert record["case"]["cells"] >= 32, (
            "the scaling matrix must cover at least 32 cells"
        )
        assert record["case"]["kind"] == "sleep-calibrated"
        for entry in ("serial", "dist1", "dist2"):
            rec = record.get(entry)
            assert rec, f"BENCH_dist.json is missing {entry!r}"
            assert rec.get("seconds", 0) > 0
        assert record["dist1"]["workers"] == 1
        assert record["dist2"]["workers"] == 2
        assert record.get("repeats", 0) >= 1

    def test_identity_documented(self, record):
        """The committed record must prove the determinism contract on
        the real chaos matrix, not just the synthetic one."""
        identity = record.get("identity")
        assert identity, "BENCH_dist.json is missing the identity run"
        assert identity["identical"] is True
        assert identity["cells"] >= 32

    def test_documented_speedup(self, record):
        speedup = (record["dist1"]["seconds"]
                   / record["dist2"]["seconds"])
        assert speedup >= db.MIN_SPEEDUP, (
            f"committed record documents only {speedup:.2f}x; the "
            f"2-worker floor is {db.MIN_SPEEDUP}x — a slower record "
            f"must not be committed"
        )
        assert record["speedup"] == pytest.approx(speedup, rel=0.01)


class TestDeterminismSmoke:
    def test_small_matrix_is_bit_identical(self, tmp_path):
        """An un-timed identity run on a small chaos matrix: the serial
        runner and a 2-worker fleet must produce byte-identical
        tables.json and counters.json."""
        assert db.smoke(str(tmp_path), echo=lambda m: None) == 0


class TestPerfGate:
    def test_wall_clock_within_gate(self, record, perf_gate):
        """Re-measure this machine; each mode's wall-clock must be
        within the gate band of the committed record and the measured
        speedup must clear the floor."""
        measured = db.measure(repeats=2, echo=lambda m: None)
        perf_gate(record, measured, "dist-bench", [
            (f"{entry} wall-clock s", measured[entry]["seconds"],
             record[entry]["seconds"])
            for entry in ("serial", "dist1", "dist2")
        ])
        assert measured["speedup"] >= db.MIN_SPEEDUP
        assert measured["identity"]["identical"] is True
