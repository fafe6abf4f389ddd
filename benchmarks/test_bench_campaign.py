"""Campaign-throughput perf guard: BENCH_campaign.json vs. this tree.

Mirrors ``benchmarks/test_bench_hotloop.py`` (docs/PERFORMANCE.md):

- record sanity runs everywhere: the committed record must be complete,
  both backends must carry the same rows digest (the equivalence
  contract), and the documented vectorized-over-scalar speedup must not
  regress below the 3x floor;
- a backend-equivalence smoke run checks a small sweep of the benchmark
  workload is bit-identical across backends (the fast path may never
  change results);
- the ±`GATE_TOLERANCE` normalized-score gate re-measures this machine
  and compares both backends against the committed record, and requires
  the measured speedup to clear the floor (the ``perf_gate`` fixture of
  ``conftest.py``; only with ``REPRO_PERF_GATE=1``).  The vectorized
  side's normalized score is small (hundredths of a calibration spin),
  so its band gets an absolute floor on top of the relative tolerance to
  keep timer granularity from tripping the gate.
"""

import pytest

from repro.harness import bench
from repro.harness import campaign_bench as cb

#: absolute slack added to the vectorized band (timer granularity on a
#: run that takes a few hundredths of a calibration spin)
ABS_FLOOR = 0.05


@pytest.fixture(scope="module")
def record():
    return bench.load_record(cb.RECORD)


class TestCommittedRecord:
    def test_entries_present_and_complete(self, record):
        assert record.get("schema") == 1
        assert record["case"]["configs"] >= 16, (
            "the benchmark sweep must cover at least 16 configurations"
        )
        for entry in ("scalar", "vectorized"):
            rec = record.get(entry)
            assert rec, f"BENCH_campaign.json is missing {entry!r}"
            for field in ("raw_seconds", "spin_seconds", "normalized",
                          "configs_per_spin", "repeats", "digest"):
                assert field in rec, f"{entry}.{field} missing"

    def test_backends_share_digest(self, record):
        """The committed record must prove the equivalence contract: both
        backends produced identical rows."""
        assert record["scalar"]["digest"] == record["vectorized"]["digest"]

    def test_normalized_is_consistent(self, record):
        for entry in ("scalar", "vectorized"):
            rec = record[entry]
            assert rec["normalized"] == pytest.approx(
                rec["raw_seconds"] / rec["spin_seconds"], rel=0.01
            )

    def test_documented_speedup(self, record):
        speedup = (record["scalar"]["normalized"]
                   / record["vectorized"]["normalized"])
        assert speedup >= cb.MIN_SPEEDUP, (
            f"committed record documents only {speedup:.2f}x; the "
            f"vectorized backend's floor is {cb.MIN_SPEEDUP}x — a slower "
            f"record must not be committed"
        )
        assert record["speedup"] == pytest.approx(speedup, rel=0.01)

    def test_committed_case_reproduces_digest(self, record):
        """Re-run the committed case on the vectorized backend: its rows
        must carry the committed digest."""
        case = {k: v for k, v in record["case"].items() if k != "configs"}
        table = cb.run_case("vectorized", case)
        assert table.notes[0] == record["vectorized"]["digest"]


class TestBackendEquivalence:
    def test_small_sweep_is_bit_identical(self):
        """An un-timed equivalence run on the benchmark workload: both
        backends must produce byte-identical tables (rows, notes, digest
        included)."""
        from repro.batch import run_sweep

        kwargs = dict(
            schemes=("baseline", "replay-queue"),
            seeds=(0, 1),
            latency_scales=(100, 300),
            paging=cb.CASE["paging"],
        )
        scalar = run_sweep(cb.CASE["workload"], backend="scalar", **kwargs)
        vector = run_sweep(
            cb.CASE["workload"], backend="vectorized", **kwargs
        )
        assert scalar.to_dict() == vector.to_dict()


class TestPerfGate:
    def test_normalized_within_gate(self, record, perf_gate):
        """Re-measure this machine; both backends' calibration-normalized
        scores must be within the gate band of the committed record and
        the measured speedup must clear the floor."""
        measured = cb.measure(repeats=3)
        perf_gate(record, measured, "campaign", [
            ("scalar normalized score", measured["scalar"]["normalized"],
             record["scalar"]["normalized"]),
            ("vectorized normalized score",
             measured["vectorized"]["normalized"],
             record["vectorized"]["normalized"], ABS_FLOOR),
        ])
        assert measured["speedup"] >= cb.MIN_SPEEDUP
        assert (measured["scalar"]["digest"]
                == measured["vectorized"]["digest"])
