"""Hot-loop perf guard: the committed BENCH_timing.json vs. this tree.

Three layers (docs/PERFORMANCE.md):

- record sanity runs everywhere: the committed before/after entries must
  be complete, bit-identity invariants (cycles, dynamic instructions)
  intact, and the documented speedup non-regressed;
- an end-to-end smoke run checks the benchmark case still simulates to
  the pinned cycle count (the perf path may never change results);
- the ±`GATE_TOLERANCE` normalized-score gate re-measures this machine
  and compares against the committed ``after`` entry (the ``perf_gate``
  fixture of ``conftest.py``; only with ``REPRO_PERF_GATE=1``).
"""

import pytest

from repro.harness import bench
from repro.harness import hotloop_bench as hb

#: bit-identity invariants of the benchmark case (lbm/baseline/demand),
#: also pinned by tests/golden_digests.json
LBM_CYCLES = 1024180
LBM_DYN_INSTS = 136704

#: the committed record must document at least this speedup — the
#: hot-loop overhaul's floor (measured 1.71x; the 2x target and why it
#: was not reached bit-identically are discussed in docs/PERFORMANCE.md)
MIN_DOCUMENTED_SPEEDUP = 1.5


@pytest.fixture(scope="module")
def record():
    return bench.load_record(hb.RECORD)


class TestCommittedRecord:
    def test_entries_present_and_complete(self, record):
        assert record.get("schema") == 1
        for entry in ("before", "after"):
            rec = record.get(entry)
            assert rec, f"BENCH_timing.json is missing the {entry!r} entry"
            for field in ("raw_seconds", "spin_seconds", "normalized",
                          "repeats", "cycles", "dynamic_instructions"):
                assert field in rec, f"{entry}.{field} missing"
            assert rec["case"] == hb.CASE

    def test_bit_identity_invariants(self, record):
        """Both entries simulate the same machine-independent run."""
        for entry in ("before", "after"):
            rec = record[entry]
            assert rec["cycles"] == LBM_CYCLES
            assert rec["dynamic_instructions"] == LBM_DYN_INSTS

    def test_normalized_is_consistent(self, record):
        for entry in ("before", "after"):
            rec = record[entry]
            assert rec["normalized"] == pytest.approx(
                rec["raw_seconds"] / rec["spin_seconds"], rel=0.01
            )

    def test_documented_speedup(self, record):
        speedup = record["before"]["normalized"] / record["after"]["normalized"]
        assert speedup >= MIN_DOCUMENTED_SPEEDUP, (
            f"committed record documents only {speedup:.2f}x; the overhaul's "
            f"floor is {MIN_DOCUMENTED_SPEEDUP}x — a slower 'after' entry "
            f"must not be committed"
        )


class TestEndToEnd:
    def test_benchmark_case_is_bit_identical(self):
        """One un-timed end-to-end run of the benchmark case: the optimized
        pipeline must still produce the pinned cycle count."""
        rec = hb.run_case_e2e()
        assert rec["cycles"] == LBM_CYCLES
        assert rec["dynamic_instructions"] == LBM_DYN_INSTS


class TestPerfGate:
    def test_normalized_within_gate(self, record, perf_gate):
        """Re-measure this machine; the calibration-normalized score must be
        within ±GATE_TOLERANCE of the committed ``after`` entry."""
        measured = hb.measure(repeats=3)
        perf_gate(record, measured, "hotloop", [
            ("normalized score", measured["normalized"],
             record["after"]["normalized"]),
        ])
        assert measured["cycles"] == LBM_CYCLES
