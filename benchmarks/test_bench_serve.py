"""Serving-layer perf guard: BENCH_serve.json vs. this tree.

Mirrors ``benchmarks/test_bench_campaign.py`` (docs/PERFORMANCE.md),
with one twist: the containment and fairness sections of the committed
record are *deterministic*, so they are re-verified everywhere by
exact digest — same seed, bit-identical virtual-time run — while only
the wall-clock throughput section hides behind the
``REPRO_PERF_GATE=1`` ±`GATE_TOLERANCE` calibration-normalized gate.

- record sanity runs everywhere: the committed record must be complete,
  containment must hold (storm tenant quarantined with structured
  rejections, every steady tenant's p99 within the bound), fairness
  must hold (weighted-fair grants keep every steady tenant's p99
  within the bound under the storm, with zero storm-induced cache
  evictions), and the normalized throughput arithmetic must be
  self-consistent;
- the reproduction tests re-run the committed seeds through the
  virtual-time driver and require digest equality with the record;
- the perf gate re-measures normalized throughput on this machine and
  compares against the committed record (the ``perf_gate`` fixture of
  ``conftest.py``; only with ``REPRO_PERF_GATE=1``).
"""

import pytest

from repro.harness import bench
from repro.harness import serve_bench as sb


@pytest.fixture(scope="module")
def record():
    return bench.load_record(sb.RECORD)


class TestCommittedRecord:
    def test_entries_present_and_complete(self, record):
        assert record.get("schema") == 2
        t = record.get("throughput")
        assert t, "BENCH_serve.json is missing the throughput section"
        for field in ("raw_seconds", "spin_seconds", "normalized",
                      "kernels_per_spin", "kernels_per_sec_wall",
                      "executed_kernels", "repeats"):
            assert field in t, f"throughput.{field} missing"
        c = record.get("containment")
        assert c, "BENCH_serve.json is missing the containment section"
        for field in ("seed", "p99_bound", "contained", "steady",
                      "storm_quarantines", "storm_rejections",
                      "cache_hit_rate", "baseline_digest",
                      "chaotic_digest"):
            assert field in c, f"containment.{field} missing"
        f = record.get("fairness")
        assert f, "BENCH_serve.json is missing the fairness section"
        for field in ("seed", "p99_bound", "fair_contained", "steady",
                      "storm_completions", "cache_hit_rate",
                      "baseline_digest", "contended_digest",
                      "fifo_digest"):
            assert field in f, f"fairness.{field} missing"

    def test_containment_holds_in_committed_record(self, record):
        """The committed record must document successful containment: a
        quarantined storm tenant shedding structured rejections while
        every steady tenant's p99 stays within the bound."""
        c = record["containment"]
        assert c["contained"] is True
        assert c["storm_quarantines"] >= 1
        assert c["storm_breaker"] == "open"
        assert c["storm_rejections"].get("quarantined", 0) > 0
        assert c["steady"], "no steady tenants recorded"
        for name, s in c["steady"].items():
            assert s["within_bound"], f"{name} outside the p99 bound"
            assert s["ratio"] <= c["p99_bound"]

    def test_fairness_holds_in_committed_record(self, record):
        """The committed record must document weighted-fair isolation:
        every steady tenant's p99 within the bound under the storm,
        zero storm-induced evictions in steady cache partitions, and a
        storm tenant that still completes work (fair, not starved)."""
        f = record["fairness"]
        assert f["fair_contained"] is True
        assert f["storm_completions"] > 0
        assert f["steady"], "no steady tenants recorded"
        for name, s in f["steady"].items():
            assert s["within_bound"], f"{name} outside the p99 bound"
            assert s["ratio"] <= f["p99_bound"]
            assert s["storm_induced_evictions"] == 0, (
                f"{name} lost cache entries to the storm tenant"
            )
            # the FIFO counterfactual is recorded for contrast (what
            # the convoy does without DRR) but never gated
            assert "fifo_ratio" in s

    def test_cache_hit_rate_recorded(self, record):
        rate = record["containment"]["cache_hit_rate"]
        assert 0.0 < rate < 1.0

    def test_normalized_is_consistent(self, record):
        t = record["throughput"]
        assert t["normalized"] == pytest.approx(
            t["raw_seconds"] / t["spin_seconds"], rel=0.01
        )
        assert t["kernels_per_spin"] == pytest.approx(
            t["executed_kernels"] / t["normalized"], rel=0.01
        )


class TestContainmentReproduction:
    def test_committed_seed_reproduces_bit_identically(self, record):
        """Re-run the committed containment experiment: same seed must
        give byte-identical virtual-time reports (digests included)."""
        c = record["containment"]
        measured = sb.measure_containment({"seed": c["seed"]})
        assert measured["baseline_digest"] == c["baseline_digest"]
        assert measured["chaotic_digest"] == c["chaotic_digest"]
        assert measured["steady"] == c["steady"]
        assert measured["storm_rejections"] == c["storm_rejections"]
        assert measured["cache_hit_rate"] == c["cache_hit_rate"]


class TestFairnessReproduction:
    def test_committed_seed_reproduces_bit_identically(self, record):
        """Re-run the committed fairness experiment: same seed must
        give byte-identical closed-loop virtual-time reports for all
        three runs (baseline, weighted-fair storm, FIFO storm)."""
        f = record["fairness"]
        measured = sb.measure_fairness({"seed": f["seed"]})
        assert measured["baseline_digest"] == f["baseline_digest"]
        assert measured["contended_digest"] == f["contended_digest"]
        assert measured["fifo_digest"] == f["fifo_digest"]
        assert measured["steady"] == f["steady"]
        assert measured["storm_completions"] == f["storm_completions"]
        assert measured["cache_hit_rate"] == f["cache_hit_rate"]


class TestPerfGate:
    def test_throughput_within_gate(self, record, perf_gate):
        """Re-measure this machine; the calibration-normalized
        throughput must be within the gate band of the committed
        record."""
        measured = sb.measure_throughput(repeats=3)
        perf_gate(record, measured, "serve-bench", [
            ("serve normalized throughput", measured["normalized"],
             record["throughput"]["normalized"]),
        ])
        assert measured["executed_kernels"] == (
            record["throughput"]["executed_kernels"]
        )
