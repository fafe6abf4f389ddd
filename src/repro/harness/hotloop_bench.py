"""End-to-end hot-loop benchmark (the ``hotloop`` subcommand).

The hot-loop overhaul's headline claim — lbm/demand end-to-end (trace
generation + timing simulation) faster than the pre-overhaul tree — is
recorded in the committed ``BENCH_timing.json`` and re-checked by
``benchmarks/test_bench_hotloop.py``.  The measurement procedure is
:mod:`repro.harness.bench`, described in docs/PERFORMANCE.md
"Measuring"; the timed region is :func:`run_case_e2e`.

``--update`` rewrites only the ``after`` entry.  The ``before`` entry is
a measurement of the pre-overhaul tree (``before.commit``) with the
same procedure — never overwrite it from an optimized tree.
"""

from __future__ import annotations

from typing import Dict, Optional

from . import bench

#: the committed record
RECORD = bench.record_path("BENCH_timing.json")

#: the benchmark case the headline number is measured on
CASE = {"workload": "lbm", "scheme": "baseline", "paging": "demand"}


def run_case_e2e(case: Optional[Dict] = None) -> Dict:
    """One *end-to-end* run: fresh workload, trace generation, simulator
    construction and timed run — the full pipeline a sweep pays per cell.

    A fresh (uncached) workload instance is used so trace generation is
    actually measured; memoized decode/coalesce caches on a shared instance
    would otherwise leak work across repeats."""
    from repro.system import GpuSimulator
    from repro.workloads.parboil import PARBOIL
    from repro.workloads.micro import MICRO

    case = case or CASE
    name = case["workload"]
    registry = PARBOIL if name in PARBOIL.names() else MICRO
    result = GpuSimulator.for_workload(
        registry.fresh(name), case["scheme"],
        paging=case.get("paging", "demand"),
    ).run()
    return {
        "cycles": result.cycles,
        "dynamic_instructions": result.dynamic_instructions,
    }


def measure(repeats: int = 3, case: Optional[Dict] = None) -> Dict:
    """Best-of-``repeats`` normalized measurement of the benchmark case."""
    case = case or CASE
    stats, run = bench.best_of(lambda: run_case_e2e(case), repeats)
    return {"case": dict(case), **stats, **run}


def main(argv=None) -> int:
    """The ``hotloop`` subcommand: measure, print, optionally update."""
    args = bench.cli(
        "hotloop",
        "Calibration-normalized end-to-end hot-loop benchmark "
        "(docs/PERFORMANCE.md); gates the committed BENCH_timing.json, "
        "whose 'after' entry --update rewrites.",
        RECORD,
    ).parse_args(argv)

    rec = measure(args.repeats)
    print(
        f"hotloop e2e [{rec['case']['workload']}/{rec['case']['paging']}]: "
        f"raw={rec['raw_seconds']}s spin={rec['spin_seconds']}s "
        f"normalized={rec['normalized']} cycles={rec['cycles']}"
    )
    try:
        record = bench.load_record(RECORD)
    except FileNotFoundError:
        record = {"schema": 1}
    before = record.get("before")
    if before:
        speedup = before["normalized"] / rec["normalized"]
        print(f"speedup vs before: {speedup:.2f}x "
              f"(before normalized={before['normalized']})")
    return bench.finish(args, RECORD, rec, {**record, "after": rec})


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
