"""Campaign-throughput benchmark (the ``campaign`` subcommand).

The vectorized campaign backend's headline claim (docs/VECTORIZATION.md)
— a 64-config scheme x seed x latency sweep of lbm at least 3x faster
on ``--backend vectorized`` than on ``--backend scalar`` — is recorded
in the committed ``BENCH_campaign.json`` and re-checked by
``benchmarks/test_bench_campaign.py``.  The measurement procedure is
:mod:`repro.harness.bench`, described in docs/PERFORMANCE.md
"Measuring".

The timed region is one sweep.  The dynamic trace, the
config-independent :class:`repro.batch.TraceProfile` and the per-scheme
cost kernels are built before timing and shared by both backends, so
the ratio isolates what the backend changes: N scalar per-record walks
versus one numpy program plus the sampled-subset validation walks the
equivalence contract requires.  Both backends' rows must carry the same
digest; a mismatch means the contract is broken and no throughput
number is worth recording.
"""

from __future__ import annotations

from typing import Dict, Optional

from . import bench

#: the committed record
RECORD = bench.record_path("BENCH_campaign.json")

#: the documented minimum vectorized-over-scalar speedup (the gate floor)
MIN_SPEEDUP = 3.0

#: the benchmark sweep: 4 schemes x 8 seeds x 2 latency scales = 64
#: configurations of one workload — the >=16-config shape the
#: acceptance contract names, on the same workload the hotloop bench
#: uses
CASE = {
    "workload": "lbm",
    "paging": "demand",
    "schemes": ["baseline", "wd-commit", "wd-lastcheck", "replay-queue"],
    "seeds": [0, 1, 2, 3, 4, 5, 6, 7],
    "latency_scales": [100, 300],
}


def _configs(case: Dict) -> int:
    return (
        len(case["schemes"]) * len(case["seeds"])
        * len(case["latency_scales"])
    )


def run_case(backend: str, case: Optional[Dict] = None):
    """One sweep of the benchmark case on ``backend`` (validation on,
    as shipped: the vectorized number must include its contract cost)."""
    from repro.batch import run_sweep

    case = case or CASE
    return run_sweep(
        case["workload"],
        schemes=tuple(case["schemes"]),
        seeds=tuple(case["seeds"]),
        latency_scales=tuple(case["latency_scales"]),
        paging=case["paging"],
        backend=backend,
    )


def warm_case(case: Optional[Dict] = None) -> None:
    """Build the shared infrastructure both backends reuse: the cached
    dynamic trace, the config-independent profile, and the per-scheme
    cost kernels (cached process-wide, so not a per-sweep cost either
    backend pays)."""
    from repro.batch import build_profile, cost_vector, warp_cost_fn

    case = case or CASE
    build_profile(case["workload"], case["paging"])
    for scheme in case["schemes"]:
        cost_vector(scheme)
        warp_cost_fn(scheme)


def measure_backend(
    backend: str, repeats: int = 3, case: Optional[Dict] = None
) -> Dict:
    """Best-of-``repeats`` normalized measurement of one backend, the
    shared infrastructure warmed before the first spin."""
    case = case or CASE
    warm_case(case)
    stats, table = bench.best_of(lambda: run_case(backend, case), repeats)
    return {
        "backend": backend,
        **stats,
        "configs_per_spin": round(_configs(case) / stats["normalized"], 1),
        "digest": table.notes[0],
    }


def measure(repeats: int = 3, case: Optional[Dict] = None) -> Dict:
    """Measure both backends on the benchmark case and fold the record.

    Asserts digest equality between the backends (the equivalence
    contract) before reporting the speedup.
    """
    case = case or CASE
    scalar = measure_backend("scalar", repeats, case)
    vectorized = measure_backend("vectorized", repeats, case)
    if scalar["digest"] != vectorized["digest"]:
        raise RuntimeError(
            "backend digests diverged: "
            f"{scalar['digest']!r} != {vectorized['digest']!r}"
        )
    return {
        "case": {**case, "configs": _configs(case)},
        "scalar": scalar,
        "vectorized": vectorized,
        "speedup": round(
            scalar["normalized"] / vectorized["normalized"], 2
        ),
    }


def main(argv=None) -> int:
    """The ``campaign`` subcommand: measure, print, optionally update."""
    args = bench.cli(
        "campaign",
        "Calibration-normalized campaign-throughput benchmark: the "
        "64-config benchmark sweep on the scalar and the vectorized "
        "backend (docs/VECTORIZATION.md); gates the committed "
        "BENCH_campaign.json.",
        RECORD,
    ).parse_args(argv)

    rec = measure(args.repeats)
    for backend in ("scalar", "vectorized"):
        b = rec[backend]
        print(
            f"campaign {backend:10s} [{rec['case']['workload']}/"
            f"{rec['case']['paging']} x{rec['case']['configs']}]: "
            f"raw={b['raw_seconds']}s spin={b['spin_seconds']}s "
            f"normalized={b['normalized']} "
            f"configs/spin={b['configs_per_spin']}"
        )
    print(f"speedup vectorized vs scalar: {rec['speedup']:.2f}x "
          f"(gate floor {MIN_SPEEDUP}x)")
    return bench.finish(args, RECORD, rec, {"schema": 1, **rec})


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
