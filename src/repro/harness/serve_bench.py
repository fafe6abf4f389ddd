"""Serving benchmark (the ``serve-bench`` subcommand): throughput,
containment, weighted-fair isolation.

``python -m repro.harness serve-bench`` measures the multi-tenant
serving layer (:mod:`repro.serve`, docs/SERVING.md) and maintains the
committed ``BENCH_serve.json``, re-checked by
``benchmarks/test_bench_serve.py``.  Three committed sections:

**throughput** — kernels per calibration spin through the real asyncio
:class:`~repro.serve.service.GpuService`: three tenants drain a seeded
open-loop schedule concurrently (in-process execution, so CPU time is
attributable).  The timed region is one cold service's drain; the
measurement procedure is :mod:`repro.harness.bench`, described in
docs/PERFORMANCE.md "Measuring".  The raw kernels/sec is recorded for
humans but never gated — it depends on the machine.

**containment** — the deterministic virtual-time experiment
(:func:`repro.serve.loadgen.containment_experiment`): the same seeded
arrival schedule twice, storm tenant clean vs. under ``fault.storm``
chaos + injected hangs.  Committed criteria: the storm tenant ends
quarantined by its circuit breaker with structured rejections, and
every steady tenant's p99 latency stays within ``p99_bound`` x its
no-chaos baseline.  Every number in this section is bit-reproducible
from the seed — the CI gate asserts digest equality, not tolerance.

**fairness** — the deterministic closed-loop experiment
(:func:`repro.serve.loadgen.fairness_experiment`): weight-2 steady
tenants with think time vs. a weight-1 zero-think storm tenant
flooding unique specs, three runs from one seed (no storm / storm
under weighted-fair grants / storm under the legacy FIFO
counterfactual).  Committed criteria: under DRR every steady tenant's
p99 stays within ``p99_bound`` x its no-storm baseline, steady cache
partitions take **zero** storm-induced evictions, and the storm tenant
still completes work.  Bit-reproducible, digest-gated like
containment; the FIFO ratios are recorded for contrast, never gated.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, Optional

from . import bench

#: the committed record
RECORD = bench.record_path("BENCH_serve.json")

#: the throughput case: three tenants draining seeded open-loop
#: schedules through the asyncio service concurrently
THROUGHPUT_CASE = {
    "tenants": 3,
    "requests_per_tenant": 20,
    "seed_pool": 8,
    "repeat_rate": 0.35,
    "max_streams": 2,
    "seed": 0,
}

#: the containment case (see repro.serve.loadgen for the experiment)
CONTAINMENT_CASE = {
    "seed": 0,
    "p99_bound": 1.5,
}

#: the fairness case (see repro.serve.loadgen for the experiment)
FAIRNESS_CASE = {
    "seed": 0,
    "p99_bound": 1.5,
}


def _throughput_submissions(case: Dict):
    """The seeded request list (tenant, spec) for one throughput run."""
    from repro.serve.loadgen import open_loop_arrivals, steady_menu

    submissions = []
    for i in range(case["tenants"]):
        name = f"bench-{i}"
        arrivals = open_loop_arrivals(
            case["seed"],
            name,
            steady_menu(
                seed_pool=case["seed_pool"], base_seed=1000 * (i + 1)
            ),
            case["requests_per_tenant"],
            mean_gap_cycles=10_000.0,
            repeat_rate=case["repeat_rate"],
        )
        submissions.extend((name, a.spec) for a in arrivals)
    return submissions


async def _drain_service(case: Dict):
    """One cold service draining the whole schedule; returns the
    results."""
    from repro.serve import GpuService, TenantPolicy

    service = GpuService(isolated=False, max_attempts=2)
    policy = TenantPolicy(
        max_streams=case["max_streams"],
        # the throughput run floods the service in one burst and every
        # kernel faults by design (demand paging); admission shedding
        # and budgets are the containment experiment's story, not this
        # one
        max_queue_depth=10_000,
        fault_budget=10**9,
    )
    for i in range(case["tenants"]):
        service.register_tenant(f"bench-{i}", policy)
    return await service.drain(_throughput_submissions(case))


def measure_throughput(
    repeats: int = 3, case: Optional[Dict] = None
) -> Dict:
    """Best-of-``repeats`` normalized throughput measurement.

    Every repeat uses a fresh (cold-cache) service so cache warmup
    cannot flatter later runs.
    """
    from repro.serve.core import ServeRejection

    case = dict(THROUGHPUT_CASE, **(case or {}))
    walls = []

    def drain():
        w0 = time.time()
        results = asyncio.run(_drain_service(case))
        walls.append(time.time() - w0)
        return results

    stats, results = bench.best_of(drain, repeats)
    served = [r for r in results if not isinstance(r, ServeRejection)]
    executed = sum(1 for r in served if not r.cached and r.ok)
    return {
        "case": dict(case),
        "requests": case["tenants"] * case["requests_per_tenant"],
        "executed_kernels": executed,
        "cache_hits": sum(1 for r in served if r.cached),
        "failed": sum(1 for r in served if not r.ok),
        **stats,
        "kernels_per_spin": round(executed / stats["normalized"], 1),
        "kernels_per_sec_wall": round(executed / min(walls), 1),
    }


def measure_containment(case: Optional[Dict] = None) -> Dict:
    """The committed containment section: deterministic, so recorded
    exactly (digests included) rather than within a tolerance."""
    from repro.serve import containment_experiment

    case = dict(CONTAINMENT_CASE, **(case or {}))
    rep = containment_experiment(
        case.pop("seed"), p99_bound=case.pop("p99_bound"), **case
    )
    chaotic = rep["chaotic"]
    baseline = rep["baseline"]
    return {
        "seed": rep["seed"],
        "p99_bound": rep["p99_bound"],
        "contained": rep["contained"],
        "steady": rep["steady"],
        "storm_quarantines": rep["storm_quarantines"],
        "storm_breaker": rep["storm_breaker"],
        "storm_rejections": rep["storm_rejections"],
        "latency_cycles": {
            name: {
                "p50": t["p50_cycles"],
                "p99": t["p99_cycles"],
            }
            for name, t in sorted(chaotic["tenants"].items())
        },
        "cache_hit_rate": round(chaotic["cache"]["hit_rate"], 4),
        "slo": chaotic["slo"],
        "makespan_cycles": chaotic["makespan_cycles"],
        "baseline_digest": baseline["digest"],
        "chaotic_digest": chaotic["digest"],
    }


def measure_fairness(case: Optional[Dict] = None) -> Dict:
    """The committed fairness section: deterministic closed-loop runs,
    recorded exactly (digests included) rather than within a
    tolerance."""
    from repro.serve import fairness_experiment

    case = dict(FAIRNESS_CASE, **(case or {}))
    rep = fairness_experiment(
        case.pop("seed"), p99_bound=case.pop("p99_bound"), **case
    )
    contended = rep["contended"]
    return {
        "seed": rep["seed"],
        "p99_bound": rep["p99_bound"],
        "fair_contained": rep["fair_contained"],
        "storm_completions": rep["storm_completions"],
        "steady": rep["fair"],
        "cache_hit_rate": round(contended["cache"]["hit_rate"], 4),
        "makespan_cycles": contended["makespan_cycles"],
        "baseline_digest": rep["baseline"]["digest"],
        "contended_digest": contended["digest"],
        "fifo_digest": rep["fifo"]["digest"],
    }


def measure(repeats: int = 3, quick: bool = False) -> Dict:
    """Measure the committed sections and fold the record."""
    tcase = {"requests_per_tenant": 8} if quick else None
    ccase = (
        {"requests_per_tenant": 40, "storm_requests": 20} if quick else None
    )
    fcase = (
        {"clients_per_tenant": 2, "requests_per_client": 10,
         "storm_clients": 2, "storm_requests_per_client": 12}
        if quick else None
    )
    return {
        "throughput": measure_throughput(repeats, tcase),
        "containment": measure_containment(ccase),
        "fairness": measure_fairness(fcase),
    }


def main(argv=None) -> int:
    """The ``serve-bench`` subcommand: measure, print, maybe update."""
    parser = bench.cli(
        "serve-bench",
        "Multi-tenant serving benchmark: normalized throughput "
        "through the asyncio service plus the deterministic "
        "fault-containment and fairness experiments; gates the "
        "committed BENCH_serve.json.",
        RECORD,
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller schedules (CI smoke); never use with --update",
    )
    args = parser.parse_args(argv)
    if args.update and args.quick:
        parser.error("--update records the full case; drop --quick")

    rec = measure(args.repeats, quick=args.quick)
    t = rec["throughput"]
    print(
        f"serve throughput [{t['requests']} requests, "
        f"{t['executed_kernels']} executed, {t['cache_hits']} cached]: "
        f"raw={t['raw_seconds']}s spin={t['spin_seconds']}s "
        f"normalized={t['normalized']} "
        f"kernels/spin={t['kernels_per_spin']} "
        f"kernels/sec(wall)={t['kernels_per_sec_wall']}"
    )
    c = rec["containment"]
    print(
        f"serve containment [seed {c['seed']}]: "
        f"contained={c['contained']} "
        f"storm={c['storm_breaker']}/{c['storm_quarantines']} trips "
        f"rejections={c['storm_rejections']} "
        f"cache_hit_rate={c['cache_hit_rate']}"
    )
    for name, s in sorted(c["steady"].items()):
        print(
            f"  {name}: p99 {s['chaotic_p99_cycles']:.0f} vs baseline "
            f"{s['baseline_p99_cycles']:.0f} cycles "
            f"(ratio {s['ratio']:.2f}, bound {c['p99_bound']})"
        )
    f = rec["fairness"]
    print(
        f"serve fairness [seed {f['seed']}]: "
        f"contained={f['fair_contained']} "
        f"storm_completions={f['storm_completions']} "
        f"cache_hit_rate={f['cache_hit_rate']}"
    )
    for name, s in sorted(f["steady"].items()):
        print(
            f"  {name}: p99 {s['storm_p99_cycles']:.0f} vs baseline "
            f"{s['baseline_p99_cycles']:.0f} cycles "
            f"(fair ratio {s['ratio']:.2f}, fifo ratio "
            f"{s['fifo_ratio']:.2f}, bound {f['p99_bound']}) "
            f"induced_evictions={s['storm_induced_evictions']}"
        )
    return bench.finish(args, RECORD, rec, {"schema": 2, **rec})


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
