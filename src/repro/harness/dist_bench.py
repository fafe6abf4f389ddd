"""Distributed-campaign scaling benchmark (the ``dist-bench`` subcommand).

The distributed layer's two headline claims (docs/ROBUSTNESS.md) are
recorded in the committed ``BENCH_dist.json`` and re-checked by
``benchmarks/test_bench_dist.py``:

1. **Determinism** — on the full 35-cell chaos matrix (5
   microbenchmark workloads x 7 seeds, 2 schemes per cell), a loopback
   fleet of 2 worker processes produces ``tables.json`` and
   ``counters.json`` byte-identical to the serial runner's.
2. **Scaling** — on a partitionable matrix of at least 32 cells, a
   fleet of 2 workers completes the campaign at least 1.6x faster than
   a fleet of 1.

The scaling half times a matrix of *sleep-calibrated* cells
(:func:`run_dist_bench_cell`), each standing in for a cell's compute on
its worker's own machine, in wall-clock from coordinator start to
matrix completion, best of ``--repeats`` per mode.  docs/PERFORMANCE.md
"Measuring" gives the procedure and "Distributed scaling" why the cells
sleep.  The synthetic runs are identity-checked on every repeat too.

``--smoke`` runs a small chaos matrix (serial vs 2-worker fleet),
asserts byte-identity, equal ``harness.campaign.*`` counters and clean
worker exits, and skips the timing gate — CI machines are too noisy for
wall-clock assertions outside the dedicated perf-guard job.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Dict, List, Optional

from . import bench, store
from .dist import CampaignCoordinator, spawn_worker
from .results import ExperimentTable

#: the committed record
RECORD = bench.record_path("BENCH_dist.json")

#: documented minimum 2-worker-over-1-worker speedup (the gate floor)
MIN_SPEEDUP = 1.6

#: the timed matrix: 35 sleep-calibrated cells (>= the 32-cell floor
#: the acceptance contract names), 300ms of blocking work each — long
#: enough that per-cell overhead (fork, lease and upload round-trips)
#: stays well under the work it schedules
CASE = {
    "kind": "sleep-calibrated",
    "cells": 35,
    "work_ms": 300.0,
}

#: the determinism matrix: 5 microbenchmark workloads x 7 seeds = 35
#: chaos cells, each a 2-scheme fault-injection campaign (real compute)
IDENTITY_CASE = {
    "workloads": [
        "divergence-tree", "mshr-storm", "saxpy", "stream-sum",
        "tlb-thrash",
    ],
    "seeds": [0, 1, 2, 3, 4, 5, 6],
    "schemes": ["wd-commit", "replay-queue"],
}

#: the CI smoke matrix: small enough for every PR, still multi-cell
SMOKE_CASE = {
    "workloads": ["saxpy", "tlb-thrash"],
    "seeds": [0, 1],
    "schemes": ["wd-commit"],
}

#: the artifacts whose bytes define campaign determinism
IDENTITY_ARTIFACTS = ("tables.json", "counters.json")


def run_dist_bench_cell(cell_id: str, work_ms: float) -> ExperimentTable:
    """One sleep-calibrated benchmark cell: block for ``work_ms`` of
    wall-clock (a stand-in for compute on the worker's own machine) and
    return a deterministic one-row table."""
    time.sleep(work_ms / 1000.0)
    table = ExperimentTable(
        name="dist-bench",
        description="sleep-calibrated distribution-layer benchmark",
        columns=["work-ms"],
        show_geomean=False,
    )
    table.add_row(cell_id, [work_ms])
    return table


def build_synthetic_cells(case: Optional[Dict] = None):
    """The timed matrix as campaign cells (keys fix canonical order)."""
    from .runner import CampaignCell

    case = case or CASE
    return [
        CampaignCell(
            key=f"bench/{i:03d}",
            fn=run_dist_bench_cell,
            kwargs=dict(cell_id=f"cell-{i:03d}",
                        work_ms=float(case["work_ms"])),
            group="dist-bench",
        )
        for i in range(int(case["cells"]))
    ]


def build_chaos_cells_for(case: Dict):
    """A chaos matrix (real compute) as campaign cells."""
    from .chaos_campaign import build_chaos_cells

    return build_chaos_cells(
        list(case["workloads"]),
        seeds=tuple(case["seeds"]),
        schemes=tuple(case["schemes"]),
    )


def artifact_bytes(out_dir: str) -> Dict[str, bytes]:
    """The deterministic artifacts of a finished campaign directory."""
    blobs = {}
    for name in IDENTITY_ARTIFACTS:
        with open(os.path.join(out_dir, name), "rb") as fh:
            blobs[name] = fh.read()
    return blobs


def run_serial(cells, out_dir: str) -> float:
    """Time the local serial runner (workers=1) on the matrix."""
    from .runner import CampaignRunner

    runner = CampaignRunner(
        cells, out_dir=out_dir, workers=1, echo=lambda _m: None,
    )
    t0 = time.monotonic()
    result = runner.run()
    elapsed = time.monotonic() - t0
    if not result.ok:
        raise RuntimeError(
            f"serial benchmark run failed: {result.failed}"
        )
    return elapsed


def run_dist(cells, out_dir: str, n_workers: int,
             lease_seconds: float = 15.0) -> float:
    """Time a loopback fleet of ``n_workers`` worker processes on the
    matrix: coordinator start to matrix completion, spawn included.
    Asserts every worker observes completion and exits 0."""
    coord = CampaignCoordinator(
        cells, out_dir=out_dir, lease_seconds=lease_seconds,
        echo=lambda _m: None,
    )
    t0 = time.monotonic()
    address = coord.start()
    procs = [
        spawn_worker(address, workers=1, name=f"bench-w{i}")
        for i in range(n_workers)
    ]
    try:
        if not coord.wait(600.0):
            raise RuntimeError("distributed benchmark run timed out")
        elapsed = time.monotonic() - t0
        # Let the fleet observe completion (next lease poll) and exit
        # cleanly before the coordinator goes away.
        for proc in procs:
            proc.wait(timeout=60.0)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        coord.stop()
    result = coord.collect()
    if not result.ok:
        raise RuntimeError(
            f"distributed benchmark run failed: {result.failed}"
        )
    codes = [proc.returncode for proc in procs]
    if any(code != 0 for code in codes):
        raise RuntimeError(f"worker exit codes {codes}; expected all 0")
    return elapsed


def check_identity(dirs: Dict[str, str]) -> None:
    """Assert the deterministic artifacts match bytewise across run
    modes; raises with the offending mode/artifact otherwise."""
    items = sorted(dirs.items())
    ref_mode, ref_dir = items[0]
    ref = artifact_bytes(ref_dir)
    for mode, out_dir in items[1:]:
        got = artifact_bytes(out_dir)
        for name in IDENTITY_ARTIFACTS:
            if got[name] != ref[name]:
                raise RuntimeError(
                    f"determinism violation: {name} differs between "
                    f"{ref_mode!r} and {mode!r}"
                )


def campaign_counters(out_dir: str) -> Dict[str, float]:
    """The ``harness.campaign.*`` counters a finished campaign booked in
    its ``ops_counters.json``: run-shape counters, so outside
    :func:`check_identity` (which the ``BENCH_dist`` gate also uses),
    but the serial runner and a fleet must book them alike."""
    counters = store.read_json(
        os.path.join(out_dir, "ops_counters.json")
    )["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("harness.campaign.")}


def _fresh_dirs(base: str, tag: str, modes) -> Dict[str, str]:
    dirs = {mode: os.path.join(base, f"{tag}-{mode}") for mode in modes}
    for path in dirs.values():
        shutil.rmtree(path, ignore_errors=True)
    return dirs


def check_chaos_identity(case: Optional[Dict] = None,
                         work_dir: Optional[str] = None,
                         echo=print) -> Dict:
    """The determinism half: serial runner vs 2-worker fleet on the
    real chaos matrix, artifacts asserted byte-identical."""
    case = case or IDENTITY_CASE
    cells = build_chaos_cells_for(case)
    base = work_dir or tempfile.mkdtemp(prefix="dist-bench-")
    dirs = _fresh_dirs(base, "identity", ("serial", "dist2"))
    echo(f"[dist-bench] identity: {len(cells)} chaos cells, serial vs "
         "2-worker fleet")
    run_serial(cells, dirs["serial"])
    run_dist(cells, dirs["dist2"], 2)
    check_identity(dirs)
    echo("[dist-bench] identity: tables.json and counters.json "
         "byte-identical")
    return {**case, "cells": len(cells), "identical": True}


def measure(repeats: int = 1, case: Optional[Dict] = None,
            work_dir: Optional[str] = None, echo=print,
            skip_identity: bool = False) -> Dict:
    """Best-of-``repeats`` wall-clock measurement of all three modes on
    the sleep-calibrated matrix (byte-identity asserted on every
    repeat), plus the chaos-matrix identity check."""
    case = case or CASE
    base = work_dir or tempfile.mkdtemp(prefix="dist-bench-")
    identity: Optional[Dict] = None
    if not skip_identity:
        identity = check_chaos_identity(work_dir=base, echo=echo)
    cells = build_synthetic_cells(case)
    times: Dict[str, List[float]] = {"serial": [], "dist1": [], "dist2": []}
    for rep in range(max(1, repeats)):
        dirs = _fresh_dirs(base, f"rep{rep}",
                           ("serial", "dist1", "dist2"))
        echo(f"[dist-bench] repeat {rep + 1}/{max(1, repeats)}: "
             f"{len(cells)} sleep-calibrated cells "
             f"({case['work_ms']:.0f}ms each)")
        times["serial"].append(run_serial(cells, dirs["serial"]))
        times["dist1"].append(run_dist(cells, dirs["dist1"], 1))
        times["dist2"].append(run_dist(cells, dirs["dist2"], 2))
        check_identity(dirs)
    best = {mode: min(vals) for mode, vals in times.items()}
    record = {
        "case": {**case},
        "serial": {"seconds": round(best["serial"], 3)},
        "dist1": {"workers": 1, "seconds": round(best["dist1"], 3)},
        "dist2": {"workers": 2, "seconds": round(best["dist2"], 3)},
        "speedup": round(best["dist1"] / best["dist2"], 2),
        "overhead_vs_serial": round(
            best["dist1"] / best["serial"], 2
        ),
        "repeats": max(1, repeats),
    }
    if identity is not None:
        record["identity"] = identity
    return record


def smoke(out_dir: Optional[str] = None, echo=print) -> int:
    """The CI smoke: serial vs 2-worker fleet on a small chaos matrix;
    identity, campaign counters and clean exits asserted, no timing gate."""
    cells = build_chaos_cells_for(SMOKE_CASE)
    base = out_dir or tempfile.mkdtemp(prefix="dist-smoke-")
    os.makedirs(base, exist_ok=True)
    dirs = _fresh_dirs(base, "smoke", ("serial", "dist2"))
    echo(f"[dist-smoke] {len(cells)} cells, serial vs 2-worker fleet "
         f"(artifacts under {base})")
    serial_s = run_serial(cells, dirs["serial"])
    dist_s = run_dist(cells, dirs["dist2"], 2)
    check_identity(dirs)
    serial, fleet = (campaign_counters(dirs[m]) for m in ("serial", "dist2"))
    for name in sorted(set(serial) | set(fleet)):
        if serial.get(name) != fleet.get(name):
            raise RuntimeError(
                f"campaign counter {name} differs: {serial.get(name)} "
                f"serial, {fleet.get(name)} 2-worker fleet"
            )
    echo(f"[dist-smoke] serial {serial_s:.2f}s, 2-worker fleet "
         f"{dist_s:.2f}s; tables.json and counters.json byte-identical, "
         "harness.campaign.* counters equal")
    return 0


def main(argv=None) -> int:
    """The ``dist-bench`` subcommand: measure, print, optionally update."""
    parser = bench.cli(
        "dist-bench",
        "Distributed-campaign benchmark: byte-identity of the "
        "35-cell chaos matrix across serial and 2-worker runs, and "
        "wall-clock scaling of a sleep-calibrated matrix on fleets "
        "of 1 and 2 workers; gates the committed BENCH_dist.json.",
        RECORD, repeats=1,
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="run the small CI matrix (serial vs 2 workers, identity "
             "asserted, no timing gate) and exit",
    )
    parser.add_argument(
        "--out", metavar="DIR",
        help="base directory for the run artifacts (default: a temp "
             "directory); the CI smoke job uploads it",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        return smoke(args.out)

    rec = measure(args.repeats, work_dir=args.out)
    print(
        f"dist-bench [{rec['case']['cells']} x "
        f"{rec['case']['work_ms']:.0f}ms cells]: "
        f"serial={rec['serial']['seconds']}s "
        f"1-worker={rec['dist1']['seconds']}s "
        f"2-worker={rec['dist2']['seconds']}s"
    )
    print(f"speedup 2 workers vs 1: {rec['speedup']:.2f}x "
          f"(gate floor {MIN_SPEEDUP}x); "
          f"1-worker overhead vs serial: {rec['overhead_vs_serial']:.2f}x")
    if rec.get("identity"):
        print(f"identity: {rec['identity']['cells']} chaos cells "
              "byte-identical across serial and 2-worker runs")
    return bench.finish(args, RECORD, rec, {"schema": 1, **rec})


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
