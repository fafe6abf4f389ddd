"""``campaign-demand``: Fig. 12/13-style demand-paging cells on NVLink.

lbm and histo run with block switching (Fig. 12), alloc-cycle and
quad-tree with local heap-fault handling (Fig. 13).  The cells go
through ``CampaignRunner`` with 2 workers, crash isolation and
checkpoints into a fresh directory, in a fresh process.  Times are CPU
seconds of the campaign process and its forked cells (each cell times
itself in its child), not wall seconds, which on a shared VM stretch
with the share of the CPU the hypervisor steals, and each is expressed
at the yardstick's reference speed over the interval it covers
(perfbench/yardstick.py).  Run as a script this module is that campaign
process::

    python3 perfbench/campaign.py child OUT_DIR [--trace SIDE_FILE]
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from typing import Dict, List

from common import median, now, peak_child_rss_mb, run_json

#: (figure, workload) cells; the Fig. 13 heap cells are the light ones.
#: They go first, so the two workers always run the light cells side by
#: side and then the heavy ones: each class shares the host the same way
#: in every run.  (tables.json sorts its groups, so order is not output.)
#: A light sample is one cell: alloc-cycle and quad-tree cost about the
#: same.  A heavy sample is both heavy cells of one campaign: lbm costs
#: about a quarter more than histo, so a quantile over single cells
#: falls in the gap between them and jumps between runs (the heavy p50
#: spread 0.11 across ten runs that way, against 0.05 as pairs).
#: As pairs, the light p90 of three samples spread 0.13 against 0.08
#: as six single cells.
CELLS = (
    ("fig13", "alloc-cycle"), ("fig13", "quad-tree"),
    ("fig12", "histo"), ("fig12", "lbm"),
)
LIGHT = ("fig13/alloc-cycle", "fig13/quad-tree")
HEAVY = ("fig12/histo", "fig12/lbm")
WORKERS = 2
SETUP_PROBES = 5
#: wall seconds of one campaign on the 2-vCPU VM the benchmark was built
#: on (13-20 s); a run measures ``round(--seconds / CAMPAIGN_S)``
#: campaigns, the same number whatever the host's speed
CAMPAIGN_S = 15.0
CAMPAIGN_TIMEOUT_S = 170.0


def fig12_cell(**kwargs):
    """``run_fig12`` as a campaign cell, timed in the forked child."""
    from repro.harness.experiments import run_fig12

    return _timed("fig12", run_fig12, kwargs)


def fig13_cell(**kwargs):
    """``run_fig13`` as a campaign cell, timed in the forked child."""
    from repro.harness.experiments import run_fig13

    return _timed("fig13", run_fig13, kwargs)


#: file each cell appends its CPU seconds to (set in the campaign process
#: before the runner forks its cells)
CPU_FILE = [None]


def _timed(fig: str, fn, kwargs):
    start = now()
    c0 = time.process_time()
    table = fn(**kwargs)
    if CPU_FILE[0] is not None:
        line = json.dumps({"cell": f"{fig}/{kwargs['workloads'][0]}",
                           "cpu_s": time.process_time() - c0,
                           "window": [start, now()]}) + "\n"
        fd = os.open(CPU_FILE[0], os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)
    return table


def build_cells():
    from repro.harness.runner import CampaignCell

    fns = {"fig12": fig12_cell, "fig13": fig13_cell}
    cells = []
    for fig, wl in CELLS:
        kwargs = {"workloads": [wl], "interconnects": ["nvlink"]}
        if fig == "fig12":
            kwargs["ideal"] = False
        cells.append(CampaignCell(key=f"{fig}/{wl}", fn=fns[fig],
                                  kwargs=kwargs, group=fig))
    return cells


def _cpu_s() -> float:
    """CPU seconds of this process and every child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def child_main(argv: List[str]) -> int:
    out_dir = argv[0]
    side_file = argv[2] if len(argv) > 2 and argv[1] == "--trace" else None
    from repro.harness.runner import CampaignRunner

    tracer = None
    if side_file is not None:
        import layers

        tracer = layers.new_tracer()
        tracer.install(layers.CAMPAIGN)
        layers.isolation_boundary(tracer, "repro.harness.runner", side_file,
                                  "harness.experiments")
    os.makedirs(out_dir)
    runner = CampaignRunner(build_cells(), workers=WORKERS, out_dir=out_dir,
                            echo=lambda line: None)
    ready = time.process_time()
    if side_file is None and argv[1:2] == ["--probe"]:
        print(json.dumps({"ready_cpu_s": ready}))
        return 0
    CPU_FILE[0] = os.path.join(out_dir, "cell_cpu.jsonl")
    c0 = _cpu_s()
    t0 = now()
    result = runner.run()
    wall = now() - t0
    cpu = _cpu_s() - c0
    if tracer is not None:
        tracer.append_to(side_file)
    with open(result.tables_path, "rb") as fh:
        tables_sha = hashlib.sha256(fh.read()).hexdigest()
    with open(CPU_FILE[0]) as fh:
        cells = [json.loads(line) for line in fh]
    print(json.dumps({
        "ready_cpu_s": ready,
        "cpu_s": cpu,
        "wall_s": wall,
        "ok": result.ok,
        "failed": len(result.failures) + len(result.not_run),
        "window": [t0, t0 + wall],
        "cells": {c["cell"]: c for c in cells},
        "tables_sha256": tables_sha,
    }))
    return 0


def _campaign(ctx, tag: str, trace: bool) -> Dict:
    args = ["perfbench/campaign.py", "child",
            os.path.join(ctx.run_dir.rel, tag)]
    if trace:
        args += ["--trace", ctx.side_file]
    spawned = now()
    out = run_json(args, CAMPAIGN_TIMEOUT_S)
    out["setup_window"] = [spawned, out["window"][0]]
    ctx.check("campaign tables.json sha256", out["tables_sha256"],
              ctx.expected["campaign"]["tables_sha256"])
    return out


def run(ctx) -> Dict:
    setup = []
    for i in range(SETUP_PROBES):
        spawned = now()
        out = run_json(["perfbench/campaign.py", "child",
                        os.path.join(ctx.run_dir.rel, f"probe{i}"),
                        "--probe"], 60.0)
        setup.append(ctx.at_reference(out["ready_cpu_s"], spawned, now()))
    # a fixed number of campaigns, so every run takes as many samples
    # of the light and heavy cells; a traced run measures one untraced
    count = 1 if ctx.trace else max(1, round(ctx.seconds / CAMPAIGN_S))
    runs = []
    for i in range(count):
        out = _campaign(ctx, f"campaign{i}", trace=False)
        setup.append(ctx.at_reference(out["ready_cpu_s"],
                                      *out["setup_window"]))
        runs.append(out)
    res = _summary(ctx, runs, setup)
    if ctx.trace:
        traced = _campaign(ctx, "traced", trace=True)
        res["overhead"] = (median([r["cpu_s"] for r in runs]),
                           traced["cpu_s"])
    return res


def _summary(ctx, runs: List[Dict], setup: List[float]) -> Dict:
    kinst = len(runs) * ctx.expected["campaign"]["instructions"] / 1000.0
    cpu = sum(ctx.at_reference(r["cpu_s"], *r["window"]) for r in runs)

    def cells_ms(run, keys, scale=True):
        cells = [run["cells"][k] for k in keys]
        return 1000.0 * sum(
            ctx.at_reference(c["cpu_s"], *c["window"]) if scale
            else c["cpu_s"] for c in cells)

    light = [cells_ms(r, [k]) for r in runs for k in LIGHT]
    heavy = [cells_ms(r, HEAVY) for r in runs]
    raw_cpu = sum(r["cpu_s"] for r in runs)
    raw_light = [cells_ms(r, [k], scale=False) for r in runs for k in LIGHT]
    raw_heavy = [cells_ms(r, HEAVY, scale=False) for r in runs]
    failed = sum(r["failed"] for r in runs)
    return {
        "attempted": len(CELLS) * len(runs),
        "failed": failed,
        "setup": setup,
        "rss_mb": peak_child_rss_mb(),
        "sim_kips": kinst / cpu,
        "sim_units": len(runs),
        "light_ms": light,
        "heavy_ms": heavy,
        "max_ok_rps": (len(CELLS) * len(runs) - failed) / cpu,
        "rate_units": len(CELLS) * len(runs),
        "measured": {"sim_kips": kinst / raw_cpu,
                     "p50_ms.light": median(raw_light),
                     "p50_ms.heavy": median(raw_heavy)},
    }


def reference() -> Dict:
    """Digest of the merged ``tables.json`` and the simulated instruction
    count, from an in-process run through the runner's merge path."""
    import tempfile

    from repro.harness import store
    from repro.harness.runner import CellOutcome, merge_outcomes
    from repro.system import gpu

    instructions = [0]
    run = gpu.GpuSimulator.run

    def counted(sim, *args, **kwargs):
        result = run(sim, *args, **kwargs)
        instructions[0] += result.dynamic_instructions
        return result

    gpu.GpuSimulator.run = counted
    cells = build_cells()
    outcomes = {
        cell.key: CellOutcome(cell=cell, table=cell.fn(**cell.kwargs),
                              failure=None, ledger=[], duration_s=0.0)
        for cell in cells
    }
    gpu.GpuSimulator.run = run
    merged = merge_outcomes(cells, outcomes)
    with tempfile.TemporaryDirectory() as tmp:
        paths = store.write_merge_artifacts(tmp, merged["tables"], [], [])
        with open(paths["tables"], "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
    return {"tables_sha256": sha, "instructions": instructions[0]}


if __name__ == "__main__":
    if sys.argv[1:2] == ["child"]:
        sys.exit(child_main(sys.argv[2:]))
    print("usage: campaign.py child OUT_DIR [--trace SIDE_FILE]",
          file=sys.stderr)
    sys.exit(2)
