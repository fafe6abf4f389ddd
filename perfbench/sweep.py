"""``sweep-premapped``: the Fig. 10/11 fault-free pipeline sweep.

Each kernel of the matrix runs in a fresh process (empty trace cache)
that calls ``run_fig10`` and ``run_fig11`` in one thread, so one trace
per kernel is shared by every scheme run, as in a researcher's sweep.
Times are the case process's CPU seconds: on a shared VM the wall time
of the same single-threaded work stretches with the share of the CPU
the hypervisor steals, which reached 0.43 of a run on a 2-vCPU host.
Each is expressed at the yardstick's reference speed over the interval
it covers (perfbench/yardstick.py).
The latency samples are whole figure calls (``run_fig10``/``run_fig11``
of one kernel), not single simulations: a 1-3 s simulation reads the
host's momentary speed, which swings by a third within seconds.
Run as a script this module is that case process::

    python3 perfbench/sweep.py case sgemm [--trace SIDE_FILE]
"""

from __future__ import annotations

import json
import sys
import time
from typing import Dict, List

from common import median, now, peak_child_rss_mb, run_json

#: compute-bound Parboil kernels; cutcp is the lighter of the two
KERNELS = ("cutcp", "sgemm")
LIGHT, HEAVY = "cutcp", "sgemm"
#: operand-log size of the Fig. 11 column (the paper's chosen design)
LOG_SIZES = (16,)
SETUP_PROBES = 5
CASE_TIMEOUT_S = 170.0


def _capture_sims() -> List[Dict]:
    """Record every simulation's cycles (output check, both modes)."""
    from repro.system import gpu

    record: List[Dict] = []
    run = gpu.GpuSimulator.run

    def captured(sim, *args, **kwargs):
        result = run(sim, *args, **kwargs)
        record.append({"cycles": result.cycles,
                       "instructions": result.dynamic_instructions})
        return result

    gpu.GpuSimulator.run = captured
    return record


def case_main(argv: List[str]) -> int:
    """One kernel's fig10 + fig11 rows in this (fresh) process."""
    kernel = argv[0]
    side_file = argv[2] if len(argv) > 2 and argv[1] == "--trace" else None
    from repro.harness import experiments

    tracer = None
    if side_file is not None:
        import layers

        tracer = layers.new_tracer()
        tracer.install(layers.SWEEP)
    sims = _capture_sims()
    ready = time.process_time()
    if kernel == "--probe":
        print(json.dumps({"ready_cpu_s": ready}))
        return 0
    t0 = now()
    c0 = time.process_time()
    fig10 = experiments.run_fig10(workloads=[kernel])
    c1 = time.process_time()
    t1 = now()
    fig11 = experiments.run_fig11(workloads=[kernel], sizes=LOG_SIZES)
    c2 = time.process_time()
    t2 = now()
    if tracer is not None:
        tracer.append_to(side_file)
    print(json.dumps({
        "ready_cpu_s": ready,
        "rows": {"fig10": fig10.to_dict()["rows"],
                 "fig11": fig11.to_dict()["rows"]},
        "sims": sims,
        "case_cpu_s": {"fig10": c1 - c0, "fig11": c2 - c1},
        "windows": {"fig10": [t0, t1], "fig11": [t1, t2]},
        "cpu_s": c2 - c0,
        "wall_s": t2 - t0,
    }))
    return 0


def _matrix(ctx, setup: List[float], trace: bool) -> Dict:
    """One repetition of the matrix: each kernel in a fresh process."""
    expected = ctx.expected["sweep"]
    rep = {"kernels": {}, "cpu_s": 0.0, "ref_cpu_s": 0.0, "wall_s": 0.0}
    for kernel in KERNELS:
        args = ["perfbench/sweep.py", "case", kernel]
        if trace:
            args += ["--trace", ctx.side_file]
        spawned = now()
        out = run_json(args, CASE_TIMEOUT_S)
        setup.append(ctx.at_reference(out["ready_cpu_s"], spawned,
                                      out["windows"]["fig10"][0]))
        out["ref_ms"] = {
            fig: ctx.at_reference(cpu, *out["windows"][fig]) * 1000.0
            for fig, cpu in out["case_cpu_s"].items()
        }
        ctx.check(f"sweep {kernel} rows", out["rows"],
                  expected[kernel]["rows"])
        ctx.check(f"sweep {kernel} cycles",
                  [s["cycles"] for s in out["sims"]],
                  expected[kernel]["cycles"])
        rep["kernels"][kernel] = out
        rep["cpu_s"] += out["cpu_s"]
        rep["ref_cpu_s"] += sum(out["ref_ms"].values()) / 1000.0
        rep["wall_s"] += out["wall_s"]
    return rep


def run(ctx) -> Dict:
    """Repeat the matrix while another repetition fits in the window
    (at least once); a traced run adds one traced repetition."""
    setup: List[float] = []
    for _ in range(SETUP_PROBES):
        spawned = now()
        out = run_json(["perfbench/sweep.py", "case", "--probe"], 60.0)
        setup.append(ctx.at_reference(out["ready_cpu_s"], spawned, now()))
    reps = []
    started = now()
    while True:
        rep = _matrix(ctx, setup, trace=False)
        reps.append(rep)
        if ctx.trace or now() - started + rep["wall_s"] > ctx.seconds:
            break
    sims = [s for r in reps for out in r["kernels"].values()
            for s in out["sims"]]
    cpu = sum(r["ref_cpu_s"] for r in reps)
    light = [v for r in reps for v in r["kernels"][LIGHT]["ref_ms"].values()]
    heavy = [v for r in reps for v in r["kernels"][HEAVY]["ref_ms"].values()]
    res = {
        "attempted": len(sims),
        "failed": 0,
        "setup": setup,
        "rss_mb": peak_child_rss_mb(),
        "sim_kips": sum(s["instructions"] for s in sims) / 1000.0 / cpu,
        "sim_units": len(sims),
        "light_ms": light,
        "heavy_ms": heavy,
        "max_ok_rps": len(sims) / cpu,
        "rate_units": len(sims),
    }
    if ctx.trace:
        traced = _matrix(ctx, setup, trace=True)["cpu_s"]
        res["overhead"] = (median([r["cpu_s"] for r in reps]), traced)
    return res


def reference() -> Dict:
    """Expected rows and per-simulation cycles, from an in-process run."""
    from repro.harness import experiments

    sims = _capture_sims()
    expected = {}
    for kernel in KERNELS:
        del sims[:]
        fig10 = experiments.run_fig10(workloads=[kernel])
        fig11 = experiments.run_fig11(workloads=[kernel], sizes=LOG_SIZES)
        expected[kernel] = {
            "rows": {"fig10": fig10.to_dict()["rows"],
                     "fig11": fig11.to_dict()["rows"]},
            "cycles": [s["cycles"] for s in sims],
            "instructions": sum(s["instructions"] for s in sims),
        }
    return expected


if __name__ == "__main__":
    if sys.argv[1:2] == ["case"]:
        sys.exit(case_main(sys.argv[2:]))
    print("usage: sweep.py case KERNEL [--trace SIDE_FILE]", file=sys.stderr)
    sys.exit(2)
