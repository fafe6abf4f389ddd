"""One runnable experiment per table/figure of the paper's evaluation.

Every experiment returns an :class:`~repro.harness.results.ExperimentTable`
whose rows are benchmarks and whose columns are the paper's variants; the
benchmark harness in ``benchmarks/`` prints them, and EXPERIMENTS.md records
paper-vs-measured values.

Time scale
----------
The use-case experiments (Figures 12-14) inject the paper's *measured*
microsecond-range constants (fault round trips, handler latencies).  Our
datasets are scaled down from the Parboil defaults to keep Python simulation
tractable, so these constants are divided by ``DEFAULT_TIME_SCALE`` to keep
the dimensionless ratios (fault-handling time vs. kernel time, pending-queue
depths, link occupancy) in the paper's regime.  Every run goes through
:meth:`~repro.system.GpuSimulator.for_workload`, which divides the GPU
handler constants and the link costs together.  Pass ``time_scale=1`` to
run with the unscaled constants.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.core import OperandLog
from repro.core.area_power import table2 as area_power_table2
from repro.system import DEFAULT_TIME_SCALE, GpuSimulator, GPUConfig
from repro.workloads import HALLOC_NAMES, PARBOIL_NAMES

from .results import ExperimentTable

#: subset used by quick (CI) runs
QUICK_PARBOIL = ("lbm", "sgemm", "histo", "spmv")
QUICK_HALLOC = ("alloc-cycle", "quad-tree")


def _cycles(workload, scheme, **kwargs) -> float:
    return GpuSimulator.for_workload(workload, scheme, **kwargs).run().cycles


def _parboil_names(quick: bool, names: Optional[Sequence[str]]) -> List[str]:
    if names is not None:
        return list(names)
    return list(QUICK_PARBOIL) if quick else list(PARBOIL_NAMES)


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def run_table1(config: Optional[GPUConfig] = None) -> str:
    """Render the simulation parameters (paper Table 1)."""
    cfg = config if config is not None else GPUConfig()
    rows = cfg.table1()
    width = max(len(k) for k in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows.items())


# ---------------------------------------------------------------------------
# Figure 10 — cost of preemptible faults (wd-commit / wd-lastcheck / replay)
# ---------------------------------------------------------------------------

def run_fig10(
    quick: bool = False, workloads: Optional[Sequence[str]] = None
) -> ExperimentTable:
    """Performance of the warp-disable and replay-queue pipelines on
    fault-free runs, normalized to the baseline SM (higher is better)."""
    table = ExperimentTable(
        name="fig10",
        description=(
            "warp disable / replay queue performance normalized to "
            "baseline (no faults)"
        ),
        columns=["wd-commit", "wd-lastcheck", "replay-queue"],
        notes=["paper geomeans: wd-commit 0.84, wd-lastcheck 0.90, "
               "replay-queue 0.94; lbm replay-queue 0.60"],
    )
    for name in _parboil_names(quick, workloads):
        base = _cycles(name, "baseline")
        row = [base / _cycles(name, s) for s in table.columns]
        table.add_row(name, row)
    return table


# ---------------------------------------------------------------------------
# Figure 11 — operand log size sweep
# ---------------------------------------------------------------------------

def run_fig11(
    quick: bool = False,
    workloads: Optional[Sequence[str]] = None,
    sizes: Sequence[int] = (8, 16, 20, 32),
) -> ExperimentTable:
    """Operand-log scheme at several log sizes, normalized to baseline."""
    table = ExperimentTable(
        name="fig11",
        description="operand log performance vs log size (normalized)",
        columns=[f"log-{kb}KB" for kb in sizes],
        notes=["paper geomeans: 8KB 0.966, 16KB 0.992; "
               "lbm improves from 0.60 (replay queue) to 0.97 at 16KB"],
    )
    for name in _parboil_names(quick, workloads):
        base = _cycles(name, "baseline")
        row = [base / _cycles(name, OperandLog(kb)) for kb in sizes]
        table.add_row(name, row)
    return table


# ---------------------------------------------------------------------------
# Table 2 — operand log area/power
# ---------------------------------------------------------------------------

def run_table2(sizes: Sequence[int] = (8, 16, 20, 32)) -> ExperimentTable:
    """Operand-log area/power overheads (paper Table 2)."""
    table = ExperimentTable(
        name="table2",
        description="operand log area/power overheads (percent)",
        columns=["SM Area", "GPU Area", "SM Power", "GPU Power"],
        notes=["paper: 8KB = 1.04/0.47/1.82/1.28; 32KB = 2.36/1.08/3.38/2.37"],
    )
    for row in area_power_table2(sizes):
        table.add_row(
            f"{row.log_kbytes}KB",
            [row.sm_area_pct, row.gpu_area_pct, row.sm_power_pct,
             row.gpu_power_pct],
        )
    return table


# ---------------------------------------------------------------------------
# Figure 12 — block switching on fault (use case 1)
# ---------------------------------------------------------------------------

def run_fig12(
    quick: bool = False,
    workloads: Optional[Sequence[str]] = None,
    interconnects: Sequence[str] = ("nvlink", "pcie"),
    ideal: bool = True,
    time_scale: float = DEFAULT_TIME_SCALE,
    base_config: Optional[GPUConfig] = None,
) -> ExperimentTable:
    """Speedup of thread-block switching on faults over stall-on-fault
    demand paging (replay-queue pipeline on both sides)."""
    columns = []
    for ic in interconnects:
        columns.append(ic)
        if ideal:
            columns.append(f"{ic}-ideal")
    table = ExperimentTable(
        name="fig12",
        description=(
            "block switching on fault: speedup over no-switching demand "
            "paging (>1 is better)"
        ),
        columns=columns,
        notes=[
            f"time scale 1/{time_scale:g} applied to interconnect constants",
            "paper (NVLink): sgemm +13%, histo +11%, stencil +7%; "
            "mri-gridding 0.85; geomean ~1.0",
        ],
    )
    for name in _parboil_names(quick, workloads):
        row = []
        for ic in interconnects:
            kwargs = dict(paging="demand", time_scale=time_scale,
                          interconnect=ic, config=base_config)
            base = _cycles(name, "replay-queue", **kwargs)
            kwargs["block_switching"] = True
            row.append(base / _cycles(name, "replay-queue", **kwargs))
            if ideal:
                row.append(base / _cycles(name, "replay-queue",
                                          ideal_switch=True, **kwargs))
        table.add_row(name, row)
    return table


# ---------------------------------------------------------------------------
# Figure 13 — local handling of heap (device-malloc) faults (use case 2)
# ---------------------------------------------------------------------------

def run_fig13(
    quick: bool = False,
    workloads: Optional[Sequence[str]] = None,
    interconnects: Sequence[str] = ("nvlink", "pcie"),
    time_scale: float = DEFAULT_TIME_SCALE,
    base_config: Optional[GPUConfig] = None,
) -> ExperimentTable:
    """Speedup of GPU-local handling of first-touch heap faults over CPU
    handling, on the allocator benchmarks."""
    table = ExperimentTable(
        name="fig13",
        description=(
            "local handling of dynamically-allocated-memory faults: "
            "speedup over CPU handling"
        ),
        columns=list(interconnects),
        notes=[
            f"time scale 1/{time_scale:g} applied to interconnect/handler",
            "paper geomeans: NVLink +56%, PCIe +75%",
        ],
    )
    if workloads is None:
        workloads = QUICK_HALLOC if quick else HALLOC_NAMES
    for name in workloads:
        table.add_row(name, [
            _local_speedup(name, "demand-heap", ic, time_scale, base_config)
            for ic in interconnects
        ])
    return table


# ---------------------------------------------------------------------------
# Figure 14 — local handling of output-page faults (use case 2)
# ---------------------------------------------------------------------------

def run_fig14(
    quick: bool = False,
    workloads: Optional[Sequence[str]] = None,
    interconnects: Sequence[str] = ("nvlink", "pcie"),
    time_scale: float = DEFAULT_TIME_SCALE,
    base_config: Optional[GPUConfig] = None,
) -> ExperimentTable:
    """Speedup of GPU-local handling of first-touch faults to kernel output
    pages over CPU handling, on the Parboil suite."""
    table = ExperimentTable(
        name="fig14",
        description=(
            "local handling of output-page faults: speedup over CPU handling"
        ),
        columns=list(interconnects),
        notes=[
            f"time scale 1/{time_scale:g} applied to interconnect/handler",
            "paper geomeans: NVLink +5%, PCIe +8%; lbm and histo largest",
        ],
    )
    # Full demand paging on both sides: input migrations keep the CPU/link
    # busy, which is exactly the contention that handling the
    # (first-touch) output faults on the GPU avoids.
    for name in _parboil_names(quick, workloads):
        table.add_row(name, [
            _local_speedup(name, "demand", ic, time_scale, base_config)
            for ic in interconnects
        ])
    return table


def _local_speedup(name, paging, interconnect, time_scale, config) -> float:
    """CPU-handled over GPU-local cycles of one use-case-2 cell."""
    kwargs = dict(paging=paging, time_scale=time_scale,
                  interconnect=interconnect, config=config)
    base = _cycles(name, "replay-queue", **kwargs)
    return base / _cycles(name, "replay-queue", local_handling=True, **kwargs)


# ---------------------------------------------------------------------------
# Scalability (Section 5.5): scheme gap vs number of SMs
# ---------------------------------------------------------------------------

def run_scalability(
    workload: str = "lbm",
    sm_counts: Sequence[int] = (8, 16, 32),
    schemes: Sequence[str] = ("wd-commit", "wd-lastcheck", "replay-queue"),
) -> ExperimentTable:
    """Ablation for the paper's scalability discussion: normalized scheme
    performance as the GPU grows."""
    table = ExperimentTable(
        name="scalability",
        description=f"{workload}: scheme performance vs number of SMs",
        columns=list(schemes),
    )
    for num_sms in sm_counts:
        config = GPUConfig().with_(num_sms=num_sms)
        base = _cycles(workload, "baseline", config=config)
        row = [base / _cycles(workload, s, config=config) for s in schemes]
        table.add_row(f"{num_sms} SMs", row)
    return table


ALL_EXPERIMENTS = {
    "fig10": run_fig10,
    "fig11": run_fig11,
    "table2": run_table2,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
}

#: experiments whose rows are *not* benchmarks (table2's rows are operand
#: log sizes) — the campaign runner cannot shard these per workload
UNSHARDED_EXPERIMENTS = frozenset({"table2"})


def experiment_workloads(
    name: str,
    quick: bool = False,
    workloads: Optional[Sequence[str]] = None,
) -> Optional[List[str]]:
    """The per-workload shard axis of experiment ``name``: the benchmark
    rows it would produce, in row order — the campaign runner cuts one
    cell per entry and merges shard tables back in this exact order, so
    a parallel run is bit-identical to the serial one.  ``None`` for
    experiments that don't iterate over workloads (see
    ``UNSHARDED_EXPERIMENTS``) and for unknown/custom experiments."""
    if name in UNSHARDED_EXPERIMENTS or name not in ALL_EXPERIMENTS:
        return None
    if name == "fig13":
        if workloads is not None:
            return list(workloads)
        return list(QUICK_HALLOC) if quick else list(HALLOC_NAMES)
    return _parboil_names(quick, workloads)
