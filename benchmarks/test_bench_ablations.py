"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. Preemption latency (paper Section 2.4): a non-preemptible pipeline must
   wait out in-flight fault round trips before a context switch; the
   preemptible schemes squash and switch immediately.
2. Software WAR renaming vs the operand log: renaming lbm's reused address
   registers in the compiler recovers replay-queue performance at the cost
   of register pressure — the software-side alternative to Approach 3's
   hardware log.
3. Arithmetic-exception coverage: extending the schemes to divide-by-zero
   (paper Sections 3.1/3.2) costs extra only on SFU-divide-heavy code.
"""

from conftest import show

from repro.core import preemption_latency_experiment
from repro.core.schemes import WarpDisableCommit
from repro.harness.results import ExperimentTable
from repro.opt import rename_war_registers
from repro.system import DEFAULT_TIME_SCALE, GpuSimulator
from repro.workloads.parboil import Lbm


def test_bench_preemption_latency(benchmark):
    def run():
        return preemption_latency_experiment(
            "stream-sum", "replay-queue", request_fraction=0.05,
            time_scale=DEFAULT_TIME_SCALE,
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    table = ExperimentTable(
        name="ablation-preemption",
        description="context-switch latency at a preemption request (cycles)",
        columns=["preemptible", "stall-on-fault"],
    )
    table.add_row(
        "stream-sum", [result["preemptible"], result["stall-on-fault"]]
    )
    show(table)
    assert result["stall-on-fault"] >= result["preemptible"]


def test_bench_war_renaming(benchmark):
    wl = Lbm(grid_dim=32, iters=3)
    renamed_kernel, renamed = rename_war_registers(wl.kernel, extra_regs=24)

    def cycles(workload):
        return GpuSimulator.for_workload(workload, "replay-queue").run().cycles

    def run():
        wl2 = Lbm(grid_dim=32, iters=3)
        wl2._kernel = renamed_kernel
        return cycles(wl), cycles(wl2)

    plain, improved = benchmark.pedantic(run, rounds=1, iterations=1)
    table = ExperimentTable(
        name="ablation-war-renaming",
        description="lbm replay-queue cycles: reused vs renamed addr regs",
        columns=["plain", "renamed", "hazards-removed"],
    )
    table.add_row("lbm", [plain, improved, renamed])
    show(table)
    assert renamed > 0
    assert improved < plain  # software renaming recovers the WAR stalls


def test_bench_arithmetic_coverage(benchmark):
    def cycles(scheme):
        # mri-q is SFU-heavy (sin/cos) and divide-free
        return GpuSimulator.for_workload("mri-q", scheme).run().cycles

    def run():
        return (
            cycles(WarpDisableCommit()),
            cycles(WarpDisableCommit(cover_arithmetic=True)),
        )

    plain, covered = benchmark.pedantic(run, rounds=1, iterations=1)
    table = ExperimentTable(
        name="ablation-arith-coverage",
        description="wd-commit cycles with divide-by-zero coverage",
        columns=["memory-only", "plus-arith"],
    )
    table.add_row("mri-q", [plain, covered])
    show(table)
    # mri-q has no divides: coverage must be free on divide-free code
    assert covered == plain
