#!/usr/bin/env python
"""Compare all preemptible-exception pipeline schemes on one benchmark.

Reproduces a slice of Figures 10 and 11 on lbm — the paper's most
scheme-sensitive kernel (8-warp occupancy, ILP-dependent) — and prints the
area/power bill of the operand-log variants (Table 2).

Run:  python examples/scheme_comparison.py [benchmark]
"""

import sys

from repro.core import OperandLog
from repro.core.area_power import overheads
from repro.system import GpuSimulator
from repro.workloads import get_workload


def simulate(wl, scheme):
    return GpuSimulator.for_workload(wl, scheme, paging="premapped").run()


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "lbm"
    wl = get_workload(name)
    print(f"benchmark: {name} "
          f"({wl.trace().dynamic_instructions()} dynamic instructions)\n")

    base = simulate(wl, "baseline").cycles
    print(f"{'scheme':18s} {'cycles':>10s} {'vs baseline':>12s} "
          f"{'GPU area':>9s} {'GPU power':>10s}")
    print(f"{'baseline':18s} {base:10.0f} {1.0:12.3f} {'-':>9s} {'-':>10s}")
    for s in ("wd-commit", "wd-lastcheck", "replay-queue"):
        cycles = simulate(wl, s).cycles
        print(f"{s:18s} {cycles:10.0f} {base / cycles:12.3f} "
              f"{'0%':>9s} {'0%':>10s}")
    for kb in (8, 16, 32):
        cycles = simulate(wl, OperandLog(kb)).cycles
        bill = overheads(kb)
        print(f"{f'operand-log-{kb}KB':18s} {cycles:10.0f} "
              f"{base / cycles:12.3f} {bill.gpu_area_pct:8.2f}% "
              f"{bill.gpu_power_pct:9.2f}%")


if __name__ == "__main__":
    main()
