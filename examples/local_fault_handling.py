#!/usr/bin/env python
"""Use case 2 demo: handling first-touch page faults on the GPU itself.

Runs the quad-tree allocator benchmark (device-side malloc -> lazily backed
heap pages) with faults handled by the CPU driver vs. by a handler running
on the faulting SM, and reports the throughput win (paper Section 4.2 /
Figure 13).

Run:  python examples/local_fault_handling.py
"""

from repro.system import (
    DEFAULT_TIME_SCALE, GPUConfig, GpuSimulator, INTERCONNECTS,
)


def simulate(interconnect, local):
    return GpuSimulator.for_workload(
        "quad-tree", "replay-queue", time_scale=DEFAULT_TIME_SCALE,
        interconnect=interconnect, paging="demand-heap",
        local_handling=local,
    ).run()


def main():
    print(f"quad-tree: every level allocates its children with device "
          f"malloc;\nfirst stores to fresh heap granules fault "
          f"(handler latency: CPU {INTERCONNECTS['nvlink'].alloc_cost/1000:.0f}us"
          f" unloaded vs GPU {GPUConfig().gpu_handler_latency/1000:.0f}us)\n")

    for ic_name in ("nvlink", "pcie"):
        cpu = simulate(ic_name, local=False)
        gpu = simulate(ic_name, local=True)
        fs = gpu.fault_stats
        print(f"[{ic_name}] CPU handling: {cpu.cycles:9.0f} cycles | "
              f"GPU-local: {gpu.cycles:9.0f} cycles "
              f"({fs.handled_locally} faults handled on-SM) "
              f"-> speedup {cpu.cycles / gpu.cycles:.2f}x")
    print("\nDespite the 10x higher per-fault latency, local handling wins "
          "on throughput:\nthe faults no longer serialize on the "
          "interconnect and the single CPU handler.")


if __name__ == "__main__":
    main()
