#!/usr/bin/env python
"""Use case 1 demo: context switching thread blocks during page migrations.

Runs sgemm under on-demand paging over NVLink, with and without the local
scheduler that switches out faulted thread blocks, and reports the switch
activity and speedup (paper Section 4.1 / Figure 12).

Run:  python examples/block_switching.py
"""

from repro.system import DEFAULT_TIME_SCALE, GPUConfig, GpuSimulator
from repro.workloads import get_workload


def simulate(**kwargs):
    return GpuSimulator.for_workload(
        "sgemm", "replay-queue", time_scale=DEFAULT_TIME_SCALE,
        interconnect="nvlink", paging="demand", **kwargs,
    ).run()


def main():
    config = GPUConfig()
    wl = get_workload("sgemm")
    print(f"sgemm: grid={wl.grid_dim} blocks, "
          f"{config.blocks_per_sm(wl.kernel, wl.block_dim) * config.num_sms} "
          f"resident -> pending blocks exist to switch in")

    base = simulate()
    print(f"\nno switching   : {base.cycles:9.0f} cycles, "
          f"{base.fault_stats.groups_resolved} fault groups "
          f"({base.fault_stats.migrations} migrations)")

    sw = simulate(block_switching=True)
    outs = sum(s.block_switch_outs for s in sw.sm_stats)
    ins = sum(s.block_switch_ins for s in sw.sm_stats)
    extra = sum(s.extra_blocks_fetched for s in sw.sm_stats)
    print(f"block switching: {sw.cycles:9.0f} cycles  "
          f"(switch-outs {outs}, restores {ins}, extra blocks {extra})")
    print(f"speedup: {base.cycles / sw.cycles:.3f}x")

    ideal = simulate(block_switching=True, ideal_switch=True)
    print(f"ideal 1-cycle switching: {ideal.cycles:9.0f} cycles "
          f"(speedup {base.cycles / ideal.cycles:.3f}x)")


if __name__ == "__main__":
    main()
