"""repro — reproduction of "Efficient Exception Handling Support for GPUs"
(Tanasic et al., MICRO 2017).

A cycle-level GPU simulator with the paper's three preemptible-exception
pipeline schemes (warp disable, replay queue, operand log) and its two use
cases (thread-block switching on fault, GPU-local fault handling), plus the
substrates they need: a mini GPU ISA and functional SIMT simulator, a
virtual-memory stack, and a timing model of the memory hierarchy.

Quickstart::

    from repro.system import DEFAULT_TIME_SCALE, GpuSimulator

    sim = GpuSimulator.for_workload("saxpy", "replay-queue")
    print(sim.run().cycles)

    # demand paging with the fault constants divided by the time scale
    sim = GpuSimulator.for_workload("saxpy", "replay-queue", paging="demand",
                                    time_scale=DEFAULT_TIME_SCALE)
    print(sim.run().cycles)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
