"""Workload abstraction: a kernel + launch geometry + address-space layout.

A :class:`Workload` owns everything needed to simulate one benchmark:

- the kernel (built once from the DSL),
- the launch geometry and parameter values (segment base addresses),
- the virtual address-space layout (segments with their paging behaviour),
- memory initialization for the functional run,
- an optional device heap (for the Halloc-style allocator benchmarks).

The dynamic trace is produced once by the functional simulator and cached;
each timing simulation gets a *fresh* address space (same deterministic
layout, clean page state) so experiments do not leak paging state into each
other.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.functional import Interpreter, Launch, KernelTrace
from repro.isa import Kernel
from repro.vm import AddressSpace, DeviceHeap, SegmentKind, SparseMemory


class Workload:
    """Base class for benchmark workloads.

    Subclasses implement :meth:`build_kernel`, :meth:`segments` and
    :meth:`params`, and may override :meth:`init_memory` and
    :meth:`heap_spec`.
    """

    #: registry name (subclasses set this)
    name: str = "workload"

    def __init__(self, grid_dim: int, block_dim: int) -> None:
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        self._kernel: Optional[Kernel] = None
        self._trace: Optional[KernelTrace] = None

    # -- subclass interface -------------------------------------------------

    def build_kernel(self) -> Kernel:
        raise NotImplementedError

    def segments(self) -> Sequence[Tuple[str, int, str]]:
        """``(name, size_bytes, kind)`` triples, in layout order."""
        raise NotImplementedError

    def params(self, aspace: AddressSpace) -> List[float]:
        """Kernel launch parameters (usually segment base addresses)."""
        raise NotImplementedError

    def init_memory(self, memory: SparseMemory, aspace: AddressSpace) -> None:
        """Populate input segments for the functional run (default: zeros,
        which :class:`SparseMemory` provides implicitly)."""

    def heap_spec(self) -> Optional[int]:
        """Device-heap size in bytes, or ``None`` if the kernel never
        mallocs.  The heap gets one arena per warp in the launch."""
        return None

    # -- cached products ----------------------------------------------------

    @property
    def kernel(self) -> Kernel:
        if self._kernel is None:
            self._kernel = self.build_kernel()
        return self._kernel

    @property
    def num_threads(self) -> int:
        return self.grid_dim * self.block_dim

    @property
    def num_warps(self) -> int:
        return self.num_threads // 32

    def make_address_space(self) -> AddressSpace:
        """A fresh address space with this workload's (deterministic) layout."""
        aspace = AddressSpace()
        for name, size, kind in self.segments():
            aspace.add_segment(name, size, kind)
        heap_bytes = self.heap_spec()
        if heap_bytes:
            aspace.add_segment("heap", heap_bytes, "heap")
        return aspace

    def make_heap(self, aspace: AddressSpace) -> Optional[DeviceHeap]:
        heap_bytes = self.heap_spec()
        if not heap_bytes:
            return None
        seg = aspace.segment("heap")
        return DeviceHeap(seg.base, seg.size, num_arenas=self.num_warps)

    def make_launch(self, aspace: AddressSpace) -> Launch:
        return Launch(
            kernel=self.kernel,
            grid_dim=self.grid_dim,
            block_dim=self.block_dim,
            params=self.params(aspace),
        )

    def _run(self) -> tuple:
        """One functional execution: ``(trace, final memory)``.

        Every segment but the heap gets a dense memory image
        (docs/PERFORMANCE.md): heap touches are sparse, a few words per
        64-byte chunk, and stay on the word dict."""
        aspace = self.make_address_space()
        memory = SparseMemory(
            [s for s in aspace.segments() if s.kind != SegmentKind.HEAP]
        )
        self.init_memory(memory, aspace)
        interp = Interpreter(
            memory=memory, address_space=aspace, heap=self.make_heap(aspace)
        )
        return interp.run(self.make_launch(aspace)), memory

    def trace(self) -> KernelTrace:
        """The dynamic trace (functional execution), computed once."""
        if self._trace is None:
            self._trace = self._run()[0]
        return self._trace

    def run_functional(self) -> SparseMemory:
        """Execute functionally and return the resulting memory (used by
        correctness tests and examples)."""
        return self._run()[1]

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} grid={self.grid_dim} "
            f"block={self.block_dim}>"
        )


class WorkloadRegistry:
    """Name -> workload-factory registry with per-instance caching."""

    def __init__(self) -> None:
        self._factories: Dict[str, type] = {}
        self._instances: Dict[str, Workload] = {}

    def register(self, cls: type) -> type:
        self._factories[cls.name] = cls
        return cls

    def names(self) -> List[str]:
        return sorted(self._factories)

    def get(self, name: str) -> Workload:
        """A cached instance (kernel + trace shared across experiments)."""
        if name not in self._instances:
            try:
                self._instances[name] = self._factories[name]()
            except KeyError:
                raise KeyError(
                    f"unknown workload {name!r}; known: {self.names()}"
                ) from None
        return self._instances[name]

    def fresh(self, name: str) -> Workload:
        """An uncached instance (independent trace), for tests."""
        return self._factories[name]()
