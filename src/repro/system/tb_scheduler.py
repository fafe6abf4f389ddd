"""Global thread-block scheduler (the host interface's TB dispatcher).

A kernel launch is partitioned into independent thread blocks; an initial
batch fills every SM to its occupancy and pending blocks are handed out as
running blocks finish (paper Sections 2.1 and 4.1).  Each kernel's blocks
are dispatched in block-id order, which reproduces the distribution
sensitivity the paper observed for *mri-gridding*.  A single-kernel launch
is the one-stream case of :class:`MultiKernelScheduler`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.functional.trace import BlockTrace


class MultiKernelScheduler:
    """Thread-block dispatcher for several concurrently resident kernels.

    Kernels arrive grouped by *stream* (``stream_kernels[s]`` is stream
    ``s``'s ordered list of kernel ids); within a stream kernels execute in
    enqueue order (a kernel only becomes dispatchable when its predecessor
    on the same stream has retired every block), across streams they run
    concurrently.  SMs are assigned a *home stream*:

    ``partition``
        contiguous slices — SM ``j`` of ``N`` belongs to stream
        ``j * S // N`` (the CUDA-MPS-like spatial split);
    ``interleave``
        round-robin — SM ``j`` belongs to stream ``j % S``.

    ``next_block`` prefers the home stream's current kernel and falls back
    to *stealing* from other streams' eligible kernels in stream order, so
    no SM idles while any stream still has work — the work-conserving
    policy docs/CONCURRENCY.md documents.  The SMs and the use-case-1
    local scheduler consume ``next_block`` and ``pending``.
    """

    def __init__(
        self,
        stream_kernels: Sequence[Sequence[int]],
        kernel_blocks: Dict[int, List[BlockTrace]],
        num_sms: int,
        policy: str = "partition",
        schedule=None,
    ) -> None:
        """``stream_kernels[s]`` lists stream ``s``'s kernel ids in enqueue
        order; ``kernel_blocks`` maps each kernel id to its (kernel-tagged)
        block traces.  ``schedule`` (a :class:`repro.mc.ScheduleControl`)
        turns the cross-stream steal order into an explorable decision
        point; ``None`` keeps the fixed home-then-stream-order policy on
        its legacy path, bit-identically."""
        if policy not in ("partition", "interleave"):
            raise ValueError(f"unknown SM assignment policy {policy!r}")
        self.policy = policy
        self.schedule = schedule
        self.num_sms = num_sms
        self._streams: List[List[int]] = [list(ks) for ks in stream_kernels]
        self._cursor: List[int] = [0] * len(self._streams)
        self._pending: Dict[int, Deque[BlockTrace]] = {
            kid: deque(blocks) for kid, blocks in kernel_blocks.items()
        }
        self.total_blocks = sum(len(b) for b in kernel_blocks.values())
        self.dispatched = 0
        #: blocks dispatched to an SM outside their stream's home slice
        self.stolen = 0

    # ------------------------------------------------------------------

    def home_stream(self, sm_id: int) -> int:
        """The stream whose kernels SM ``sm_id`` prefers to run."""
        nstreams = len(self._streams)
        if self.policy == "interleave":
            return sm_id % nstreams
        return sm_id * nstreams // self.num_sms

    def eligible_kernel(self, stream: int) -> Optional[int]:
        """The stream's currently dispatchable kernel id (its oldest
        not-yet-completed enqueued kernel), or None when drained."""
        cursor = self._cursor[stream]
        kernels = self._streams[stream]
        return kernels[cursor] if cursor < len(kernels) else None

    def on_kernel_complete(self, kernel_id: int) -> None:
        """Advance the owning stream's cursor: its next enqueued kernel
        (if any) becomes dispatchable."""
        for stream, kernels in enumerate(self._streams):
            cursor = self._cursor[stream]
            if cursor < len(kernels) and kernels[cursor] == kernel_id:
                self._cursor[stream] = cursor + 1
                return

    # ------------------------------------------------------------------
    # dispatch (SmPipeline, LocalScheduler)
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Pending blocks across every currently dispatchable kernel
        (blocks of not-yet-eligible successors are invisible, so the local
        scheduler never switches a block out for work it cannot fetch)."""
        total = 0
        for stream in range(len(self._streams)):
            kid = self.eligible_kernel(stream)
            if kid is not None:
                total += len(self._pending[kid])
        return total

    def next_block(self, sm_id: int) -> Optional[BlockTrace]:
        """Hand ``sm_id`` the next block: home stream first, then steal
        from the other streams in stream order (None when all drained).

        With a schedule control attached, a dispatch with more than one
        candidate stream becomes a ``sched.steal`` decision point keyed
        on the SM (docs/MODELCHECK.md); choice 0 is the legacy
        home-then-stream-order pick, so the all-default trace is
        bit-identical to the detached path."""
        home = self.home_stream(sm_id)
        order = [home] + [
            s for s in range(len(self._streams)) if s != home
        ]
        if self.schedule is not None:
            candidates = []
            for stream in order:
                kid = self.eligible_kernel(stream)
                if kid is not None and self._pending[kid]:
                    candidates.append(stream)
            if not candidates:
                return None
            pick = self.schedule.choose(
                "sched.steal", ("sm", sm_id), len(candidates)
            )
            stream = candidates[pick]
            self.dispatched += 1
            if stream != home:
                self.stolen += 1
            return self._pending[self.eligible_kernel(stream)].popleft()
        for stream in order:
            kid = self.eligible_kernel(stream)
            if kid is None:
                continue
            queue = self._pending[kid]
            if queue:
                self.dispatched += 1
                if stream != home:
                    self.stolen += 1
                return queue.popleft()
        return None

    def pending_for(self, kernel_id: int) -> int:
        """Blocks of ``kernel_id`` not yet dispatched (observability)."""
        return len(self._pending[kernel_id])
