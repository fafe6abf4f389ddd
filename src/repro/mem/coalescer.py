"""Memory-access coalescing unit.

Part of the baseline SM (paper Figure 5): a warp memory instruction's 32 lane
addresses are coalesced into one memory request per unique cache line.  The
coalescer also reports the unique virtual pages, because one warp instruction
can touch (and fault on) several pages at once — which is why the *last* TLB
check is the earliest safe point to re-enable a disabled warp
(``wd-lastcheck``) or to release replay-queue source operands.

Coalescing is a pure function of the (immutable) lane addresses, yet the
timing simulator needs it at least twice per faulted instruction (translate +
replay) and once per run for every dynamic memory record.  ``coalesce_inst``
memoizes the result on the trace record itself, so repeated runs over the
same trace — and the replay path — pay a cache hit instead of re-bucketing
32 addresses (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

from repro.vm import CACHE_LINE_SIZE, PAGE_SHIFT


class CoalescedAccess(NamedTuple):
    """The coalescer's output for one warp memory instruction.

    A NamedTuple (not a frozen dataclass) because one is built per dynamic
    memory record on the simulation fast path — tuple construction runs in
    C, while a frozen dataclass pays three ``object.__setattr__`` calls."""

    lines: Tuple[int, ...]  # unique cache-line indices, in first-touch order
    vpns: Tuple[int, ...]  # unique virtual page numbers, in first-touch order
    line_vpns: Tuple[int, ...]  # virtual page of each entry of ``lines``

    @property
    def num_requests(self) -> int:
        return len(self.lines)


def coalesce(
    addresses: Sequence[int], line_size: int = CACHE_LINE_SIZE
) -> CoalescedAccess:
    """Coalesce lane byte addresses into unique lines and pages.

    ``dict.fromkeys`` is the order-preserving dedupe (first-touch order,
    like the serial bucketing it replaced) with the loop run in C."""
    shift = line_size.bit_length() - 1
    if (1 << shift) == line_size and shift <= PAGE_SHIFT:
        # One/two-line fast path: ``a >> shift`` is monotone in ``a``, so
        # min/max (which run in C) bound the whole line set.  Unit-stride
        # warps land on one or two adjacent lines; the first lane's line
        # fixes the first-touch order of the pair.
        lo = min(addresses) >> shift
        hi = max(addresses) >> shift
        lp_shift = PAGE_SHIFT - shift
        if lo == hi:
            vpn = lo >> lp_shift
            return CoalescedAccess(lines=(lo,), vpns=(vpn,), line_vpns=(vpn,))
        if hi - lo == 1:
            first = addresses[0] >> shift
            line_tuple = (first, lo + hi - first)
            line_vpns = (line_tuple[0] >> lp_shift, line_tuple[1] >> lp_shift)
            vpns = (
                line_vpns
                if line_vpns[0] != line_vpns[1]
                else (line_vpns[0],)
            )
            return CoalescedAccess(
                lines=line_tuple, vpns=vpns, line_vpns=line_vpns
            )
        line_tuple = tuple(dict.fromkeys([a >> shift for a in addresses]))
        line_vpns = tuple([ln >> lp_shift for ln in line_tuple])
    else:
        line_tuple = tuple(dict.fromkeys([a // line_size for a in addresses]))
        line_vpns = tuple([(ln * line_size) >> PAGE_SHIFT for ln in line_tuple])
    # A page's first touch is always also a new line (each line lives on
    # exactly one page), so deduping the per-line pages preserves the
    # first-touch page order of the raw addresses — no third address scan.
    return CoalescedAccess(
        lines=line_tuple,
        vpns=tuple(dict.fromkeys(line_vpns)),
        line_vpns=line_vpns,
    )


def coalesce_inst(tinst, line_size: int = CACHE_LINE_SIZE) -> CoalescedAccess:
    """Memoizing :func:`coalesce` for a trace record (``tinst.addresses``).

    Safe because trace addresses are immutable after generation; the cache
    is keyed by line size so a config change cannot serve stale data.
    """
    try:
        cached_size, cached = tinst._coal
        if cached_size == line_size:
            return cached
    except AttributeError:
        pass
    access = coalesce(tinst.addresses, line_size)
    tinst._coal = (line_size, access)
    return access
