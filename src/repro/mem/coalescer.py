"""Memory-access coalescing unit.

Part of the baseline SM (paper Figure 5): a warp memory instruction's 32 lane
addresses are coalesced into one memory request per unique cache line.  A
coalesced access is just those line indices, in first-touch order; the
memory subsystem derives each line's page itself, because one warp
instruction can touch (and fault on) several pages at once — which is why
the *last* TLB check is the earliest safe point to re-enable a disabled warp
(``wd-lastcheck``) or to release replay-queue source operands.

Coalescing is a pure function of the (immutable) lane addresses, yet the
timing simulator needs it at least twice per faulted instruction (translate +
replay) and once per run for every dynamic memory record.  ``coalesce_inst``
memoizes the lines on the trace record itself, as one int64 buffer, so
repeated runs over the same trace — and the replay path — pay a cache hit
instead of re-bucketing 32 addresses (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

from array import array
from typing import Optional, Sequence, Tuple

from repro.vm import CACHE_LINE_SIZE, PAGE_SHIFT


def coalesce(
    addresses: Sequence[int], line_size: int = CACHE_LINE_SIZE
) -> Tuple[int, ...]:
    """Coalesce lane byte addresses into their unique cache-line indices,
    in first-touch order (one memory request each).

    ``dict.fromkeys`` is the order-preserving dedupe (first-touch order,
    like the serial bucketing it replaced) with the loop run in C."""
    shift = line_size.bit_length() - 1
    if (1 << shift) == line_size:
        # One/two-line fast path: ``a >> shift`` is monotone in ``a``, so
        # min/max (which run in C) bound the whole line set.  Unit-stride
        # warps land on one or two adjacent lines; the first lane's line
        # fixes the first-touch order of the pair.
        lo = min(addresses) >> shift
        hi = max(addresses) >> shift
        if lo == hi:
            return (lo,)
        if hi - lo == 1:
            first = addresses[0] >> shift
            return (first, lo + hi - first)
        return tuple(dict.fromkeys([a >> shift for a in addresses]))
    return tuple(dict.fromkeys([a // line_size for a in addresses]))


def line_page_shift(line_size: int) -> Optional[int]:
    """``PAGE_SHIFT - log2(line_size)`` when a line index maps to its page
    by a right shift (a power-of-two line no larger than a page), else
    ``None`` (the page is then ``(line * line_size) >> PAGE_SHIFT``)."""
    shift = line_size.bit_length() - 1
    if (1 << shift) == line_size and shift <= PAGE_SHIFT:
        return PAGE_SHIFT - shift
    return None


def coalesce_inst(tinst, line_size: int = CACHE_LINE_SIZE) -> Sequence[int]:
    """Memoizing :func:`coalesce` for a trace record (``tinst.addresses``).

    Safe because trace addresses are immutable after generation.  The
    record keeps ``array('q', [line_size, *lines])``: the key and the
    lines in one buffer of 8 bytes each (104 bytes for a two-line access),
    so a run at another line size recomputes instead of reading stale
    lines.  A hit returns the lines as a fresh list, whose ints the
    translation and the cache walk then read without converting each
    element again.
    """
    try:
        cached = tinst._coal
    except AttributeError:
        pass
    else:
        if cached[0] == line_size:
            lines = cached.tolist()
            del lines[0]  # the key
            return lines
    lines = coalesce(tinst.addresses, line_size)
    tinst._coal = array("q", (line_size, *lines))
    return lines
