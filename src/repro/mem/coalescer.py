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
memoizes the lines in one compact store per warp trace, so repeated runs
over the same trace — and the replay path — pay a cache hit instead of
re-bucketing 32 addresses (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import os
import threading
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


def coalesce_inst(
    trace, rec: int, line_size: int = CACHE_LINE_SIZE
) -> Sequence[int]:
    """Memoizing :func:`coalesce` for record ``rec`` of a
    :class:`~repro.functional.trace.WarpTrace`.

    Safe because trace addresses are immutable after generation.  The
    warp keeps ``(line_size, at, lines)`` in its ``coal`` slot: ``lines``
    is one int64 buffer holding, per coalesced record, its line count
    and then its lines, and ``at`` (int32, one per record, -1 until the
    record is coalesced) is where they start: 4 bytes per record plus 8
    per count and line.  A call at another line size replaces the store,
    so a stale line is never served.  A hit returns the lines as a
    fresh list, whose ints the translation and the cache walk then read
    without converting each element again.

    A cached trace can be simulated by several threads at once (the
    in-process serve path), so a miss writes under :data:`_memo_lock`
    and sets ``at[rec]`` last: a reader never sees an entry before its
    count and lines are in place, and ``lines`` only grows.
    """
    memo = trace.coal
    if memo is not None and memo[0] == line_size:
        pos = memo[1][rec]
        if pos >= 0:
            buf = memo[2]
            return buf[pos + 1:pos + 1 + buf[pos]].tolist()
    lines = coalesce(trace.addresses(rec), line_size)
    with _memo_lock:
        memo = trace.coal
        if memo is None or memo[0] != line_size:
            memo = trace.coal = (line_size, array("i", (-1,)) * len(trace),
                                 array("q"))
        _, at, buf = memo
        if at[rec] < 0:
            pos = len(buf)
            buf.append(len(lines))
            buf.extend(lines)
            at[rec] = pos
    return lines


def _new_memo_lock() -> None:
    """A fresh memo lock, also in a forked child: a thread of the parent
    may have held the old one at the fork, and no thread of the child
    would ever release it."""
    global _memo_lock
    _memo_lock = threading.Lock()


_new_memo_lock()
os.register_at_fork(after_in_child=_new_memo_lock)
