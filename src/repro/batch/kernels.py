"""Per-scheme cost kernels: built once per scheme, cached.

The batch timing model charges every dynamic record an integer issue
cost that depends only on its instruction class and the pipeline scheme
(base cost + the scheme's write-back/commit window on memory classes),
plus a per-fault term (scaled base latency + seeded jitter + the
scheme's squash/replay overhead).  This module owns those numbers and
the two forms both backends share:

- :func:`cost_vector` — the per-class integer costs of one scheme, the
  scheme's parameters substituted into the per-class cost expressions;
- :func:`warp_cost_fn` — the per-warp base-cycles polynomial
  ``sum_k n_k * c_k``, built once per scheme behind ``lru_cache`` and
  evaluated over whole count-matrix columns by the vectorized engine.

Everything is exact integer arithmetic: the scalar reference adds the
same constants record by record, so the two backends agree bit for bit
(docs/VECTORIZATION.md has the full contract, including how to add a
scheme kernel).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from .profile import CLS_LOAD, CLS_STORE, NUM_CLASSES

#: base issue cost per instruction class (alu, sfu, load, store, ctrl, bar)
BASE_ISSUE_COST = (1, 4, 8, 6, 2, 12)

#: per-scheme model parameters.  ``load_window``/``store_window`` are the
#: extra cycles the scheme holds a memory instruction (its exception
#: window: full write-back buffering for wd-commit, the last-TLB-check
#: shortcut for wd-lastcheck, a replay-queue scoreboard hold);
#: ``fault_overhead`` is the squash/replay cost charged per fault on top
#: of the resolution latency.  Adding a scheme = adding a row here (and,
#: for vectorized support, listing it in spec.VECTORIZABLE_SCHEMES).
SCHEME_PARAMS: Dict[str, Dict[str, int]] = {
    "baseline": {"load_window": 0, "store_window": 0, "fault_overhead": 25},
    "wd-commit": {"load_window": 6, "store_window": 4, "fault_overhead": 12},
    "wd-lastcheck": {"load_window": 2, "store_window": 1,
                     "fault_overhead": 6},
    "replay-queue": {"load_window": 1, "store_window": 0,
                     "fault_overhead": 2},
    "operand-log": {"load_window": 1, "store_window": 2,
                    "fault_overhead": 4},
}

#: nominal fault-resolution latency in model cycles (latency_scale=100)
BASE_FAULT_LATENCY = 2000

#: seeded per-site jitter is drawn uniformly from [0, JITTER_SPAN)
JITTER_SPAN = 64

#: fixed launch overhead added to every makespan
LAUNCH_OVERHEAD = 100

#: operand-log scalar-only model: per-entry bytes mirror
#: repro.core.schemes' LOAD_LOG_BYTES/STORE_LOG_BYTES; entries retire
#: OPERAND_LOG_WINDOW records after allocation, and a full log drains at
#: a fixed stall cost
OPERAND_LOG_DEFAULT_KB = 16
OPERAND_LOG_LOAD_BYTES = 256
OPERAND_LOG_STORE_BYTES = 512
OPERAND_LOG_WINDOW = 8
OPERAND_LOG_STALL = 20

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xFF51AFD7ED558CCD
_MIX_B = 0xC4CEB9FE1A85EC53


def scheme_params(scheme: str) -> Tuple[str, Dict[str, int], int]:
    """Resolve a scheme name to ``(family, params, log_kb)``.

    ``operand-log-<N>kb`` variants share the ``operand-log`` family with
    their capacity parsed from the name; other schemes return their own
    name and ``log_kb=0``.  Unknown schemes raise ``KeyError``.
    """
    if scheme.startswith("operand-log"):
        suffix = scheme[len("operand-log"):]
        kb = OPERAND_LOG_DEFAULT_KB
        if suffix.startswith("-") and suffix.endswith("kb"):
            kb = int(suffix[1:-2])
        return "operand-log", SCHEME_PARAMS["operand-log"], kb
    if scheme not in SCHEME_PARAMS:
        raise KeyError(
            f"unknown scheme {scheme!r}; known: {sorted(SCHEME_PARAMS)}"
        )
    return scheme, SCHEME_PARAMS[scheme], 0


@lru_cache(maxsize=None)
def cost_vector(scheme: str) -> Tuple[int, ...]:
    """The per-class integer issue costs of ``scheme``: ``c_k = b_k +
    w_k``, the base cost plus the scheme's window on the load/store
    classes."""
    _family, params, _kb = scheme_params(scheme)
    windows = [0] * NUM_CLASSES
    windows[CLS_LOAD] = params["load_window"]
    windows[CLS_STORE] = params["store_window"]
    return tuple(
        b + w for b, w in zip(BASE_ISSUE_COST, windows)
    )


@lru_cache(maxsize=None)
def warp_cost_fn(scheme: str) -> Callable:
    """The per-warp base-cycles kernel of ``scheme``.

    The polynomial ``sum_k n_k * c_k`` over the class counts, built once
    per scheme and cached, then evaluated over the whole
    ``(num_warps, NUM_CLASSES)`` counts matrix of every batch that uses
    the scheme.  Integer coefficients over int64 columns keep the result
    exact.
    """
    costs = cost_vector(scheme)
    return lambda *ns: sum(c * n for c, n in zip(costs, ns))


def fault_latency(latency_scale: int) -> int:
    """Scaled fault-resolution latency (integer floor division)."""
    return (BASE_FAULT_LATENCY * int(latency_scale)) // 100


def _mix64(z: int) -> int:
    """The 64-bit finalizer both jitter implementations share."""
    z &= _MASK64
    z = ((z ^ (z >> 33)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 33)) * _MIX_B) & _MASK64
    return z ^ (z >> 33)


def fault_jitter(seed: int, site: int) -> int:
    """Seeded jitter of one fault site (scalar reference form).

    A splitmix-style hash of (seed, site) reduced mod
    :data:`JITTER_SPAN`; pure function of its arguments, so the
    vectorized form can reproduce it exactly.
    """
    return _mix64(((seed & _MASK64) * _GOLDEN + site + 1) & _MASK64) \
        % JITTER_SPAN


def fault_jitter_array(seed: int, n: int) -> np.ndarray:
    """Jitter of sites ``0..n-1`` as one int64 vector.

    The same splitmix finalizer as :func:`fault_jitter`, computed in
    wrapping uint64 array arithmetic — bit-identical to the scalar form
    for every (seed, site).
    """
    base = ((seed & _MASK64) * _GOLDEN) & _MASK64
    with np.errstate(over="ignore"):
        z = np.full(n, base, dtype=np.uint64) + np.arange(
            1, n + 1, dtype=np.uint64
        )
        z ^= z >> np.uint64(33)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(33)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(33)
    return (z % np.uint64(JITTER_SPAN)).astype(np.int64)


def chaos_factors(seed: int, n: int) -> List[int]:
    """Per-site chaos latency multipliers (scalar-only by design).

    The factor of site ``i`` depends on the *hash-chain state after site
    ``i-1``* — a sequentially-dependent RNG walk that cannot be expressed
    as a per-site pure function, which is exactly why chaos batches are
    ineligible for the vectorized backend (docs/VECTORIZATION.md).
    """
    z = _mix64(seed ^ _GOLDEN)
    factors = []
    for site in range(n):
        z = _mix64(z + site + 1)
        factors.append(1 + (z % 3))
    return factors


def operand_log_stalls(classes, log_kb: int, warps_per_block: int) -> int:
    """Operand-log stall cycles of one warp (scalar-only model).

    Walks the warp's record sequence keeping the running log occupancy:
    loads/stores allocate entries that retire :data:`OPERAND_LOG_WINDOW`
    records later; when an allocation would overflow the warp's share of
    the log, the warp stalls :data:`OPERAND_LOG_STALL` cycles while the
    log drains.  The running occupancy is a per-record recurrence —
    the reason operand-log schemes stay on the scalar backend.
    """
    capacity = max(
        OPERAND_LOG_STORE_BYTES,
        (log_kb * 1024) // max(1, warps_per_block),
    )
    occupancy = 0
    stalls = 0
    pending: List[Tuple[int, int]] = []
    head = 0
    for i, cls in enumerate(classes):
        while head < len(pending) and pending[head][0] <= i:
            occupancy -= pending[head][1]
            head += 1
        if cls == CLS_LOAD:
            nbytes = OPERAND_LOG_LOAD_BYTES
        elif cls == CLS_STORE:
            nbytes = OPERAND_LOG_STORE_BYTES
        else:
            continue
        if occupancy + nbytes > capacity:
            stalls += OPERAND_LOG_STALL
            occupancy = 0
            pending = []
            head = 0
        occupancy += nbytes
        pending.append((i + OPERAND_LOG_WINDOW, nbytes))
    return stalls
