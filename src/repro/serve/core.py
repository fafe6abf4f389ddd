"""Multi-tenant control plane: admission, budgets, breakers, telemetry.

:class:`ServiceCore` is the *synchronous* heart of ``repro.serve``
(docs/ROBUSTNESS.md "Serving").  It owns no clock and performs no I/O:
every decision is a pure function of the call sequence and the ``now``
timestamps (simulated cycles) the caller passes in.  That split is what
makes the serving layer testable and bit-reproducible — the asyncio
shell (:class:`repro.serve.service.GpuService`) and the deterministic
virtual-time driver (:class:`repro.serve.loadgen.VirtualTimeDriver`)
drive the *same* core, so the containment experiment committed in
``BENCH_serve.json`` replays identically for a given seed.

Per tenant the core enforces:

**Admission control** — a *stream quota* (``max_streams`` concurrent
in-flight kernels) plus a bounded wait queue (``max_queue_depth``).
Work beyond both is shed with a structured :class:`QueueFull`, never
parked unbounded.

**Fault containment** — a fault budget fed by the per-kernel fault
tallies the simulator already produces
(:class:`repro.system.StreamKernelResult.faults_raised`), and a hang
budget fed by watchdog trips.  A :class:`CircuitBreaker` per tenant
trips to OPEN (quarantine) when either budget is exceeded inside its
sliding window; submissions from a quarantined tenant are rejected with
:class:`TenantQuarantined` while other tenants' in-flight kernels keep
running.  After a cooldown the breaker goes HALF_OPEN and admits a
bounded number of probes; a clean probe closes it again.

**Weighted-fair execution grants** — the shared GPU pool is granted in
deficit-round-robin order over per-tenant pending queues
(:class:`~repro.serve.fair.DeficitRoundRobin`): strict priority
classes first, then weight-proportional shares within a class, instead
of the PR 7 FIFO a backlogged tenant could convoy.  Both the
virtual-time driver and the asyncio shell route GPU grants through
:meth:`ServiceCore.queue_for_execution` /
:meth:`ServiceCore.next_for_execution`.

**Cache partitioning** — when a
:class:`~repro.serve.cache.PartitionedResultCache` is attached
(:meth:`ServiceCore.attach_cache`), registering a tenant carves out its
private partition (share = ``cache_share`` or the fair-queue weight)
and binds the ``serve.tenant[<t>].cache.*`` gauges.

**Telemetry** — ``serve.tenant[<t>].{submits,faults,rejections,
cache_hits,p99_cycles}`` rollups plus the ``serve.slo.*`` service-level
counters (docs/OBSERVABILITY.md; the authoritative name list is
``repro.serve.metrics.SERVE_COUNTERS``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.telemetry.counters import CounterRegistry

from .cache import PartitionedResultCache
from .fair import DeficitRoundRobin


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


# ---------------------------------------------------------------------------
# structured rejections
# ---------------------------------------------------------------------------

class ServeRejection(Exception):
    """A submission the service refused — structured, never a hang.

    Carries the machine-readable ``code`` plus a per-class ``reason``
    phrase and the instance ``tenant``/``detail`` (``to_dict``), so
    clients — including wire clients, which reconstruct the typed
    exception from the code (docs/SERVING.md "Rejection codes") — can
    classify sheds without parsing messages.  Every subclass MUST carry
    a distinct ``code`` and a distinct ``reason``: earlier revisions
    let unknown-tenant and queue-depth sheds surface the same generic
    reason string, which made wire-side triage guesswork
    (``tests/test_serve.py`` asserts distinctness)."""

    code = "rejected"
    reason = "request rejected"

    def __init__(self, tenant: str, detail: str) -> None:
        self.tenant = tenant
        self.detail = detail
        super().__init__(
            f"[{self.code}] {self.reason} — tenant {tenant!r}: {detail}"
        )

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "reason": self.reason,
            "tenant": self.tenant,
            "detail": self.detail,
        }


class UnknownTenant(ServeRejection):
    """Submission from a tenant that was never registered."""

    code = "unknown-tenant"
    reason = "tenant is not registered with the service"


class QueueFull(ServeRejection):
    """Stream quota and wait queue both exhausted: the request is shed."""

    code = "queue-full"
    reason = "stream quota and wait queue are both exhausted"


class TenantQuarantined(ServeRejection):
    """The tenant's circuit breaker is open (fault/hang budget blown)."""

    code = "quarantined"
    reason = "tenant circuit breaker is open"


class ServiceUnavailable(ServeRejection):
    """The service refused before tenant admission — e.g. a draining
    wire daemon sheds new submissions while in-flight work finishes."""

    code = "unavailable"
    reason = "service is not accepting new submissions"


# ---------------------------------------------------------------------------
# policy + breaker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant limits and budgets (times/windows in simulated cycles).

    Defaults describe a small interactive tenant on the bundled micro
    workloads at ``DEFAULT_TIME_SCALE``; the load generator and tests
    override them freely."""

    #: concurrent in-flight kernels (the stream quota)
    max_streams: int = 2
    #: admitted-but-waiting requests beyond the quota before shedding
    max_queue_depth: int = 8
    #: faults tolerated inside ``breaker_window`` before quarantine.
    #: Page faults are normal traffic under demand paging (a clean micro
    #: kernel raises hundreds), so the budget must sit well above the
    #: tenant's legitimate fault rate — it exists to catch storms, not
    #: paging.
    fault_budget: int = 100_000
    #: watchdog-detected hangs (or exhausted timeouts) tolerated inside
    #: ``breaker_window`` before quarantine
    hang_budget: int = 1
    #: sliding budget window, in cycles
    breaker_window: float = 500_000.0
    #: OPEN -> HALF_OPEN after this many cycles of quarantine
    cooldown: float = 1_000_000.0
    #: probe submissions admitted while HALF_OPEN
    half_open_probes: int = 1
    #: deficit-round-robin share of the shared GPU pool (>= 1); a
    #: weight-2 tenant drains its pending queue twice as fast as a
    #: weight-1 tenant while both are backlogged
    weight: int = 1
    #: strict priority class for execution grants — higher classes are
    #: served before lower ones regardless of weight
    priority: int = 0
    #: share of the partitioned result cache; ``None`` inherits
    #: ``weight`` so fair tenants get fair cache real estate by default
    cache_share: Optional[int] = None


class CircuitBreaker:
    """Per-tenant quarantine latch: CLOSED -> OPEN -> HALF_OPEN -> ...

    CLOSED admits everything while the fault/hang tallies stay within
    budget.  Exceeding either budget trips to OPEN: every submission is
    rejected until ``cooldown`` cycles pass, then HALF_OPEN admits up to
    ``half_open_probes`` probes — a clean completion closes the breaker
    and clears the tallies, another budget violation re-trips it.  All
    transitions are driven by the caller's ``now`` (simulated cycles),
    so breaker behaviour is bit-reproducible under the virtual-time
    driver."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, policy: TenantPolicy) -> None:
        self.policy = policy
        self.state = self.CLOSED
        self.opened_at: Optional[float] = None
        #: times the breaker tripped (quarantine count)
        self.opens = 0
        self._faults: List[Tuple[float, int]] = []  # (time, count)
        self._hangs: List[float] = []
        self._probes_left = 0

    # -- window bookkeeping --------------------------------------------

    def _prune(self, now: float) -> None:
        window = self.policy.breaker_window
        self._faults = [
            (t, n) for t, n in self._faults if now - t <= window
        ]
        self._hangs = [t for t in self._hangs if now - t <= window]

    def fault_tally(self, now: float) -> int:
        """Faults recorded inside the current window."""
        self._prune(now)
        return sum(n for _, n in self._faults)

    def hang_tally(self, now: float) -> int:
        """Hangs recorded inside the current window."""
        self._prune(now)
        return len(self._hangs)

    # -- transitions ----------------------------------------------------

    def _trip(self, now: float) -> None:
        self.state = self.OPEN
        self.opened_at = now
        self.opens += 1

    def state_at(self, now: float) -> str:
        """Current state, resolving an expired cooldown to HALF_OPEN."""
        if (
            self.state == self.OPEN
            and now - self.opened_at >= self.policy.cooldown
        ):
            self.state = self.HALF_OPEN
            self._probes_left = self.policy.half_open_probes
        return self.state

    def allow(self, now: float) -> bool:
        """May a submission proceed right now?  Consumes one probe while
        HALF_OPEN (the bounded trickle that tests recovery)."""
        state = self.state_at(now)
        if state == self.OPEN:
            return False
        if state == self.HALF_OPEN:
            if self._probes_left <= 0:
                return False
            self._probes_left -= 1
        return True

    def record_faults(self, count: int, now: float) -> None:
        """Fold one completed kernel's fault tally into the window; trips
        the breaker when the budget is exceeded."""
        if count <= 0:
            return
        self._faults.append((now, count))
        if self.fault_tally(now) > self.policy.fault_budget:
            self._trip(now)

    def record_hang(self, now: float) -> None:
        """Record a watchdog trip (or exhausted timeout); trips the
        breaker when the hang budget is exceeded — and immediately while
        HALF_OPEN (a failed probe re-quarantines)."""
        self._hangs.append(now)
        if (
            self.state == self.HALF_OPEN
            or self.hang_tally(now) > self.policy.hang_budget
        ):
            self._trip(now)

    def record_success(self, now: float) -> None:
        """A clean completion: while HALF_OPEN this closes the breaker
        and clears the window tallies."""
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED
            self._faults.clear()
            self._hangs.clear()


# ---------------------------------------------------------------------------
# per-tenant state + the core
# ---------------------------------------------------------------------------

@dataclass
class TenantState:
    """Everything the core tracks about one tenant."""

    tenant: str
    policy: TenantPolicy
    breaker: CircuitBreaker
    inflight: int = 0  #: kernels occupying a stream slot right now
    queued: int = 0  #: admitted requests waiting for a stream slot
    submits: int = 0
    rejections: int = 0
    faults: int = 0
    hangs: int = 0
    cache_hits: int = 0
    completions: int = 0
    failures: int = 0
    retries: int = 0
    #: per-request service latencies in simulated cycles; cache hits
    #: are served instantly and contribute 0.0 samples, so the p99
    #: tracks the executed tail
    latencies_cycles: List[float] = field(default_factory=list)

    def p99_cycles(self) -> float:
        return percentile(self.latencies_cycles, 0.99)

    def p50_cycles(self) -> float:
        return percentile(self.latencies_cycles, 0.50)


#: SLO counter leaves registered up front (docs/OBSERVABILITY.md)
SLO_LEAVES = (
    "submitted", "admitted", "rejected", "completed", "failed",
    "retries", "quarantines", "cache_hits", "cache_misses", "hangs",
)


class ServiceCore:
    """The tenant-granular control plane (module docstring).

    Thread-safe: the asyncio shell completes work on executor threads.
    Every method taking ``now`` expects simulated cycles — the caller
    owns the clock."""

    def __init__(
        self, cache: Optional[PartitionedResultCache] = None
    ) -> None:
        self._lock = threading.Lock()
        self._tenants: Dict[str, TenantState] = {}
        self._exec = DeficitRoundRobin()
        self._cache: Optional[PartitionedResultCache] = None
        self.counters = CounterRegistry()
        self.counters.metadata.update(service="repro.serve")
        for leaf in SLO_LEAVES:
            self.counters.counter(f"serve.slo.{leaf}")
        if cache is not None:
            self.attach_cache(cache)

    # -- registration ---------------------------------------------------

    def attach_cache(self, cache: PartitionedResultCache) -> None:
        """Bind the partitioned result cache (idempotent for the same
        instance).  Partitions and ``serve.tenant[<t>].cache.*`` gauges
        are carved out for already-registered tenants and for every
        tenant registered afterwards."""
        with self._lock:
            if self._cache is cache:
                return
            if self._cache is not None:
                raise ValueError(
                    "a different PartitionedResultCache is already "
                    "attached to this core"
                )
            self._cache = cache
            for tenant, state in self._tenants.items():
                self._bind_cache_partition(tenant, state)

    def _bind_cache_partition(
        self, tenant: str, state: TenantState
    ) -> None:
        """Carve the tenant's partition + gauges (lock held)."""
        share = state.policy.cache_share
        if share is None:
            share = state.policy.weight
        part = self._cache.register_tenant(tenant, share=share)
        prefix = f"serve.tenant[{tenant}].cache"
        reg = self.counters
        reg.gauge(f"{prefix}.hits", lambda p=part: p.hits)
        reg.gauge(f"{prefix}.misses", lambda p=part: p.misses)
        reg.gauge(f"{prefix}.evictions", lambda p=part: p.evictions)
        reg.gauge(f"{prefix}.entries", lambda p=part: len(p))
        reg.gauge(f"{prefix}.capacity", lambda p=part: p.capacity)

    def register_tenant(
        self, tenant: str, policy: Optional[TenantPolicy] = None
    ) -> TenantState:
        """Register ``tenant`` (idempotent) and bind its telemetry
        rollups: ``serve.tenant[<t>].{submits,faults,rejections,
        cache_hits,p99_cycles,...}``."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is not None:
                return state
            state = TenantState(
                tenant=tenant,
                policy=policy or TenantPolicy(),
                breaker=CircuitBreaker(policy or TenantPolicy()),
            )
            self._tenants[tenant] = state
            self._exec.register(
                tenant,
                weight=state.policy.weight,
                priority=state.policy.priority,
            )
            prefix = f"serve.tenant[{tenant}]"
            reg = self.counters
            for leaf in (
                "submits", "faults", "rejections", "cache_hits",
                "hangs", "completions", "failures", "retries",
            ):
                reg.gauge(
                    f"{prefix}.{leaf}",
                    (lambda s=state, n=leaf: getattr(s, n)),
                )
            reg.gauge(f"{prefix}.p99_cycles", state.p99_cycles)
            reg.gauge(
                f"{prefix}.quarantines", lambda s=state: s.breaker.opens
            )
            reg.gauge(
                f"{prefix}.queue_depth", lambda s=state: s.queued
            )
            reg.gauge(
                f"{prefix}.exec_queued",
                lambda q=self._exec, t=tenant: q.depth(t),
            )
            if self._cache is not None:
                self._bind_cache_partition(tenant, state)
            return state

    def tenant(self, tenant: str) -> TenantState:
        """The tenant's state; raises :class:`UnknownTenant`."""
        state = self._tenants.get(tenant)
        if state is None:
            raise UnknownTenant(
                tenant,
                f"no registration for tenant {tenant!r}; call "
                f"register_tenant (or the wire 'register' op) first",
            )
        return state

    def tenants(self) -> List[str]:
        """Registered tenant names, sorted."""
        return sorted(self._tenants)

    # -- weighted-fair execution grants ---------------------------------

    def queue_for_execution(self, tenant: str, token: Any) -> None:
        """Park a slot-holding request until a shared GPU frees up; it
        will be released by :meth:`next_for_execution` in weighted-fair
        order rather than global FIFO."""
        with self._lock:
            self.tenant(tenant)
            self._exec.push(tenant, token)

    def next_for_execution(self) -> Optional[Tuple[str, Any]]:
        """The next ``(tenant, token)`` to grant a freed GPU to — strict
        priority classes first, deficit-round-robin by weight within a
        class — or ``None`` when nothing is pending."""
        with self._lock:
            return self._exec.pop()

    def execution_snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant fair-queue state (weight/priority/depth/deficit)."""
        with self._lock:
            return self._exec.snapshot()

    # -- admission ------------------------------------------------------

    def check_admission(self, tenant: str, now: float) -> None:
        """Gate one submission: counts it, rejects (with a structured
        error) when the tenant is unknown or quarantined.  Runs before
        the cache lookup, so a quarantined tenant cannot even be served
        from cache — quarantine means *no service*."""
        with self._lock:
            state = self.tenant(tenant)
            state.submits += 1
            self.counters.counter("serve.slo.submitted").add(1)
            if not state.breaker.allow(now):
                self._reject(state)
                raise TenantQuarantined(
                    tenant,
                    f"circuit breaker {state.breaker.state} "
                    f"(faults={state.breaker.fault_tally(now)}/"
                    f"{state.policy.fault_budget}, "
                    f"hangs={state.breaker.hang_tally(now)}/"
                    f"{state.policy.hang_budget})",
                )

    def acquire_slot(self, tenant: str, now: float) -> str:
        """Claim capacity for an admitted request: ``"run"`` when a
        stream slot is free, ``"queued"`` when it must wait; sheds with
        :class:`QueueFull` when quota and queue are both exhausted."""
        with self._lock:
            state = self.tenant(tenant)
            if state.inflight < state.policy.max_streams:
                state.inflight += 1
                self.counters.counter("serve.slo.admitted").add(1)
                return "run"
            if state.queued >= state.policy.max_queue_depth:
                self._reject(state)
                raise QueueFull(
                    tenant,
                    f"{state.inflight} in flight (quota "
                    f"{state.policy.max_streams}) and "
                    f"{state.queued} queued (limit "
                    f"{state.policy.max_queue_depth})",
                )
            state.queued += 1
            self.counters.counter("serve.slo.admitted").add(1)
            return "queued"

    def promote(self, tenant: str) -> None:
        """Move one queued request into a freed stream slot."""
        with self._lock:
            state = self.tenant(tenant)
            state.queued -= 1
            state.inflight += 1

    def quarantined(self, tenant: str, now: float) -> bool:
        """Is the tenant's breaker OPEN right now?  Callers holding
        admitted-but-unstarted work for the tenant use this to shed it
        (quarantine drops the backlog too, not just new submissions)."""
        with self._lock:
            state = self.tenant(tenant)
            return state.breaker.state_at(now) == CircuitBreaker.OPEN

    def shed_queued(self, tenant: str) -> None:
        """Drop one admitted-but-unstarted request of a quarantined
        tenant: releases its queue slot and counts a structured
        rejection."""
        with self._lock:
            state = self.tenant(tenant)
            state.queued -= 1
            self._reject(state)

    def _reject(self, state: TenantState) -> None:
        state.rejections += 1
        self.counters.counter("serve.slo.rejected").add(1)

    # -- outcomes -------------------------------------------------------

    def record_cache_hit(self, tenant: str) -> None:
        """An admitted submission was served from the result cache (no
        stream slot consumed)."""
        with self._lock:
            state = self.tenant(tenant)
            state.cache_hits += 1
            state.latencies_cycles.append(0.0)
            self.counters.counter("serve.slo.cache_hits").add(1)

    def record_cache_miss(self) -> None:
        with self._lock:
            self.counters.counter("serve.slo.cache_misses").add(1)

    def complete(
        self,
        tenant: str,
        now: float,
        *,
        latency_cycles: float,
        faults: int = 0,
        retries: int = 0,
    ) -> None:
        """One executed request finished cleanly: release its stream
        slot, record the latency sample, and feed the kernel's fault
        tally to the breaker (this is where a fault storm eventually
        trips quarantine)."""
        with self._lock:
            state = self.tenant(tenant)
            state.inflight -= 1
            state.completions += 1
            state.faults += faults
            state.retries += retries
            state.latencies_cycles.append(latency_cycles)
            ctr = self.counters.counter
            ctr("serve.slo.completed").add(1)
            ctr("serve.slo.retries").add(retries)
            opens_before = state.breaker.opens
            state.breaker.record_faults(faults, now)
            state.breaker.record_success(now)
            if state.breaker.opens > opens_before:
                ctr("serve.slo.quarantines").add(1)

    def fail(
        self,
        tenant: str,
        now: float,
        *,
        hang: bool,
        retries: int = 0,
    ) -> None:
        """One executed request exhausted its attempts: release the slot
        and feed the breaker (a hang counts against the hang budget)."""
        with self._lock:
            state = self.tenant(tenant)
            state.inflight -= 1
            state.failures += 1
            state.retries += retries
            ctr = self.counters.counter
            ctr("serve.slo.failed").add(1)
            ctr("serve.slo.retries").add(retries)
            if hang:
                state.hangs += 1
                ctr("serve.slo.hangs").add(1)
                opens_before = state.breaker.opens
                state.breaker.record_hang(now)
                if state.breaker.opens > opens_before:
                    ctr("serve.slo.quarantines").add(1)

    # -- reporting ------------------------------------------------------

    def tenant_summary(self, tenant: str) -> Dict:
        """JSON-able rollup of one tenant (deterministic field order)."""
        state = self.tenant(tenant)
        return {
            "tenant": tenant,
            "weight": state.policy.weight,
            "priority": state.policy.priority,
            "submits": state.submits,
            "completions": state.completions,
            "failures": state.failures,
            "rejections": state.rejections,
            "retries": state.retries,
            "faults": state.faults,
            "hangs": state.hangs,
            "cache_hits": state.cache_hits,
            "p50_cycles": state.p50_cycles(),
            "p99_cycles": state.p99_cycles(),
            "breaker": state.breaker.state,
            "quarantines": state.breaker.opens,
        }

    def summary(self) -> Dict:
        """JSON-able rollup of the whole service."""
        return {
            "tenants": {
                t: self.tenant_summary(t) for t in self.tenants()
            },
            "slo": {
                leaf: self.counters.value(f"serve.slo.{leaf}")
                for leaf in SLO_LEAVES
            },
        }
