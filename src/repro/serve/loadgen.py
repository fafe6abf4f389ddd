"""Synthetic load (open- and closed-loop) + the virtual-time driver.

The asyncio shell measures real wall-clock throughput, but wall clock
is exactly what a committed benchmark must *not* depend on.  So the
experiments in ``BENCH_serve.json`` run on :class:`VirtualTimeDriver`:
a discrete-event executor that drives the very same
:class:`~repro.serve.core.ServiceCore` /
:class:`~repro.serve.cache.PartitionedResultCache` against load whose
times are *simulated cycles* drawn from seeded RNGs.  Service time for
a request is the simulated cycle count its kernel takes (memoized —
the executor is a pure function of its spec); latency is completion
time minus arrival time, so queueing delay is included.  Same seed =>
identical schedule, identical decisions, identical report digest.

Two load shapes feed the driver:

- **open-loop** (:func:`open_loop_arrivals`): a precomputed Poisson
  schedule that keeps submitting regardless of service state — the
  right model for aggregate internet traffic and the containment
  experiment;
- **closed-loop** (:class:`ClosedLoopClient`): each simulated client
  waits for its previous request to finish (complete, hit cache or be
  shed), thinks for a seeded-exponential time, then submits the next —
  the right model for interactive sessions, and the shape the fairness
  experiment needs (a closed-loop storm tenant with zero think time is
  an *infinite* demand source that a FIFO grant queue lets convoy).

The driver models the shared-GPU contention that makes containment and
fairness real properties: ``num_gpus`` execution slots are shared by
*all* tenants.  Freed slots are granted through the core's
deficit-round-robin queue (``fair=True``, the default) or the legacy
global FIFO (``fair=False`` — kept as the counterfactual the fairness
experiment measures against).  :func:`containment_experiment` shows a
misbehaving tenant gets quarantined; :func:`fairness_experiment` shows
a *well-behaved but greedy* storm tenant is held to its weight: steady
tenants' p99 stays within bound and their cache partitions see zero
storm-induced evictions.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.chaos import SimulationHang
from repro.chaos.watchdog import DEFAULT_CYCLE_BUDGET
from repro.harness.hashing import content_hash
from repro.harness.isolation import RetryPolicy

from .cache import PartitionedResultCache
from .core import ServeRejection, ServiceCore, TenantPolicy
from .executor import execute_request

#: time scale the serving benchmarks run the micro workloads at
SERVE_TIME_SCALE = 8.0

#: watchdog budget on the storm tenant's chaos specs — sized so a hung
#: attempt burns about as many GPU-cycles as a clean thrash kernel at
#: SERVE_TIME_SCALE; a misbehaving tenant is then contained by its
#: breaker, not by accidentally costing less than honest work
DEFAULT_STORM_CYCLE_BUDGET = 12_000.0


# ---------------------------------------------------------------------------
# open-loop arrivals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arrival:
    """One scheduled submission (time in simulated cycles)."""

    time: float
    tenant: str
    seq: int  #: per-tenant sequence number (tie-breaker)
    spec: Dict


def open_loop_arrivals(
    seed: int,
    tenant: str,
    menu: Sequence[Dict],
    count: int,
    mean_gap_cycles: float,
    repeat_rate: float = 0.35,
) -> List[Arrival]:
    """Seeded Poisson arrivals for one tenant.

    Gaps are exponential with the given mean; each submission either
    repeats an earlier spec (probability ``repeat_rate`` — this is what
    exercises the result cache) or takes the next menu item round-robin.
    Seeding mixes the tenant name in, so tenants' streams are
    independent yet jointly reproducible.
    """
    rng = random.Random(f"{seed}/{tenant}")
    arrivals: List[Arrival] = []
    history: List[Dict] = []
    t = 0.0
    for i in range(count):
        t += rng.expovariate(1.0 / mean_gap_cycles)
        if history and rng.random() < repeat_rate:
            spec = rng.choice(history)
        else:
            spec = dict(menu[i % len(menu)])
        history.append(spec)
        arrivals.append(Arrival(time=t, tenant=tenant, seq=i, spec=spec))
    return arrivals


def merge_arrivals(*streams: List[Arrival]) -> List[Arrival]:
    """Interleave per-tenant streams into one deterministic schedule."""
    merged = [a for stream in streams for a in stream]
    merged.sort(key=lambda a: (a.time, a.tenant, a.seq))
    return merged


# ---------------------------------------------------------------------------
# closed-loop clients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClosedLoopClient:
    """One simulated interactive session: think, submit, wait, repeat.

    The client keeps exactly one request outstanding.  After each
    request settles (completion, cache hit or structured shed) it draws
    an exponential think time with mean ``think_mean_cycles`` (0 means
    no think time — a greedy session that resubmits instantly) and
    submits the next spec: a repeat of an earlier one with probability
    ``repeat_rate``, otherwise the next menu item round-robin.  All
    randomness is seeded per ``(seed, tenant, client_id)``, so a fleet
    of clients is jointly bit-reproducible under the virtual-time
    driver."""

    tenant: str
    client_id: int
    menu: Sequence[Dict]
    requests: int
    think_mean_cycles: float
    seed: int
    repeat_rate: float = 0.0
    start_time: float = 0.0


class _ClientSession:
    """Runtime state of one :class:`ClosedLoopClient` inside a run."""

    def __init__(self, client: ClosedLoopClient) -> None:
        self.client = client
        self.rng = random.Random(
            f"{client.seed}/{client.tenant}/{client.client_id}"
        )
        self.issued = 0
        self.settled = 0
        self.history: List[Dict] = []

    def think(self) -> float:
        mean = self.client.think_mean_cycles
        if mean <= 0:
            return 0.0
        return self.rng.expovariate(1.0 / mean)

    def done(self) -> bool:
        return self.issued >= self.client.requests

    def next_spec(self) -> Dict:
        c = self.client
        if self.history and self.rng.random() < c.repeat_rate:
            spec = self.rng.choice(self.history)
        else:
            spec = dict(c.menu[self.issued % len(c.menu)])
        self.history.append(spec)
        self.issued += 1
        return spec


# ---------------------------------------------------------------------------
# the virtual-time driver
# ---------------------------------------------------------------------------

@dataclass
class _Job:
    """In-flight bookkeeping for one admitted request."""

    tenant: str
    seq: int
    spec: Dict
    key: str
    t_arrive: float
    t_start: float = 0.0
    cycles: float = 0.0
    attempts: int = 0
    value: Optional[Dict] = None
    hang: bool = False
    session: Optional[_ClientSession] = None  #: closed-loop origin


class VirtualTimeDriver:
    """Discrete-event executor of an arrival schedule (module docstring).

    Admission, quotas, budgets and breakers are the ``ServiceCore``'s;
    the driver adds the physics: per-tenant stream slots feed a shared
    pool of ``num_gpus`` execution slots, service time is simulated
    cycles, hung attempts burn the spec's watchdog ``cycle_budget``
    before the (reseeded, cycle-costed) retry — mirroring the asyncio
    shell's retry-with-backoff, with backoff measured in cycles.
    """

    def __init__(
        self,
        core: ServiceCore,
        cache: Optional[PartitionedResultCache] = None,
        *,
        num_gpus: int = 2,
        max_attempts: int = 2,
        backoff_cycles: float = 2_000.0,
        fair: bool = True,
        executor: Callable[[Dict], Dict] = execute_request,
    ) -> None:
        if num_gpus < 1:
            raise ValueError("num_gpus must be positive")
        self.core = core
        # explicit None test: an empty cache is falsy (it has __len__)
        self.cache = cache if cache is not None else PartitionedResultCache()
        self.core.attach_cache(self.cache)
        self.num_gpus = num_gpus
        #: the asyncio shell's retry rule, with backoff in cycles
        self.retry = RetryPolicy(max_attempts, backoff_cycles)
        #: grant freed GPUs in the core's weighted-fair DRR order; the
        #: False path is the legacy global FIFO, kept as the measured
        #: counterfactual in the fairness experiment
        self.fair = fair
        self.executor = executor
        #: spec-hash -> ("ok", result) | ("hang", cost_cycles); the
        #: executor is pure, so each unique spec is simulated once
        self._memo: Dict[str, tuple] = {}

    # -- pure-function execution (memoized) -----------------------------

    def _execute(self, spec: Dict) -> tuple:
        key = content_hash(spec)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        try:
            value = self.executor(spec)
        except SimulationHang:
            out = (
                "hang",
                float(spec.get("cycle_budget") or DEFAULT_CYCLE_BUDGET),
            )
        else:
            out = ("ok", value)
        self._memo[key] = out
        return out

    def _service(self, job: _Job) -> None:
        """Fill in the job's total service cycles across retry attempts
        (hung attempts cost the watchdog budget, retries are reseeded
        and pay exponential backoff in cycles)."""
        spec = dict(job.spec)
        total = 0.0
        attempts = 0
        while True:
            attempts += 1
            outcome = self._execute(spec)
            if outcome[0] == "ok":
                value = outcome[1]
                job.cycles = total + float(value["cycles"])
                job.attempts = attempts
                job.value = value
                return
            total += outcome[1]
            if not self.retry.retries("SimulationHang", attempts):
                job.cycles = total
                job.attempts = attempts
                job.hang = True
                return
            total += self.retry.delay(attempts)
            spec = self.retry.next_kwargs(
                "SimulationHang", attempts, {"seed": 0, **spec}
            )

    # -- event loop -----------------------------------------------------

    def run(
        self,
        arrivals: Sequence[Arrival] = (),
        label: str = "virtual",
        *,
        clients: Sequence[ClosedLoopClient] = (),
    ) -> Dict:
        """Execute the open-loop schedule and/or the closed-loop client
        fleet to completion; returns the JSON-able report (with a
        ``digest`` over its deterministic content)."""
        events: List[tuple] = []  # (time, order, kind, payload)
        order = 0

        def push_event(time: float, kind: str, payload) -> None:
            nonlocal order
            heapq.heappush(events, (time, order, kind, payload))
            order += 1

        for a in sorted(arrivals, key=lambda a: (a.time, a.tenant, a.seq)):
            push_event(a.time, "arrive", a)
        sessions = [_ClientSession(c) for c in clients]
        for session in sessions:
            push_event(
                session.client.start_time + session.think(),
                "client", session,
            )
        gpu_free = self.num_gpus
        gpu_queue: deque = deque()  # legacy FIFO path (fair=False)
        stream_wait: Dict[str, deque] = {}  # admitted, waits for a slot
        rejections: Dict[str, Dict[str, int]] = {}
        cached_served = 0
        makespan = 0.0

        def start_on_gpu(now: float, job: _Job) -> None:
            nonlocal gpu_free
            if gpu_free <= 0:
                # holds a stream slot, waits for a GPU grant
                if self.fair:
                    self.core.queue_for_execution(job.tenant, job)
                else:
                    gpu_queue.append(job)
                return
            gpu_free -= 1
            job.t_start = now
            self._service(job)
            push_event(now + job.cycles, "complete", job)

        def next_waiting_job() -> Optional[_Job]:
            if self.fair:
                granted = self.core.next_for_execution()
                return None if granted is None else granted[1]
            return gpu_queue.popleft() if gpu_queue else None

        def session_settled(now: float, session: _ClientSession) -> None:
            """One closed-loop request settled: think, then resubmit."""
            session.settled += 1
            if not session.done():
                push_event(now + session.think(), "client", session)

        while events:
            now, _, kind, payload = heapq.heappop(events)
            makespan = max(makespan, now)
            if kind == "arrive":
                cached_served += self._submit(
                    now, payload.tenant, payload.seq, payload.spec, None,
                    stream_wait, rejections, start_on_gpu,
                ) or 0
                continue
            if kind == "client":
                session = payload
                seq = session.issued
                spec = session.next_spec()
                outcome = self._submit(
                    now, session.client.tenant, seq, spec, session,
                    stream_wait, rejections, start_on_gpu,
                )
                if outcome is not None:
                    # shed or served from cache: settled immediately
                    cached_served += outcome
                    session_settled(now, session)
                continue
            # completion: settle the job, then hand its GPU + stream
            # slot to the next waiters (weighted-fair grant order)
            job = payload
            gpu_free += 1
            if job.hang:
                self.core.fail(
                    job.tenant, now, hang=True, retries=job.attempts - 1
                )
            else:
                self.cache.put(job.tenant, job.key, job.value)
                self.core.complete(
                    job.tenant,
                    now,
                    latency_cycles=now - job.t_arrive,
                    faults=int(job.value.get("faults_raised", 0)),
                    retries=job.attempts - 1,
                )
            if job.session is not None:
                session_settled(now, job.session)
            waiters = stream_wait.get(job.tenant)
            if waiters and self.core.quarantined(job.tenant, now):
                # quarantine sheds the tenant's admitted backlog too —
                # already-running kernels finish, queued ones do not
                while waiters:
                    shed = waiters.popleft()
                    self.core.shed_queued(job.tenant)
                    counts = rejections.setdefault(job.tenant, {})
                    counts["quarantined"] = counts.get("quarantined", 0) + 1
                    if shed.session is not None:
                        session_settled(now, shed.session)
            if waiters:
                self.core.promote(job.tenant)
                start_on_gpu(now, waiters.popleft())
            while gpu_free > 0:
                waiting = next_waiting_job()
                if waiting is None:
                    break
                start_on_gpu(now, waiting)

        summary = self.core.summary()
        closed_loop: Dict[str, Dict[str, int]] = {}
        for session in sessions:
            per = closed_loop.setdefault(
                session.client.tenant,
                {"clients": 0, "issued": 0, "settled": 0, "target": 0},
            )
            per["clients"] += 1
            per["issued"] += session.issued
            per["settled"] += session.settled
            per["target"] += session.client.requests
        report = {
            "label": label,
            "num_gpus": self.num_gpus,
            "fair": self.fair,
            "max_attempts": self.retry.max_attempts,
            "backoff_cycles": self.retry.backoff_base,
            "makespan_cycles": makespan,
            "unique_specs_simulated": len(self._memo),
            "cache": self.cache.stats(),
            "cached_served": cached_served,
            "closed_loop": {
                t: closed_loop[t] for t in sorted(closed_loop)
            },
            "rejections": {
                t: dict(sorted(codes.items()))
                for t, codes in sorted(rejections.items())
            },
            "tenants": summary["tenants"],
            "slo": summary["slo"],
        }
        report["digest"] = content_hash(report)
        return report

    def _submit(
        self,
        now: float,
        tenant: str,
        seq: int,
        spec: Dict,
        session: Optional[_ClientSession],
        stream_wait: Dict[str, deque],
        rejections: Dict[str, Dict[str, int]],
        start_on_gpu,
    ) -> Optional[int]:
        """Admission for one submission.  Returns ``1`` for a cache hit,
        ``0`` for a shed, ``None`` when the request went in flight (its
        settlement arrives as a later ``complete`` event)."""
        try:
            self.core.check_admission(tenant, now)
        except ServeRejection as rej:
            counts = rejections.setdefault(tenant, {})
            counts[rej.code] = counts.get(rej.code, 0) + 1
            return 0
        key = self.cache.key(spec)
        if self.cache.get(tenant, key) is not None:
            self.core.record_cache_hit(tenant)
            return 1
        self.core.record_cache_miss()
        job = _Job(
            tenant=tenant,
            seq=seq,
            spec=spec,
            key=key,
            t_arrive=now,
            session=session,
        )
        try:
            disposition = self.core.acquire_slot(tenant, now)
        except ServeRejection as rej:
            counts = rejections.setdefault(tenant, {})
            counts[rej.code] = counts.get(rej.code, 0) + 1
            return 0
        if disposition == "queued":
            stream_wait.setdefault(tenant, deque()).append(job)
        else:
            start_on_gpu(now, job)
        return None


# ---------------------------------------------------------------------------
# the containment experiment
# ---------------------------------------------------------------------------

def steady_menu(
    time_scale: float = SERVE_TIME_SCALE,
    seed_pool: int = 16,
    base_seed: int = 0,
) -> List[Dict]:
    """Clean interactive specs for a well-behaved tenant.

    Each (workload, scheme) pair appears with ``seed_pool`` distinct
    seeds so the spec space is wide enough that the result cache sees a
    realistic hit rate instead of memoizing the whole menu after one
    pass; ``base_seed`` keeps different tenants' spec spaces disjoint.
    The seed does not change a clean run's result — it only changes the
    content address.
    """
    menu: List[Dict] = []
    for s in range(seed_pool):
        for workload, scheme in (
            ("saxpy", "replay-queue"),
            ("stream-sum", "replay-queue"),
            ("saxpy", "wd-commit"),
        ):
            menu.append({
                "workload": workload,
                "scheme": scheme,
                "time_scale": time_scale,
                "seed": base_seed + s,
            })
    return menu


def storm_menu(
    chaotic: bool,
    time_scale: float = SERVE_TIME_SCALE,
    cycle_budget: float = DEFAULT_STORM_CYCLE_BUDGET,
    slots: int = 18,
    hang_every: int = 3,
) -> List[Dict]:
    """Specs for the misbehaving tenant.

    ``slots`` distinct seeds keep the baseline storm tenant actually
    *executing* (not cache-resident), so both runs carry comparable
    storm load and the p99 comparison isolates the chaos, not the
    cache.

    ``chaotic=False`` is the baseline: the same workloads, clean.
    ``chaotic=True`` turns on a heavy ``fault.storm``-scaled chaos
    engine and makes every ``hang_every``-th menu slot a deterministic
    injected hang (watchdog semantics), so the tenant blows its hang
    budget and must be quarantined.
    """
    menu: List[Dict] = []
    for i in range(slots):
        spec = {
            "workload": "tlb-thrash",
            "scheme": "replay-queue",
            "time_scale": time_scale,
            "seed": i,
        }
        if chaotic:
            spec["chaos_intensity"] = 3.0
            spec["cycle_budget"] = cycle_budget
            if i % hang_every == hang_every - 1:
                spec["hang"] = True
        menu.append(spec)
    return menu


def steady_policy() -> TenantPolicy:
    """Generous budgets: demand paging makes faults normal traffic, so
    a clean tenant must never graze its breaker."""
    return TenantPolicy(
        max_streams=2,
        max_queue_depth=12,
        fault_budget=200_000,
        hang_budget=2,
        breaker_window=3_000_000.0,
        cooldown=5_000_000.0,
    )


def storm_policy() -> TenantPolicy:
    """Tight budgets for the chaos tenant: zero tolerated hangs (the
    first watchdog-confirmed hang quarantines) and a cooldown longer
    than the experiment horizon, so containment kicks in before the
    storm can inflate anyone else's tail."""
    return TenantPolicy(
        max_streams=2,
        max_queue_depth=12,
        fault_budget=20_000,
        hang_budget=0,
        breaker_window=3_000_000.0,
        cooldown=50_000_000.0,
    )


def containment_run(
    seed: int,
    chaotic: bool,
    *,
    steady_tenants: int = 2,
    requests_per_tenant: int = 120,
    storm_requests: int = 60,
    mean_gap_cycles: float = 30_000.0,
    num_gpus: int = 2,
    storm_cycle_budget: float = DEFAULT_STORM_CYCLE_BUDGET,
    executor: Callable[[Dict], Dict] = execute_request,
) -> Dict:
    """One virtual-time service run: ``steady_tenants`` clean tenants
    plus one storm tenant (clean when ``chaotic`` is False)."""
    core = ServiceCore()
    names = [f"steady-{i}" for i in range(steady_tenants)]
    for name in names:
        core.register_tenant(name, steady_policy())
    core.register_tenant("storm", storm_policy())
    streams = [
        open_loop_arrivals(
            seed, name, steady_menu(base_seed=100 * (i + 1)),
            requests_per_tenant, mean_gap_cycles,
        )
        for i, name in enumerate(names)
    ]
    streams.append(
        open_loop_arrivals(
            seed, "storm",
            storm_menu(chaotic, cycle_budget=storm_cycle_budget),
            storm_requests, mean_gap_cycles, repeat_rate=0.2,
        )
    )
    driver = VirtualTimeDriver(
        core, num_gpus=num_gpus, executor=executor
    )
    label = "chaotic" if chaotic else "baseline"
    return driver.run(merge_arrivals(*streams), label=label)


def containment_experiment(
    seed: int = 0,
    *,
    p99_bound: float = 1.5,
    executor: Callable[[Dict], Dict] = execute_request,
    **kwargs,
) -> Dict:
    """The BENCH_serve.json containment experiment.

    Runs the identical seeded arrival schedule twice — storm tenant
    clean, then storm tenant under ``fault.storm`` chaos + injected
    hangs — and checks the acceptance criteria: the storm tenant ends
    quarantined with structured rejections, and every steady tenant's
    p99 latency stays within ``p99_bound`` x its no-chaos baseline.
    """
    baseline = containment_run(seed, False, executor=executor, **kwargs)
    chaotic = containment_run(seed, True, executor=executor, **kwargs)
    steady = [t for t in sorted(baseline["tenants"]) if t != "storm"]
    per_tenant = {}
    contained = True
    for name in steady:
        base_p99 = baseline["tenants"][name]["p99_cycles"]
        chaos_p99 = chaotic["tenants"][name]["p99_cycles"]
        ratio = chaos_p99 / base_p99 if base_p99 else 0.0
        ok = ratio <= p99_bound
        contained = contained and ok
        per_tenant[name] = {
            "baseline_p99_cycles": base_p99,
            "chaotic_p99_cycles": chaos_p99,
            "ratio": ratio,
            "within_bound": ok,
        }
    storm = chaotic["tenants"]["storm"]
    quarantined = (
        storm["quarantines"] >= 1
        and chaotic["rejections"].get("storm", {}).get("quarantined", 0) > 0
    )
    return {
        "seed": seed,
        "p99_bound": p99_bound,
        "contained": contained and quarantined,
        "steady": per_tenant,
        "storm_quarantines": storm["quarantines"],
        "storm_breaker": storm["breaker"],
        "storm_rejections": chaotic["rejections"].get("storm", {}),
        "baseline": baseline,
        "chaotic": chaotic,
    }


# ---------------------------------------------------------------------------
# the fairness experiment
# ---------------------------------------------------------------------------

def fair_steady_policy() -> TenantPolicy:
    """A steady interactive tenant paying for weight 2: twice the
    fair-queue share (and cache share) of the weight-1 storm tenant."""
    return replace(steady_policy(), weight=2)


def fair_storm_policy() -> TenantPolicy:
    """The greedy-but-clean storm tenant: weight 1, generous breaker
    budgets (it misbehaves by *volume*, not by faulting — containment
    via the breaker is the other experiment), and room to keep the
    shared pool saturated whenever fairness would let it."""
    return replace(
        steady_policy(), weight=1, max_streams=4, max_queue_depth=32
    )


def storm_flood_menu(
    client_id: int,
    slots: int = 25,
    time_scale: float = 12.0,
) -> List[Dict]:
    """Per-client unique clean specs for the greedy tenant: disjoint
    seed ranges per client keep every submission a cache miss, so the
    storm stays an execution load (and would flush a shared LRU —
    exactly what the partitioned cache must prevent).  Storm kernels
    run at a *high* time scale (``time_scale`` divides the simulated
    fault-service latency, so larger means shorter kernels): many
    short requests is the grant-slot hammering shape DRR must contain,
    and it keeps the non-preemptive residual a steady request can be
    stuck behind small."""
    return [
        {
            "workload": "saxpy",
            "scheme": "replay-queue",
            "time_scale": time_scale,
            "seed": 10_000 + 1_000 * client_id + s,
        }
        for s in range(slots)
    ]


def fairness_run(
    seed: int,
    storm: bool,
    *,
    fair: bool = True,
    steady_tenants: int = 2,
    clients_per_tenant: int = 3,
    requests_per_client: int = 25,
    think_mean_cycles: float = 45_000.0,
    storm_clients: int = 4,
    storm_requests_per_client: int = 25,
    num_gpus: int = 2,
    cache_capacity: int = 1024,
    executor: Callable[[Dict], Dict] = execute_request,
) -> Dict:
    """One closed-loop virtual-time run: ``steady_tenants`` weight-2
    interactive tenants, plus (when ``storm``) one weight-1 zero-think
    greedy tenant hammering unique specs."""
    cache = PartitionedResultCache(cache_capacity)
    core = ServiceCore(cache)
    names = [f"steady-{i}" for i in range(steady_tenants)]
    for name in names:
        core.register_tenant(name, fair_steady_policy())
    core.register_tenant("storm", fair_storm_policy())
    clients: List[ClosedLoopClient] = []
    for i, name in enumerate(names):
        menu = steady_menu(base_seed=100 * (i + 1))
        for c in range(clients_per_tenant):
            clients.append(ClosedLoopClient(
                tenant=name,
                client_id=c,
                menu=menu,
                requests=requests_per_client,
                think_mean_cycles=think_mean_cycles,
                seed=seed,
                repeat_rate=0.35,
            ))
    if storm:
        for c in range(storm_clients):
            clients.append(ClosedLoopClient(
                tenant="storm",
                client_id=c,
                menu=storm_flood_menu(c),
                requests=storm_requests_per_client,
                think_mean_cycles=0.0,
                seed=seed,
            ))
    driver = VirtualTimeDriver(
        core, cache, num_gpus=num_gpus, fair=fair, executor=executor
    )
    if not storm:
        label = "fair-baseline"
    else:
        label = "fair-storm" if fair else "fifo-storm"
    return driver.run(clients=clients, label=label)


def fairness_experiment(
    seed: int = 0,
    *,
    p99_bound: float = 1.5,
    executor: Callable[[Dict], Dict] = execute_request,
    **kwargs,
) -> Dict:
    """The BENCH_serve.json fairness experiment.

    Three closed-loop runs with the same seed: steady tenants alone
    (baseline), steady + greedy storm under weighted-fair grants, and
    the same contended load under the legacy FIFO (the counterfactual).
    Acceptance: under fair grants every steady tenant's p99 stays
    within ``p99_bound`` x its no-storm baseline, steady cache
    partitions show **zero storm-induced evictions**, and the storm
    tenant still completes work (bounded to its weight, not starved).
    The FIFO run's ratios are recorded for contrast but not gated —
    they show what the convoy does without DRR.
    """
    baseline = fairness_run(seed, False, executor=executor, **kwargs)
    contended = fairness_run(seed, True, fair=True, executor=executor,
                             **kwargs)
    fifo = fairness_run(seed, True, fair=False, executor=executor,
                        **kwargs)
    steady = [t for t in sorted(baseline["tenants"]) if t != "storm"]
    per_tenant = {}
    within = True
    isolated = True
    for name in steady:
        base_p99 = baseline["tenants"][name]["p99_cycles"]
        fair_p99 = contended["tenants"][name]["p99_cycles"]
        fifo_p99 = fifo["tenants"][name]["p99_cycles"]
        ratio = fair_p99 / base_p99 if base_p99 else 0.0
        fifo_ratio = fifo_p99 / base_p99 if base_p99 else 0.0
        ok = ratio <= p99_bound
        within = within and ok
        base_ev = baseline["cache"]["tenants"][name]["evictions"]
        storm_ev = contended["cache"]["tenants"][name]["evictions"]
        induced = storm_ev - base_ev
        isolated = isolated and induced == 0
        per_tenant[name] = {
            "baseline_p99_cycles": base_p99,
            "storm_p99_cycles": fair_p99,
            "fifo_p99_cycles": fifo_p99,
            "ratio": ratio,
            "fifo_ratio": fifo_ratio,
            "within_bound": ok,
            "storm_induced_evictions": induced,
        }
    storm_done = contended["tenants"]["storm"]["completions"]
    return {
        "seed": seed,
        "p99_bound": p99_bound,
        "fair": per_tenant,
        "fair_contained": within and isolated and storm_done > 0,
        "storm_completions": storm_done,
        "baseline": baseline,
        "contended": contended,
        "fifo": fifo,
    }
