"""The asyncio serving shell: many tenants, shared simulated GPUs.

:class:`GpuService` is the long-lived front end over the synchronous
:class:`~repro.serve.core.ServiceCore` control plane.  One ``submit``
call per kernel request:

1. **admission** — quarantine gate, then cache lookup, then stream
   quota / queue depth (structured ``ServeRejection`` on shed, never an
   unbounded wait);
2. **execution** — the picklable :func:`repro.serve.executor
   .execute_request` runs via :func:`repro.harness.isolation
   .run_experiment_isolated` on a worker thread (forked child +
   wall-clock timeout), so a tenant's wedged kernel burns its own
   budget, not the service process.  The forked child runs it through
   :func:`~repro.serve.executor.execute_handoff`, the *trace
   hand-off*: the service holds one trace container per workload name,
   taken from that workload's first successful execution, and passes
   it to every later one, whose child views its columns in place
   instead of running the functional interpreter.  The interpreter
   never runs in the service process (docs/SERVING.md "Trace
   hand-off");
3. **retry with backoff** — the campaign runner's rule, from one
   :class:`~repro.harness.isolation.RetryPolicy`: transient failures
   (``SimulationHang``, ``Timeout``, ``ChildCrash``) are retried up to
   ``max_attempts`` with exponential backoff; only a hang retry is
   reseeded (``seed + 1000*attempt``, a spec without a seed counting as
   the executor's seed 0), so any other retry runs — and caches — the
   spec the client sent; deterministic failures are returned
   immediately;
4. **accounting** — completions feed the tenant's latency reservoir and
   fault budget, failures its hang budget; either may trip the breaker
   and quarantine the tenant without touching anyone else's in-flight
   work.

The service clock (``now`` fed to breakers) is *virtual*: it advances
by each completed request's simulated cycles (or the hang budget on a
trip), which keeps breaker windows in the same unit — cycles — under
both this shell and the bit-reproducible
:class:`~repro.serve.loadgen.VirtualTimeDriver`.
"""

from __future__ import annotations

import asyncio
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.chaos.watchdog import DEFAULT_CYCLE_BUDGET
from repro.harness.isolation import (
    ExperimentFailure, RetryPolicy, run_experiment_isolated,
)
from repro.workloads import get_workload

from .cache import PartitionedResultCache
from .core import (
    ServeRejection, ServiceCore, TenantPolicy, TenantQuarantined,
)
from .executor import execute_handoff, execute_request

#: hangs/timeouts count against the tenant's hang budget
HANG_KINDS = frozenset({"SimulationHang", "Timeout"})


@dataclass
class ServeResult:
    """Outcome of one ``submit`` that was admitted (rejections raise)."""

    tenant: str
    key: str  #: content address of the spec (the cache key)
    cached: bool
    attempts: int  #: executions performed (0 for a cache hit)
    value: Optional[Dict] = None
    failure: Optional[ExperimentFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


class GpuService:
    """Asyncio multi-tenant front end (module docstring).

    ``isolated=True`` (the default) runs each execution in a forked
    child with a wall-clock timeout; the ``serve`` daemon uses it
    unless started with ``--no-isolated``, and so does ``serve
    --smoke``.  With the default ``executor`` the trace hand-off
    applies; an injected executor runs in the child as it is.

    ``isolated=False`` executes requests in-process on the worker
    thread instead — no timeout enforcement, but much faster, and
    traces are reused through the workload registry.  ``serve-bench``
    (its throughput phase), ``serve --no-isolated`` and the unit tests
    use it.
    """

    def __init__(
        self,
        core: Optional[ServiceCore] = None,
        cache: Optional[PartitionedResultCache] = None,
        *,
        timeout: Optional[float] = 60.0,
        max_attempts: int = 3,
        backoff_base: float = 0.02,
        backoff_cap: float = 1.0,
        isolated: bool = True,
        gpu_slots: Optional[int] = None,
        executor: Callable[[Dict], Dict] = execute_request,
    ) -> None:
        self.retry = RetryPolicy(max_attempts, backoff_base, backoff_cap)
        if gpu_slots is not None and gpu_slots < 1:
            raise ValueError("gpu_slots must be positive")
        self.core = core or ServiceCore()
        # explicit None test: an empty cache is falsy (it has __len__)
        self.cache = cache if cache is not None else PartitionedResultCache()
        self.core.attach_cache(self.cache)
        self.timeout = timeout
        self.isolated = isolated
        self.executor = executor
        #: workload name -> its trace container from execute_handoff
        self._traces: Dict[str, bytes] = {}
        self._now = 0.0
        self._sems: Dict[str, asyncio.Semaphore] = {}
        #: optional shared GPU pool: when set, executions additionally
        #: contend for this many slots, granted in the core's
        #: weighted-fair (DRR + priority) order — the asyncio analogue
        #: of the virtual-time driver's ``num_gpus``
        self._gpu_free = gpu_slots

    # -- tenants --------------------------------------------------------

    def register_tenant(
        self, tenant: str, policy: Optional[TenantPolicy] = None
    ):
        """Register a tenant with the core and size its stream-quota
        semaphore."""
        state = self.core.register_tenant(tenant, policy)
        self._sems.setdefault(
            tenant, asyncio.Semaphore(state.policy.max_streams)
        )
        return state

    @property
    def held_traces(self) -> List[str]:
        """Workloads whose trace container the hand-off holds (sorted)."""
        return sorted(self._traces)

    @property
    def now(self) -> float:
        """The service's virtual clock, in simulated cycles."""
        return self._now

    # -- execution ------------------------------------------------------

    def _run_once(self, name: str, spec: Dict):
        """One synchronous attempt (runs on a worker thread)."""
        if self.isolated and self.executor is execute_request:
            return self._run_handoff(name, spec)
        if self.isolated:
            return run_experiment_isolated(
                name, self.executor, kwargs={"spec": spec},
                timeout=self.timeout,
            )
        try:
            return self.executor(spec)
        except BaseException as exc:  # noqa: BLE001 - isolation boundary
            return ExperimentFailure(
                name=name,
                kind=type(exc).__name__,
                message=str(exc),
                traceback_text=traceback.format_exc(),
                kwargs={"spec": spec},
            )

    def _run_handoff(self, name: str, spec: Dict):
        """One isolated attempt with the trace hand-off (module
        docstring): pass the held container, keep a returned one."""
        workload = spec.get("workload")
        # a non-string name fails in the child; it has no held container
        held = (
            self._traces.get(workload) if isinstance(workload, str) else None
        )
        outcome = run_experiment_isolated(
            name, execute_handoff,
            kwargs={"spec": spec, "held": held},
            timeout=self.timeout,
        )
        if isinstance(outcome, ExperimentFailure):
            outcome.kwargs = {"spec": spec}  # not the held container
            return outcome
        value, container = outcome
        if container is not None:
            # two first requests that ran at once both generated it
            self._traces.setdefault(workload, container)
            # built once here, so every later child inherits the kernel
            # its held container is checked against
            get_workload(workload).kernel
        return value

    async def submit(self, tenant: str, spec: Dict) -> ServeResult:
        """Serve one kernel request; raises a structured
        :class:`~repro.serve.core.ServeRejection` when shed."""
        self.core.check_admission(tenant, self._now)
        key = self.cache.key(spec)
        hit = self.cache.get(tenant, key)
        if hit is not None:
            self.core.record_cache_hit(tenant)
            return ServeResult(
                tenant=tenant, key=key, cached=True, attempts=0, value=hit
            )
        self.core.record_cache_miss()
        disposition = self.core.acquire_slot(tenant, self._now)
        sem = self._sems[tenant]
        # acquire_slot already accounted a "run" slot, so the semaphore
        # has a free permit in that case; "queued" waits here (bounded
        # by max_queue_depth — excess was shed above with QueueFull).
        await sem.acquire()
        if disposition == "queued":
            # the tenant may have been quarantined while this request
            # waited; quarantine sheds the admitted backlog too
            if self.core.quarantined(tenant, self._now):
                self.core.shed_queued(tenant)
                sem.release()
                raise TenantQuarantined(
                    tenant, "quarantined while queued for a stream slot"
                )
            self.core.promote(tenant)
        try:
            await self._acquire_gpu(tenant)
            try:
                return await self._execute(tenant, key, spec)
            finally:
                self._release_gpu()
        finally:
            sem.release()

    # -- shared GPU pool (weighted-fair grants) -------------------------

    async def _acquire_gpu(self, tenant: str) -> None:
        """Claim a shared GPU slot; waits in the core's weighted-fair
        execution queue when the pool is exhausted.  No-op when the
        service was built without ``gpu_slots``."""
        if self._gpu_free is None:
            return
        if self._gpu_free > 0:
            self._gpu_free -= 1
            return
        grant = asyncio.get_running_loop().create_future()
        self.core.queue_for_execution(tenant, grant)
        await grant

    def _release_gpu(self) -> None:
        """Hand the freed slot to the next waiter in DRR order (skipping
        cancelled waiters), or return it to the pool."""
        if self._gpu_free is None:
            return
        while True:
            nxt = self.core.next_for_execution()
            if nxt is None:
                self._gpu_free += 1
                return
            grant = nxt[1]
            if not grant.done():
                grant.set_result(None)
                return

    async def _execute(
        self, tenant: str, key: str, spec: Dict
    ) -> ServeResult:
        name = f"serve/{tenant}/{key}"
        attempt_spec = dict(spec)
        attempts = 0
        while True:
            attempts += 1
            outcome = await asyncio.to_thread(
                self._run_once, name, attempt_spec
            )
            if not isinstance(outcome, ExperimentFailure):
                value = outcome
                self.cache.put(tenant, key, value)
                self._now += float(value.get("cycles", 0.0))
                self.core.complete(
                    tenant,
                    self._now,
                    latency_cycles=float(value.get("cycles", 0.0)),
                    faults=int(value.get("faults_raised", 0)),
                    retries=attempts - 1,
                )
                return ServeResult(
                    tenant=tenant, key=key, cached=False,
                    attempts=attempts, value=value,
                )
            if not self.retry.retries(outcome.kind, attempts):
                hang = outcome.kind in HANG_KINDS
                self._now += float(
                    attempt_spec.get("cycle_budget") or DEFAULT_CYCLE_BUDGET
                )
                self.core.fail(
                    tenant, self._now, hang=hang, retries=attempts - 1
                )
                outcome.attempts = attempts
                return ServeResult(
                    tenant=tenant, key=key, cached=False,
                    attempts=attempts, failure=outcome,
                )
            await asyncio.sleep(self.retry.delay(attempts))
            attempt_spec = self.retry.next_kwargs(
                outcome.kind, attempts, {"seed": 0, **attempt_spec}
            )

    # -- batch helper ---------------------------------------------------

    async def drain(
        self, submissions: Iterable[Tuple[str, Dict]]
    ) -> List[Union[ServeResult, ServeRejection]]:
        """Submit everything concurrently; rejections come back as
        values (order matches the input), other exceptions propagate."""

        async def one(tenant: str, spec: Dict):
            try:
                return await self.submit(tenant, spec)
            except ServeRejection as rej:
                return rej

        return list(
            await asyncio.gather(
                *(one(tenant, spec) for tenant, spec in submissions)
            )
        )
