"""Multi-tenant fault-resilient serving layer over the simulator.

The paper's exception-handling schemes make GPU kernels safely
preemptible and restartable; ``repro.serve`` builds the system-level
consequence on top of the simulator: a long-lived service where many
tenants share simulated GPUs and one tenant's fault storm, hang or
crash is *contained* — shed with structured errors and quarantined by
a per-tenant circuit breaker — instead of taking the box down.

Layers (each documented in its module):

- :mod:`~repro.serve.core` — synchronous control plane: admission
  control (stream quotas + bounded queues), weighted-fair execution
  grants, per-tenant fault/hang budgets, circuit breakers, ``serve.*``
  telemetry;
- :mod:`~repro.serve.fair` — the deficit-round-robin queue behind the
  fair grants (priority classes + per-tenant weights);
- :mod:`~repro.serve.cache` — content-addressed result cache (same
  hashing as the campaign checkpoints) and its tenant-partitioned
  variant (one tenant can never evict another's working set);
- :mod:`~repro.serve.executor` — picklable pure data plane, one spec
  dict -> one simulated kernel;
- :mod:`~repro.serve.service` — the asyncio shell with crash-isolated
  execution and retry-with-backoff;
- :mod:`~repro.serve.loadgen` — seeded open- and closed-loop load and
  the bit-reproducible virtual-time driver behind ``BENCH_serve.json``
  (CLI: ``python -m repro.harness serve-bench``);
- :mod:`~repro.serve.wire` / :mod:`~repro.serve.client` — the socket
  daemon (unix-socket or loopback TCP, on the :mod:`repro.wire`
  protocol the dist fleet shares) and its typed client (CLI:
  ``python -m repro.harness serve``; docs/SERVING.md);
- :mod:`~repro.serve.metrics` — the authoritative ``serve.*`` counter
  name list the doc checker enforces.
"""

from .cache import PartitionedResultCache, ResultCache
from .client import ServeClient, rejection_from_wire
from .core import (
    CircuitBreaker,
    QueueFull,
    ServeRejection,
    ServiceCore,
    ServiceUnavailable,
    TenantPolicy,
    TenantQuarantined,
    TenantState,
    UnknownTenant,
)
from .executor import execute_request
from .fair import DeficitRoundRobin
from .loadgen import (
    Arrival,
    ClosedLoopClient,
    VirtualTimeDriver,
    containment_experiment,
    fairness_experiment,
    merge_arrivals,
    open_loop_arrivals,
)
from .metrics import SERVE_COUNTERS
from .service import GpuService, ServeResult
from .wire import ServeDaemon
from ..wire import MAX_FRAME_BYTES, WireError

__all__ = [
    "Arrival",
    "CircuitBreaker",
    "ClosedLoopClient",
    "DeficitRoundRobin",
    "GpuService",
    "MAX_FRAME_BYTES",
    "PartitionedResultCache",
    "QueueFull",
    "ResultCache",
    "SERVE_COUNTERS",
    "ServeClient",
    "ServeDaemon",
    "ServeRejection",
    "ServeResult",
    "ServiceCore",
    "ServiceUnavailable",
    "TenantPolicy",
    "TenantQuarantined",
    "TenantState",
    "UnknownTenant",
    "VirtualTimeDriver",
    "WireError",
    "containment_experiment",
    "execute_request",
    "fairness_experiment",
    "merge_arrivals",
    "open_loop_arrivals",
    "rejection_from_wire",
]
