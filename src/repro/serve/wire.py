"""The serve daemon: :class:`~repro.serve.service.GpuService` behind the
one wire protocol of :mod:`repro.wire` (NDJSON frames over a unix socket
or loopback TCP, opened by the versioned ``hello`` handshake), which the
dist fleet's coordinator speaks too.

A connection opens with the handshake::

    C: {"op": "hello", "protocol": 1}
    S: {"ok": true, "protocol": 1, "server": "repro.serve", "tenants": [...]}

then carries any number of ops (docs/SERVING.md has the full reference):

``register``
    register a tenant with optional :class:`~repro.serve.core
    .TenantPolicy` overrides (``weight``, ``priority``, quotas...).
``submit``
    enqueue one spec; returns a request id immediately.  The execution
    runs in the daemon's asyncio shell; rejections that need tenant
    state (queue-full, quarantined) surface when the result is fetched,
    while unknown-tenant and draining-shutdown sheds are immediate.
``poll`` / ``result``
    request status by id; ``result`` optionally blocks up to ``wait``
    seconds and returns the serialized ServeResult, or the structured
    rejection dict (``code``/``reason``/``tenant``/``detail``) the
    client rehydrates into a typed :class:`~repro.serve.core
    .ServeRejection`.
``stats``
    the core summary + cache partition stats + fair-queue snapshot.
``shutdown``
    begin a clean drain: new submits are shed with
    :class:`~repro.serve.core.ServiceUnavailable`, in-flight requests
    finish (bounded by ``drain_timeout``), then the listener, asyncio
    loop and its executor threads are torn down — no orphans.

:class:`ServeDaemon` is an op table on :class:`repro.wire.FrameServer`
and hosts the service on a background asyncio loop; each connection's
server thread bridges into the loop with
``asyncio.run_coroutine_threadsafe``.  All traffic is counted into the
``serve.wire.*`` counters (``repro.serve.metrics.SERVE_COUNTERS``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import threading
from typing import Dict, Optional

from ..wire import FrameServer, WireError, error
from .core import ServeRejection, ServiceUnavailable, TenantPolicy, UnknownTenant
from .service import GpuService, ServeResult

#: counter leaves under ``serve.wire.*`` (see repro.serve.metrics)
WIRE_COUNTER_LEAVES = (
    "connections", "disconnects", "frames_in", "frames_out",
    "submits", "rejections", "results", "errors",
    "malformed", "oversized", "version_mismatch",
)


def register_wire_counters(registry) -> None:
    """Pre-register every ``serve.wire.*`` counter (idempotent)."""
    for leaf in WIRE_COUNTER_LEAVES:
        registry.counter(f"serve.wire.{leaf}")


#: wire-settable TenantPolicy fields -> coercion
_POLICY_FIELDS = {
    "max_streams": int,
    "max_queue_depth": int,
    "fault_budget": int,
    "hang_budget": int,
    "breaker_window": float,
    "cooldown": float,
    "half_open_probes": int,
    "weight": int,
    "priority": int,
    "cache_share": int,
}


def policy_from_wire(data: Dict) -> TenantPolicy:
    """A :class:`TenantPolicy` from wire overrides; raises
    :class:`WireError` on unknown fields or uncoercible values."""
    unknown = sorted(set(data) - set(_POLICY_FIELDS))
    if unknown:
        raise WireError(f"unknown policy fields: {unknown}")
    kwargs = {}
    for name, value in data.items():
        try:
            kwargs[name] = _POLICY_FIELDS[name](value)
        except (TypeError, ValueError) as exc:
            raise WireError(f"bad policy field {name}={value!r}: {exc}")
    return TenantPolicy(**kwargs)


def result_to_wire(res: ServeResult) -> Dict:
    """Serialize one admitted outcome (rejections travel separately as
    their ``to_dict`` under the ``rejected`` key)."""
    failure = None
    if res.failure is not None:
        failure = {
            "kind": res.failure.kind,
            "message": res.failure.message,
            "attempts": res.attempts,
        }
    return {
        "tenant": res.tenant,
        "key": res.key,
        "cached": res.cached,
        "attempts": res.attempts,
        "ok": res.ok,
        "value": res.value,
        "failure": failure,
    }


class ServeDaemon(FrameServer):
    """Host a :class:`GpuService` behind the wire protocol.

    Exactly one of ``path`` (unix socket) or ``port`` (loopback TCP;
    0 picks an ephemeral port, read it back from ``address``) must be
    given.  ``start()`` spins up the asyncio loop thread and the
    threading socket server; ``shutdown()`` drains and tears everything
    down.  Usable as a context manager."""

    thread_name = "serve-wire"

    def __init__(
        self,
        service: GpuService,
        *,
        path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        drain_timeout: float = 30.0,
    ) -> None:
        super().__init__(path=path, host=host, port=port)
        self.service = service
        self.core = service.core
        self.drain_timeout = drain_timeout
        register_wire_counters(self.core.counters)
        self._loop = asyncio.new_event_loop()
        self._loop_thread: Optional[threading.Thread] = None
        self._requests: Dict[str, concurrent.futures.Future] = {}
        self._req_lock = threading.Lock()
        self._next_id = 0
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._finished = threading.Event()

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ServeDaemon":
        if self._loop_thread is not None:
            raise RuntimeError("daemon already started")
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="serve-loop", daemon=True
        )
        self._loop_thread.start()
        self.listen()
        return self

    def __enter__(self) -> "ServeDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, settle in-flight work, tear down cleanly.

        ``drain=True`` waits (up to ``drain_timeout``) for in-flight
        requests; ``drain=False`` cancels them.  Either way the socket
        server, the asyncio loop and the loop's default executor are
        all shut down, so no threads or children outlive the call."""
        if self._stopped.is_set():
            self._finished.wait(self.drain_timeout + 10.0)
            return
        self._stopped.set()
        self._draining.set()
        try:
            with self._req_lock:
                pending = [
                    f for f in self._requests.values() if not f.done()
                ]
            if drain:
                concurrent.futures.wait(
                    pending, timeout=self.drain_timeout
                )
            else:
                for fut in pending:
                    fut.cancel()
                concurrent.futures.wait(pending, timeout=1.0)
            self.close()
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=5.0)
            if not self._loop.is_running():
                # reap the default executor's worker threads before
                # closing
                self._loop.run_until_complete(
                    self._loop.shutdown_default_executor()
                )
                self._loop.close()
        finally:
            self._finished.set()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon has fully shut down (the foreground
        ``python -m repro.harness serve`` mode parks here); returns
        whether it stopped within ``timeout``."""
        return self._finished.wait(timeout)

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def pending_requests(self) -> int:
        with self._req_lock:
            return sum(
                1 for f in self._requests.values() if not f.done()
            )

    # -- the wire surface -----------------------------------------------

    def count(self, event: str) -> None:
        self.core.counters.counter(f"serve.wire.{event}").add(1)

    def hello(self) -> Dict:
        return {"server": "repro.serve", "tenants": self.core.tenants()}

    def ops(self) -> Dict:
        return {
            "ping": self._op_ping,
            "register": self._op_register,
            "submit": self._op_submit,
            "poll": self._op_poll,
            "result": self._op_result,
            "stats": self._op_stats,
            "shutdown": self._op_shutdown,
        }

    def replied(self, frame: Dict, reply: Dict) -> None:
        # Only once the reply is out: ``serve`` exits when the teardown
        # ends, killing this (daemon) thread mid-reply.
        if frame.get("op") == "shutdown":
            threading.Thread(
                target=self.shutdown, kwargs={"drain": reply["draining"]},
                name="serve-shutdown", daemon=True,
            ).start()

    def _op_ping(self, frame: Dict) -> Dict:
        return {"ok": True, "draining": self.draining}

    def _op_register(self, frame: Dict) -> Dict:
        tenant = frame.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            self.count("errors")
            return error("bad-request", "register needs a tenant name")
        try:
            policy = policy_from_wire(frame.get("policy") or {})
        except WireError as exc:
            self.count("errors")
            return error("bad-policy", str(exc))
        state = self.service.register_tenant(tenant, policy)
        return {
            "ok": True,
            "tenant": tenant,
            "policy": dataclasses.asdict(state.policy),
        }

    def _op_submit(self, frame: Dict) -> Dict:
        tenant = frame.get("tenant")
        spec = frame.get("spec")
        if not isinstance(tenant, str) or not isinstance(spec, dict):
            self.count("errors")
            return error(
                "bad-request", "submit needs a tenant and a spec object"
            )
        self.count("submits")
        if self.draining:
            self.count("rejections")
            rej = ServiceUnavailable(
                tenant, "daemon is draining for shutdown"
            )
            return {"ok": False, "status": "rejected",
                    "rejected": rej.to_dict()}
        try:
            self.core.tenant(tenant)  # surface unknown-tenant eagerly
        except UnknownTenant as rej:
            self.count("rejections")
            return {"ok": False, "status": "rejected",
                    "rejected": rej.to_dict()}
        fut = asyncio.run_coroutine_threadsafe(
            self.service.submit(tenant, spec), self._loop
        )
        with self._req_lock:
            self._next_id += 1
            rid = f"r{self._next_id:06d}"
            self._requests[rid] = fut
        return {"ok": True, "id": rid}

    def _lookup(self, frame: Dict):
        rid = frame.get("id")
        with self._req_lock:
            fut = self._requests.get(rid)
        if fut is None:
            self.count("errors")
            return rid, None, error(
                "unknown-id", f"no pending request with id {rid!r}"
            )
        return rid, fut, None

    def _op_poll(self, frame: Dict) -> Dict:
        rid, fut, err = self._lookup(frame)
        if err is not None:
            return err
        status = "done" if fut.done() else "pending"
        return {"ok": True, "id": rid, "status": status}

    def _op_result(self, frame: Dict) -> Dict:
        rid, fut, err = self._lookup(frame)
        if err is not None:
            return err
        try:
            wait = float(frame.get("wait", 30.0))
        except (TypeError, ValueError):
            self.count("errors")
            return error("bad-request", "wait must be a number")
        try:
            res = fut.result(timeout=max(0.0, wait))
        except ServeRejection as rej:
            self._pop(rid)
            self.count("rejections")
            return {"ok": False, "id": rid, "status": "rejected",
                    "rejected": rej.to_dict()}
        except concurrent.futures.TimeoutError:
            return {"ok": True, "id": rid, "status": "pending"}
        except concurrent.futures.CancelledError:
            self._pop(rid)
            self.count("errors")
            return error("cancelled", f"request {rid} was cancelled")
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._pop(rid)
            self.count("errors")
            return error(
                "execution-error", f"{type(exc).__name__}: {exc}"
            )
        self._pop(rid)
        self.count("results")
        return {"ok": True, "id": rid, "status": "done",
                "result": result_to_wire(res)}

    def _pop(self, rid: str) -> None:
        with self._req_lock:
            self._requests.pop(rid, None)

    def _op_stats(self, frame: Dict) -> Dict:
        return {
            "ok": True,
            "stats": {
                "summary": self.core.summary(),
                "cache": self.service.cache.stats(),
                "exec_queue": self.core.execution_snapshot(),
                "wire": {
                    leaf: self.core.counters.value(f"serve.wire.{leaf}")
                    for leaf in WIRE_COUNTER_LEAVES
                },
                "pending_requests": self.pending_requests(),
                "draining": self.draining,
            },
        }

    def _op_shutdown(self, frame: Dict) -> Dict:
        """Shed new submits at once; :meth:`replied` starts the teardown
        after this reply is sent."""
        self._draining.set()
        return {"ok": True, "draining": bool(frame.get("drain", True))}
