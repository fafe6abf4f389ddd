"""The socket front-end: NDJSON frames over unix-socket or loopback TCP.

This is the serving analogue of :mod:`repro.harness.distproto` and
follows the same conventions — a ``WIRE_PROTOCOL_VERSION`` both sides
refuse to mismatch, canonical-JSON bodies, structured error payloads —
but swaps HTTP request/response for a persistent stream of
**newline-delimited JSON frames** (one JSON object per ``\\n``-terminated
line, at most :data:`MAX_FRAME_BYTES` each), which fits a chatty
submit/poll/result session far better than one HTTP round-trip per op.

A connection opens with a handshake::

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

:class:`ServeDaemon` hosts a :class:`~repro.serve.service.GpuService`
on a background asyncio loop; each connection is handled by a
``ThreadingMixIn`` daemon thread that bridges into the loop with
``asyncio.run_coroutine_threadsafe``.  All traffic is counted into the
``serve.wire.*`` counters (``repro.serve.metrics.SERVE_COUNTERS``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import dataclasses
import json
import os
import socketserver
import threading
from typing import Dict, Optional, Tuple, Union

from .core import ServeRejection, ServiceUnavailable, TenantPolicy, UnknownTenant
from .service import GpuService, ServeResult

#: bumped on any incompatible wire change; both sides refuse mismatches
WIRE_PROTOCOL_VERSION = 1

#: one frame (a single NDJSON line, newline included) may not exceed
#: this; the reader enforces it before parsing, so a garbage client
#: cannot balloon the daemon's memory
MAX_FRAME_BYTES = 1 << 20

#: counter leaves under ``serve.wire.*`` (see repro.serve.metrics)
WIRE_COUNTER_LEAVES = (
    "connections", "disconnects", "frames_in", "frames_out",
    "submits", "rejections", "results", "errors",
    "malformed", "oversized", "version_mismatch",
)


class WireError(Exception):
    """A malformed, truncated or version-mismatched wire exchange."""


class MalformedFrame(WireError):
    """A complete line arrived but is not a JSON object."""


class FrameTooLarge(WireError):
    """A line exceeded :data:`MAX_FRAME_BYTES` before its newline."""


def register_wire_counters(registry) -> None:
    """Pre-register every ``serve.wire.*`` counter (idempotent)."""
    for leaf in WIRE_COUNTER_LEAVES:
        registry.counter(f"serve.wire.{leaf}")


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def encode_frame(payload: Dict) -> bytes:
    """One canonical-JSON line; raises :class:`FrameTooLarge`."""
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode() + b"\n"
    if len(blob) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame of {len(blob)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return blob


def decode_frame(line: bytes) -> Dict:
    """Parse one complete line; raises :class:`MalformedFrame` unless
    it decodes to a JSON object."""
    try:
        data = json.loads(line.decode())
    except (ValueError, UnicodeDecodeError) as exc:
        raise MalformedFrame(f"frame is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise MalformedFrame(
            f"frame must be a JSON object, got {type(data).__name__}"
        )
    return data


def read_frame(rfile) -> Optional[Dict]:
    """Read one frame from a buffered byte stream.

    Returns ``None`` on a clean EOF (connection closed at a frame
    boundary); raises :class:`FrameTooLarge` when a line exceeds the
    limit, :class:`WireError` when the peer disconnected mid-frame and
    :class:`MalformedFrame` on bad JSON."""
    line = rfile.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"frame exceeds {MAX_FRAME_BYTES} bytes before its newline"
        )
    if not line.endswith(b"\n"):
        raise WireError("peer disconnected mid-frame (no trailing newline)")
    return decode_frame(line)


def check_version(payload: Dict, side: str) -> None:
    """Refuse to interoperate across protocol versions (distproto
    convention)."""
    version = payload.get("protocol")
    if version != WIRE_PROTOCOL_VERSION:
        raise WireError(
            f"{side} speaks wire protocol {version!r}, "
            f"this build speaks {WIRE_PROTOCOL_VERSION}"
        )


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


def _error(code: str, detail: str) -> Dict:
    return {"ok": False, "error": {"code": code, "detail": detail}}


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------

class _UnixServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True
    #: don't join handler threads in server_close: a handler blocked
    #: reading from a still-connected client would wedge shutdown; the
    #: daemon threads exit on their client's EOF instead
    block_on_close = False


class _TcpServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    daemon_threads = True
    allow_reuse_address = True
    block_on_close = False


class ServeDaemon:
    """Host a :class:`GpuService` behind the NDJSON socket protocol.

    Exactly one of ``path`` (unix socket) or ``port`` (loopback TCP;
    0 picks an ephemeral port, read it back from ``address``) must be
    given.  ``start()`` spins up the asyncio loop thread and the
    threading socket server; ``shutdown()`` drains and tears everything
    down.  Usable as a context manager."""

    def __init__(
        self,
        service: GpuService,
        *,
        path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        drain_timeout: float = 30.0,
    ) -> None:
        if (path is None) == (port is None):
            raise ValueError("exactly one of path= or port= is required")
        self.service = service
        self.core = service.core
        self.path = path
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        register_wire_counters(self.core.counters)
        self._loop = asyncio.new_event_loop()
        self._loop_thread: Optional[threading.Thread] = None
        self._serve_thread: Optional[threading.Thread] = None
        self._server: Optional[socketserver.BaseServer] = None
        self._requests: Dict[str, concurrent.futures.Future] = {}
        self._req_lock = threading.Lock()
        self._next_id = 0
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._finished = threading.Event()

    # -- lifecycle ------------------------------------------------------

    @property
    def address(self) -> Union[str, Tuple[str, int]]:
        """Where clients connect: the socket path, or ``(host, port)``."""
        if self.path is not None:
            return self.path
        return (self.host, self.port)

    def start(self) -> "ServeDaemon":
        if self._server is not None:
            raise RuntimeError("daemon already started")
        self._loop_thread = threading.Thread(
            target=self._loop.run_forever, name="serve-loop", daemon=True
        )
        self._loop_thread.start()
        daemon = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:  # noqa: D102 - bridge
                daemon._handle(self)

        if self.path is not None:
            if os.path.exists(self.path):
                os.unlink(self.path)
            self._server = _UnixServer(self.path, Handler)
        else:
            self._server = _TcpServer((self.host, self.port), Handler)
            self.port = self._server.server_address[1]
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever,
            name="serve-wire",
            daemon=True,
        )
        self._serve_thread.start()
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
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
                if self._serve_thread is not None:
                    self._serve_thread.join(timeout=5.0)
            if self.path is not None and os.path.exists(self.path):
                os.unlink(self.path)
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

    # -- connection handling --------------------------------------------

    def _ctr(self, leaf: str):
        return self.core.counters.counter(f"serve.wire.{leaf}")

    def _send(self, handler, payload: Dict) -> None:
        handler.wfile.write(encode_frame(payload))
        handler.wfile.flush()
        self._ctr("frames_out").add(1)

    def _handle(self, handler) -> None:
        self._ctr("connections").add(1)
        clean = False
        try:
            frame = read_frame(handler.rfile)
            if frame is None:
                clean = True
                return
            self._ctr("frames_in").add(1)
            if frame.get("op") != "hello":
                self._ctr("errors").add(1)
                self._send(handler, _error(
                    "handshake-required",
                    "first frame must be op=hello with a protocol field",
                ))
                return
            if frame.get("protocol") != WIRE_PROTOCOL_VERSION:
                self._ctr("version_mismatch").add(1)
                self._send(handler, _error(
                    "version-mismatch",
                    f"client speaks wire protocol "
                    f"{frame.get('protocol')!r}, server speaks "
                    f"{WIRE_PROTOCOL_VERSION}",
                ))
                return
            self._send(handler, {
                "ok": True,
                "protocol": WIRE_PROTOCOL_VERSION,
                "server": "repro.serve",
                "tenants": self.core.tenants(),
            })
            while True:
                frame = read_frame(handler.rfile)
                if frame is None:
                    clean = True
                    return
                self._ctr("frames_in").add(1)
                reply = self._dispatch(frame)
                try:
                    self._send(handler, reply)
                finally:
                    # Only once the reply is out: ``serve`` exits when the
                    # teardown ends, killing this (daemon) thread mid-reply.
                    if frame.get("op") == "shutdown":
                        threading.Thread(
                            target=self.shutdown,
                            kwargs={"drain": reply["draining"]},
                            name="serve-shutdown", daemon=True,
                        ).start()
        except FrameTooLarge as exc:
            self._ctr("oversized").add(1)
            self._try_send(handler, _error("frame-too-large", str(exc)))
        except MalformedFrame as exc:
            self._ctr("malformed").add(1)
            self._try_send(handler, _error("malformed-frame", str(exc)))
        except (WireError, ConnectionError, OSError, ValueError):
            pass  # disconnect mid-frame / send failure: counted below
        finally:
            if not clean:
                self._ctr("disconnects").add(1)

    def _try_send(self, handler, payload: Dict) -> None:
        try:
            self._send(handler, payload)
        except (ConnectionError, OSError, ValueError):
            pass

    # -- op dispatch -----------------------------------------------------

    def _dispatch(self, frame: Dict) -> Dict:
        op = frame.get("op")
        handlers = {
            "ping": self._op_ping,
            "register": self._op_register,
            "submit": self._op_submit,
            "poll": self._op_poll,
            "result": self._op_result,
            "stats": self._op_stats,
            "shutdown": self._op_shutdown,
        }
        fn = handlers.get(op)
        if fn is None:
            self._ctr("errors").add(1)
            return _error(
                "unknown-op",
                f"op {op!r} is not one of {sorted(handlers)}",
            )
        return fn(frame)

    def _op_ping(self, frame: Dict) -> Dict:
        return {"ok": True, "draining": self.draining}

    def _op_register(self, frame: Dict) -> Dict:
        tenant = frame.get("tenant")
        if not isinstance(tenant, str) or not tenant:
            self._ctr("errors").add(1)
            return _error("bad-request", "register needs a tenant name")
        try:
            policy = policy_from_wire(frame.get("policy") or {})
        except WireError as exc:
            self._ctr("errors").add(1)
            return _error("bad-policy", str(exc))
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
            self._ctr("errors").add(1)
            return _error(
                "bad-request", "submit needs a tenant and a spec object"
            )
        self._ctr("submits").add(1)
        if self.draining:
            self._ctr("rejections").add(1)
            rej = ServiceUnavailable(
                tenant, "daemon is draining for shutdown"
            )
            return {"ok": False, "status": "rejected",
                    "rejected": rej.to_dict()}
        try:
            self.core.tenant(tenant)  # surface unknown-tenant eagerly
        except UnknownTenant as rej:
            self._ctr("rejections").add(1)
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
            self._ctr("errors").add(1)
            return rid, None, _error(
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
            self._ctr("errors").add(1)
            return _error("bad-request", "wait must be a number")
        try:
            res = fut.result(timeout=max(0.0, wait))
        except ServeRejection as rej:
            self._pop(rid)
            self._ctr("rejections").add(1)
            return {"ok": False, "id": rid, "status": "rejected",
                    "rejected": rej.to_dict()}
        except concurrent.futures.TimeoutError:
            return {"ok": True, "id": rid, "status": "pending"}
        except concurrent.futures.CancelledError:
            self._pop(rid)
            self._ctr("errors").add(1)
            return _error("cancelled", f"request {rid} was cancelled")
        except Exception as exc:  # noqa: BLE001 - wire boundary
            self._pop(rid)
            self._ctr("errors").add(1)
            return _error(
                "execution-error", f"{type(exc).__name__}: {exc}"
            )
        self._pop(rid)
        self._ctr("results").add(1)
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
        """Shed new submits at once; :meth:`_handle` starts the teardown
        after sending this reply."""
        self._draining.set()
        return {"ok": True, "draining": bool(frame.get("drain", True))}
