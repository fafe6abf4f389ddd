"""Client side of the serve daemon's ops (docs/SERVING.md).

:class:`ServeClient` speaks the :mod:`repro.wire` protocol over a unix
socket (address is a path) or loopback TCP (address is a
``(host, port)`` tuple).  It performs the version handshake on connect
and sends and reads every frame, the hello included, through this
module's ``encode_frame`` and ``read_frame``.  It exposes one method
per daemon op, and
rehydrates structured rejection payloads into the *typed*
:class:`~repro.serve.core.ServeRejection` subclasses by their ``code``
— so wire callers catch :class:`~repro.serve.core.QueueFull` etc.
exactly like in-process callers do.
"""

from __future__ import annotations

import socket
from typing import Dict, Optional, Union

from .core import (
    QueueFull,
    ServeRejection,
    ServiceUnavailable,
    TenantQuarantined,
    UnknownTenant,
)
from ..wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Address,
    WireError,
    dial,
    encode_frame,
    handshake,
    read_frame,
)

#: rejection ``code`` -> typed exception class (docs/SERVING.md
#: "Rejection codes"); unknown codes fall back to the base class
REJECTION_TYPES = {
    cls.code: cls
    for cls in (
        ServeRejection, UnknownTenant, QueueFull,
        TenantQuarantined, ServiceUnavailable,
    )
}


def rejection_from_wire(data: Dict) -> ServeRejection:
    """The typed exception for one wire rejection payload."""
    cls = REJECTION_TYPES.get(data.get("code"), ServeRejection)
    return cls(data.get("tenant", "?"), data.get("detail", ""))


class ServeClient:
    """One connection to a :class:`~repro.serve.wire.ServeDaemon`.

    Not thread-safe — one client per thread (the protocol is a strict
    request/response alternation per connection).  Usable as a context
    manager; ``connect()`` is implicit on first use."""

    def __init__(
        self,
        address: Address,
        *,
        timeout: float = 30.0,
    ) -> None:
        self.address = address
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._rfile = None
        self._wfile = None
        #: the server's hello payload after a successful handshake
        self.server_info: Optional[Dict] = None

    # -- lifecycle ------------------------------------------------------

    def connect(self) -> "ServeClient":
        if self._sock is not None:
            return self
        sock = self._sock = dial(self.address, self.timeout)
        self._rfile = sock.makefile("rb", buffering=MAX_FRAME_BYTES)
        self._wfile = sock.makefile("wb")
        try:
            self.server_info = handshake(self._call, PROTOCOL_VERSION)
        except BaseException:
            self.close()
            raise
        return self

    def close(self) -> None:
        for f in (self._rfile, self._wfile):
            if f is not None:
                try:
                    f.close()
                except OSError:
                    pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._rfile = None
        self._wfile = None
        self.server_info = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- framing --------------------------------------------------------

    def _call(self, payload: Dict) -> Dict:
        if self._sock is None:
            self.connect()
        self._wfile.write(encode_frame(payload))
        self._wfile.flush()
        frame = read_frame(self._rfile)
        if frame is None:
            raise WireError("server closed the connection")
        return frame

    @staticmethod
    def _expect_ok(frame: Dict) -> Dict:
        """Raise the typed rejection or a :class:`WireError` on a
        negative response; return the frame otherwise."""
        if frame.get("ok"):
            return frame
        rejected = frame.get("rejected")
        if rejected is not None:
            raise rejection_from_wire(rejected)
        err = frame.get("error") or {}
        raise WireError(
            f"[{err.get('code', 'error')}] {err.get('detail', frame)}"
        )

    # -- ops ------------------------------------------------------------

    def ping(self) -> Dict:
        return self._expect_ok(self._call({"op": "ping"}))

    def register(
        self, tenant: str, **policy: Union[int, float]
    ) -> Dict:
        """Register ``tenant`` with optional policy overrides
        (``weight=2``, ``priority=1``, ``max_streams=4``, ...)."""
        return self._expect_ok(self._call({
            "op": "register", "tenant": tenant, "policy": policy,
        }))

    def submit(self, tenant: str, spec: Dict) -> str:
        """Enqueue one spec; returns the request id.  Immediate sheds
        (unknown tenant, draining daemon) raise their typed
        rejection."""
        frame = self._expect_ok(self._call({
            "op": "submit", "tenant": tenant, "spec": spec,
        }))
        return frame["id"]

    def poll(self, request_id: str) -> str:
        """``"pending"`` or ``"done"``."""
        frame = self._expect_ok(self._call({
            "op": "poll", "id": request_id,
        }))
        return frame["status"]

    def result(self, request_id: str, wait: float = 30.0) -> Optional[Dict]:
        """The serialized ServeResult, or ``None`` while still pending
        after ``wait`` seconds.  Raises the typed rejection when the
        request was shed."""
        frame = self._expect_ok(self._call({
            "op": "result", "id": request_id, "wait": wait,
        }))
        if frame["status"] == "pending":
            return None
        return frame["result"]

    def request(
        self, tenant: str, spec: Dict, wait: float = 60.0
    ) -> Dict:
        """Submit and block for the outcome (one closed-loop turn)."""
        rid = self.submit(tenant, spec)
        result = self.result(rid, wait=wait)
        if result is None:
            raise WireError(
                f"request {rid} still pending after {wait}s"
            )
        return result

    def stats(self) -> Dict:
        return self._expect_ok(self._call({"op": "stats"}))["stats"]

    def shutdown(self, drain: bool = True) -> Dict:
        """Ask the daemon to drain and exit."""
        return self._expect_ok(self._call({
            "op": "shutdown", "drain": drain,
        }))
