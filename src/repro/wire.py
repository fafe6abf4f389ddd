"""The one wire protocol of every control plane: NDJSON frames over a
unix socket or TCP, opened by a versioned handshake.

Both socket front-ends speak it — the serve daemon
(:class:`repro.serve.wire.ServeDaemon`) and the campaign coordinator
(:class:`repro.harness.dist.CampaignCoordinator`) — so they share one
framing, one handshake, one :data:`PROTOCOL_VERSION`, one frame cap and
one error family.

**Frames.**  One canonical-JSON object per ``\\n``-terminated line, at
most :data:`MAX_FRAME_BYTES` bytes, newline included.  The reader
enforces the cap before parsing, so a garbage peer cannot balloon a
server's memory.

**Handshake.**  A connection opens with::

    C: {"op": "hello", "protocol": 1}
    S: {"ok": true, "protocol": 1, "server": "...", ...}

and then carries any number of ``{"op": ...}`` requests, each answered
by one reply frame (strict alternation).  A failed reply is
``{"ok": false, "error": {"code": ..., "detail": ...}}``.
:class:`FrameServer` itself answers ``handshake-required``,
``version-mismatch``, ``malformed-frame``, ``frame-too-large`` and
``unknown-op``; each op table adds its own codes (docs/SERVING.md and
docs/ROBUSTNESS.md list them).
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
from typing import Callable, Dict, Optional, Tuple, Union

#: bumped on any incompatible wire change; servers refuse a mismatched
#: hello
PROTOCOL_VERSION = 1

#: one frame (a single NDJSON line, newline included) may not exceed
#: this
MAX_FRAME_BYTES = 1 << 20

#: a unix socket path, or a ``(host, port)`` TCP address
Address = Union[str, Tuple[str, int]]


class WireError(Exception):
    """A malformed, truncated, refused or version-mismatched exchange.

    ``code`` is the error code of the reply this stands for (the peer's
    refusal, or the code a server answers the bad frame with); it is
    None for a cut or missing reply."""

    code: Optional[str] = None

    def __init__(self, detail: str, code: Optional[str] = None) -> None:
        super().__init__(detail)
        if code is not None:
            self.code = code


class MalformedFrame(WireError):
    """A complete line arrived but is not a JSON object."""

    code = "malformed-frame"


class FrameTooLarge(WireError):
    """A line exceeded :data:`MAX_FRAME_BYTES` before its newline."""

    code = "frame-too-large"


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


def error(code: str, detail: str, **extra) -> Dict:
    """A failed reply frame; ``extra`` fields ride in its error object."""
    return {"ok": False, "error": {"code": code, "detail": detail, **extra}}


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------

def dial(address: Address, timeout: float) -> socket.socket:
    """A connected stream socket.  Raises ``OSError`` —
    ``FileNotFoundError`` or ``ConnectionRefusedError`` while nothing
    listens at ``address``."""
    if not isinstance(address, str):
        return socket.create_connection(address, timeout)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        sock.settimeout(timeout)
        sock.connect(address)
    except BaseException:
        sock.close()
        raise
    return sock


def handshake(call: Callable[[Dict], Dict], protocol: int) -> Dict:
    """Send the hello through ``call`` (one request/reply exchange) and
    return the server's hello reply; raises :class:`WireError` carrying
    the server's error code when it refuses."""
    reply = call({"op": "hello", "protocol": protocol})
    if not reply.get("ok"):
        err = reply.get("error") or {}
        raise WireError(
            f"handshake refused: [{err.get('code')}] {err.get('detail')}",
            code=err.get("code") or "refused",
        )
    return reply


# ---------------------------------------------------------------------------
# server side
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


class FrameServer:
    """A threaded unix-socket (``path``) or TCP (``port``; 0 picks an
    ephemeral one) server that speaks the handshake and answers every
    later frame from an op table.

    A subclass supplies :meth:`ops` (op name -> handler taking the
    request frame and returning the reply frame) and :meth:`hello`
    (the fields of its hello reply).  It may override :meth:`count` to
    book wire events and :meth:`replied` to act once a reply is
    out."""

    #: name of the accept-loop thread
    thread_name = "wire"

    def __init__(
        self,
        *,
        path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
    ) -> None:
        if (path is None) == (port is None):
            raise ValueError("exactly one of path= or port= is required")
        self.path = path
        self.host = host
        self.port = port
        self._server: Optional[socketserver.BaseServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ops: Dict[str, Callable[[Dict], Dict]] = {}

    @property
    def address(self) -> Address:
        """Where clients connect: the socket path, or ``(host, port)``."""
        if self.path is not None:
            return self.path
        return (self.host, self.port)

    # -- the subclass's surface -------------------------------------------

    def ops(self) -> Dict[str, Callable[[Dict], Dict]]:
        """The op table; read once, when the server starts listening."""
        raise NotImplementedError

    def hello(self) -> Dict:
        """The fields a hello reply carries besides ``ok`` and
        ``protocol``."""
        raise NotImplementedError

    def count(self, event: str) -> None:
        """Book one wire event (``connections``, ``frames_in``,
        ``malformed``, ...); the base class books nothing."""

    def replied(self, frame: Dict, reply: Dict) -> None:
        """Called after ``reply`` to ``frame`` was sent, or failed to
        send."""

    # -- lifecycle --------------------------------------------------------

    def listen(self) -> None:
        """Bind and serve from a background thread."""
        self._ops = self.ops()
        owner = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self) -> None:  # noqa: D102 - bridge
                owner._handle(self)

        if self.path is not None:
            if os.path.exists(self.path):
                os.unlink(self.path)
            self._server = _UnixServer(self.path, Handler)
        else:
            self._server = _TcpServer((self.host, self.port), Handler)
            self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.1},
            name=self.thread_name, daemon=True,
        )
        self._thread.start()

    def close(self) -> None:
        """Stop accepting and unbind (idempotent); connections already
        open end on their client's EOF."""
        server, self._server = self._server, None
        if server is not None:
            server.shutdown()
            server.server_close()
            self._thread.join(timeout=5.0)
        if self.path is not None and os.path.exists(self.path):
            os.unlink(self.path)

    # -- one connection ---------------------------------------------------

    def _send(self, handler, payload: Dict) -> None:
        handler.wfile.write(encode_frame(payload))
        handler.wfile.flush()
        self.count("frames_out")

    def _try_send(self, handler, payload: Dict) -> None:
        try:
            self._send(handler, payload)
        except (ConnectionError, OSError, ValueError):
            pass

    def _handle(self, handler) -> None:
        self.count("connections")
        clean = False
        try:
            frame = read_frame(handler.rfile)
            if frame is None:
                clean = True
                return
            self.count("frames_in")
            if frame.get("op") != "hello":
                self.count("errors")
                self._send(handler, error(
                    "handshake-required",
                    "first frame must be op=hello with a protocol field",
                ))
                return
            if frame.get("protocol") != PROTOCOL_VERSION:
                self.count("version_mismatch")
                self._send(handler, error(
                    "version-mismatch",
                    f"client speaks wire protocol "
                    f"{frame.get('protocol')!r}, server speaks "
                    f"{PROTOCOL_VERSION}",
                ))
                return
            self._send(handler, {
                "ok": True, "protocol": PROTOCOL_VERSION, **self.hello(),
            })
            while True:
                frame = read_frame(handler.rfile)
                if frame is None:
                    clean = True
                    return
                self.count("frames_in")
                op = frame.get("op")
                fn = self._ops.get(op)
                if fn is None:
                    self.count("errors")
                    reply = error(
                        "unknown-op",
                        f"op {op!r} is not one of {sorted(self._ops)}",
                    )
                else:
                    reply = fn(frame)
                try:
                    self._send(handler, reply)
                finally:
                    self.replied(frame, reply)
        except (FrameTooLarge, MalformedFrame) as exc:
            self.count("oversized" if isinstance(exc, FrameTooLarge)
                       else "malformed")
            self._try_send(handler, error(exc.code, str(exc)))
        except (WireError, ConnectionError, OSError, ValueError):
            pass  # disconnect mid-frame / send failure: counted below
        finally:
            if not clean:
                self.count("disconnects")
