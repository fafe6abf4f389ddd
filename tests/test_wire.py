"""Wire front-end tests: NDJSON framing, the version handshake, the
daemon's op surface, typed rejection rehydration on the client, and —
the part that earns its keep — the error paths: malformed frames,
oversized frames, protocol mismatches, clients vanishing mid-request,
and daemon shutdown with requests still in flight (docs/SERVING.md)."""

import json
import socket
import threading
import time

import pytest

from repro.serve import (
    GpuService,
    MAX_FRAME_BYTES,
    ServeClient,
    ServeDaemon,
    ServiceUnavailable,
    UnknownTenant,
    WireError,
)
from repro.serve.client import rejection_from_wire
from repro.serve.core import QueueFull, ServeRejection, TenantQuarantined
from repro.serve.wire import policy_from_wire
from repro.wire import (
    PROTOCOL_VERSION,
    FrameTooLarge,
    MalformedFrame,
    decode_frame,
    encode_frame,
    read_frame,
)


def stub_executor(spec):
    """Fast in-process data plane; ``gate`` blocks until released so
    tests can hold a request in flight deliberately."""
    gate = spec.get("_gate")
    if gate is not None:
        _GATES[gate].wait(10.0)
    return {
        "workload": spec.get("workload", "stub"),
        "cycles": 100.0 + float(spec.get("seed", 0)),
        "faults_raised": 0,
    }


#: named events the stub executor blocks on (spec values must stay
#: JSON-serializable, so specs carry the gate *name*)
_GATES = {}


@pytest.fixture()
def gate():
    _GATES["g"] = threading.Event()
    yield "g"
    _GATES["g"].set()
    _GATES.pop("g", None)


@pytest.fixture()
def daemon(tmp_path):
    service = GpuService(
        isolated=False, max_attempts=2, executor=stub_executor
    )
    d = ServeDaemon(service, path=str(tmp_path / "serve.sock"))
    d.start()
    yield d
    d.shutdown(drain=False)


def raw_connect(address):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(address)
    return sock


def raw_call(sock, payload_bytes):
    sock.sendall(payload_bytes)
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            return None
        buf += chunk
    return json.loads(buf)


def hello(sock, protocol=PROTOCOL_VERSION):
    return raw_call(
        sock, encode_frame({"op": "hello", "protocol": protocol})
    )


class TestFraming:
    def test_round_trip(self):
        frame = {"op": "ping", "n": 1}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encode_rejects_oversized(self):
        with pytest.raises(FrameTooLarge):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_decode_rejects_bad_json(self):
        with pytest.raises(MalformedFrame):
            decode_frame(b"not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(MalformedFrame):
            decode_frame(b"[1, 2]\n")

    def test_read_frame_eof_is_none(self):
        import io

        assert read_frame(io.BytesIO(b"")) is None

    def test_read_frame_mid_frame_disconnect(self):
        import io

        with pytest.raises(WireError, match="mid-frame"):
            read_frame(io.BytesIO(b'{"op": "ping"}'))  # no newline

    def test_policy_from_wire_rejects_unknown_fields(self):
        with pytest.raises(WireError, match="unknown policy field"):
            policy_from_wire({"no_such_knob": 3})

    def test_policy_from_wire_coerces(self):
        policy = policy_from_wire({"weight": 3, "priority": 1})
        assert policy.weight == 3
        assert policy.priority == 1


class TestHandshake:
    def test_hello_returns_server_info(self, daemon):
        with ServeClient(daemon.address) as client:
            assert client.server_info["protocol"] == PROTOCOL_VERSION
            assert client.server_info["server"] == "repro.serve"

    def test_version_mismatch_is_refused_and_counted(self, daemon):
        sock = raw_connect(daemon.address)
        reply = hello(sock, protocol=PROTOCOL_VERSION + 1)
        sock.close()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "version-mismatch"
        assert daemon.core.counters.value(
            "serve.wire.version_mismatch"
        ) == 1.0

    def test_client_raises_on_version_refusal(self, daemon, monkeypatch):
        import repro.serve.client as client_mod

        monkeypatch.setattr(
            client_mod, "PROTOCOL_VERSION", PROTOCOL_VERSION + 9
        )
        with pytest.raises(WireError, match="version-mismatch"):
            ServeClient(daemon.address).connect()

    def test_first_frame_must_be_hello(self, daemon):
        sock = raw_connect(daemon.address)
        reply = raw_call(sock, encode_frame({"op": "ping"}))
        sock.close()
        assert reply["error"]["code"] == "handshake-required"


class TestErrorPaths:
    def test_malformed_frame_is_reported_and_counted(self, daemon):
        sock = raw_connect(daemon.address)
        assert hello(sock)["ok"]
        reply = raw_call(sock, b"this is not json\n")
        sock.close()
        assert reply["error"]["code"] == "malformed-frame"
        assert daemon.core.counters.value("serve.wire.malformed") == 1.0

    def test_oversized_frame_is_reported_and_counted(self, daemon):
        sock = raw_connect(daemon.address)
        assert hello(sock)["ok"]
        reply = raw_call(sock, b"x" * (MAX_FRAME_BYTES + 2) + b"\n")
        sock.close()
        assert reply["error"]["code"] == "frame-too-large"
        assert daemon.core.counters.value("serve.wire.oversized") == 1.0

    def test_unknown_op(self, daemon):
        sock = raw_connect(daemon.address)
        assert hello(sock)["ok"]
        reply = raw_call(sock, encode_frame({"op": "frobnicate"}))
        sock.close()
        assert reply["error"]["code"] == "unknown-op"

    def test_unknown_request_id(self, daemon):
        with ServeClient(daemon.address) as client:
            with pytest.raises(WireError, match="unknown-id"):
                client.result("r999999")

    def test_client_disconnect_mid_request_leaves_daemon_healthy(
        self, daemon, gate
    ):
        """A client that submits and vanishes must not wedge anything:
        the request completes server-side and a second client can still
        fetch it by id."""
        with ServeClient(daemon.address) as first:
            first.register("t")
            rid = first.submit("t", {"workload": "w", "_gate": gate})
            # disconnect with the request still in flight
        assert daemon.pending_requests() == 1
        _GATES[gate].set()
        with ServeClient(daemon.address) as second:
            result = second.result(rid, wait=10.0)
        assert result is not None and result["ok"]

    def test_mid_frame_disconnect_is_counted(self, daemon):
        """Dropping the connection halfway through a frame (no trailing
        newline) is the unclean-disconnect path; a clean EOF between
        frames is not counted."""
        sock = raw_connect(daemon.address)
        assert hello(sock)["ok"]
        sock.sendall(b'{"op": "po')  # partial frame, then vanish
        sock.close()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if daemon.core.counters.value("serve.wire.disconnects") >= 1.0:
                break
            time.sleep(0.02)
        assert daemon.core.counters.value("serve.wire.disconnects") == 1.0


class TestOps:
    def test_register_submit_poll_result(self, daemon):
        with ServeClient(daemon.address) as client:
            info = client.register("alpha", weight=2, priority=1)
            assert info["policy"]["weight"] == 2
            rid = client.submit("alpha", {"workload": "w", "seed": 5})
            assert rid.startswith("r")
            result = client.result(rid, wait=10.0)
            assert result["ok"] is True
            assert result["cached"] is False
            assert result["value"]["cycles"] == 105.0
            assert client.poll(
                client.submit("alpha", {"workload": "w", "seed": 5})
            ) in ("pending", "done")

    def test_cache_hit_over_the_wire(self, daemon):
        with ServeClient(daemon.address) as client:
            client.register("alpha")
            spec = {"workload": "w", "seed": 9}
            first = client.request("alpha", spec, wait=10.0)
            second = client.request("alpha", spec, wait=10.0)
        assert first["cached"] is False
        assert second["cached"] is True

    def test_stats_expose_wire_and_cache(self, daemon):
        with ServeClient(daemon.address) as client:
            client.register("alpha")
            client.request("alpha", {"workload": "w"}, wait=10.0)
            stats = client.stats()
        assert stats["wire"]["frames_in"] > 0
        assert stats["wire"]["frames_out"] > 0
        assert "alpha" in stats["cache"]["tenants"]
        assert stats["summary"]["tenants"]["alpha"]["completions"] == 1
        assert stats["draining"] is False

    def test_unknown_tenant_rejected_eagerly_and_typed(self, daemon):
        with ServeClient(daemon.address) as client:
            with pytest.raises(UnknownTenant) as exc:
                client.submit("ghost", {"workload": "w"})
        assert "[unknown-tenant]" in str(exc.value)
        assert daemon.core.counters.value("serve.wire.rejections") == 1.0


class TestRejectionRehydration:
    def test_codes_map_to_types(self):
        for cls in (ServeRejection, UnknownTenant, QueueFull,
                    TenantQuarantined, ServiceUnavailable):
            rej = cls("t", "detail text")
            back = rejection_from_wire(rej.to_dict())
            assert type(back) is cls
            assert back.tenant == "t"
            assert back.detail == "detail text"

    def test_unknown_code_falls_back_to_base(self):
        back = rejection_from_wire(
            {"code": "never-heard-of-it", "tenant": "t", "detail": "d"}
        )
        assert type(back) is ServeRejection


class TestShutdown:
    def test_drain_completes_in_flight_requests(self, tmp_path, gate):
        """Shutdown with drain: the in-flight request finishes, new
        submissions are shed with the typed ServiceUnavailable, and no
        serve threads survive."""
        service = GpuService(
            isolated=False, max_attempts=2, executor=stub_executor
        )
        daemon = ServeDaemon(service, path=str(tmp_path / "s.sock"))
        daemon.start()
        client = ServeClient(daemon.address).connect()
        client.register("t")
        client.submit("t", {"workload": "w", "_gate": gate})
        assert daemon.pending_requests() == 1
        reply = client.shutdown(drain=True)
        assert reply["draining"] is True
        # the daemon is draining: new submissions shed immediately
        with pytest.raises(ServiceUnavailable):
            client.submit("t", {"workload": "w2"})
        _GATES[gate].set()
        assert daemon.join(timeout=10.0), "daemon did not stop"
        assert daemon.pending_requests() == 0
        client.close()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            alive = [
                t.name for t in threading.enumerate()
                if t.name.startswith("serve-") or "asyncio" in t.name
            ]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"threads survived shutdown: {alive}"

    def test_reply_is_on_the_wire_before_teardown_starts(self, tmp_path):
        """``python -m repro.harness serve`` exits as soon as teardown
        ends, which kills the handler thread: the shutdown reply must be
        written before teardown begins.  The reply write waits up to 1 s
        for teardown to start; in the right order it never does."""
        service = GpuService(isolated=False, executor=stub_executor)
        daemon = ServeDaemon(service, path=str(tmp_path / "s.sock"))
        started = threading.Event()
        replies, waits = [], []
        teardown, op_shutdown, send = (
            daemon.shutdown, daemon._op_shutdown, daemon._send
        )

        def traced_teardown(drain=True):
            started.set()
            teardown(drain=drain)

        def traced_op_shutdown(frame):
            replies.append(op_shutdown(frame))
            return replies[-1]

        def traced_send(handler, payload):
            if any(payload is r for r in replies):
                waits.append(started.wait(1.0))
            send(handler, payload)

        daemon.shutdown = traced_teardown
        daemon._op_shutdown = traced_op_shutdown
        daemon._send = traced_send
        daemon.start()
        with ServeClient(daemon.address) as client:
            assert client.shutdown(drain=True)["draining"] is True
        assert waits == [False], "teardown started before the reply"
        assert daemon.join(timeout=10.0), "daemon did not stop"
        assert started.is_set()

    def test_shutdown_without_drain_cancels(self, tmp_path, gate):
        service = GpuService(
            isolated=False, max_attempts=2, executor=stub_executor
        )
        daemon = ServeDaemon(service, path=str(tmp_path / "s.sock"))
        daemon.start()
        with ServeClient(daemon.address) as client:
            client.register("t")
            client.submit("t", {"workload": "w", "_gate": gate})
            daemon.shutdown(drain=False)
        assert daemon.join(timeout=10.0)

    def test_socket_file_removed(self, tmp_path):
        import os

        path = str(tmp_path / "s.sock")
        service = GpuService(isolated=False, executor=stub_executor)
        with ServeDaemon(service, path=path):
            assert os.path.exists(path)
        assert not os.path.exists(path)

    def test_shutdown_is_idempotent(self, tmp_path):
        service = GpuService(isolated=False, executor=stub_executor)
        daemon = ServeDaemon(service, path=str(tmp_path / "s.sock"))
        daemon.start()
        daemon.shutdown()
        daemon.shutdown()  # second call must be a no-op
