"""Unit tests for the wire codec and the three transport backends."""

from __future__ import annotations

import pytest

from repro.core import wire
from repro.net.transport import (AsyncTransport, FrameRecord,
                                 LoopbackTransport)
from repro.exceptions import AccessDenied, ParameterError, TransportError


class EchoEndpoint:
    """Minimal dispatch surface: echoes fields, or raises on demand."""

    def __init__(self) -> None:
        self.seen: list[bytes] = []
        self.transport = None

    def attach(self, transport) -> None:
        self.transport = transport

    def handle_frame(self, frame: bytes) -> bytes:
        self.seen.append(frame)
        opcode, fields = wire.parse_frame(frame)
        if opcode == b"boom":
            return wire.error_response(AccessDenied("no such privilege"))
        if opcode == b"crash":
            return wire.error_response(RuntimeError("internal"))
        return wire.ok_response(b"".join(fields))


class TestWireCodec:
    def test_frame_round_trip(self):
        frame = wire.make_frame(b"op", b"alpha", b"", b"\x00" * 7)
        opcode, fields = wire.parse_frame(frame)
        assert opcode == b"op"
        assert fields == [b"alpha", b"", b"\x00" * 7]

    def test_empty_frame_rejected(self):
        with pytest.raises(ParameterError):
            wire.parse_frame(b"")

    def test_ok_response_round_trip(self):
        assert wire.parse_response(wire.ok_response(b"payload")) == b"payload"

    def test_error_response_reraises_same_class(self):
        response = wire.error_response(AccessDenied("no such privilege"))
        with pytest.raises(AccessDenied, match="no such privilege"):
            wire.parse_response(response)

    def test_unknown_exception_degrades_to_transport_error(self):
        response = wire.error_response(RuntimeError("server state"))
        assert b"server state" not in response
        with pytest.raises(TransportError, match="internal server error"):
            wire.parse_response(response)

    def test_empty_response_rejected(self):
        with pytest.raises(TransportError):
            wire.parse_response(b"")

    def test_timestamp_round_trip_is_exact(self):
        for ts in (0.0, 0.001, 1234.567, 1.7e9 + 0.123):
            assert wire.ts_from_bytes(wire.ts_to_bytes(ts)) == pytest.approx(
                ts, abs=5e-4)
            # float -> bytes -> float -> bytes is a fixed point
            again = wire.ts_from_bytes(wire.ts_to_bytes(ts))
            assert wire.ts_to_bytes(again) == wire.ts_to_bytes(ts)

    def test_files_codec_round_trip(self):
        files = {b"f" * 16: b"ciphertext-1", b"g" * 16: b""}
        assert wire.decode_files(wire.encode_files(files)) == files

    def test_files_entry_shorter_than_fid_rejected(self):
        from repro.core.protocols.messages import pack_fields
        with pytest.raises(ParameterError):
            wire.decode_files(pack_fields(b"short"))


class TestLoopbackTransport:
    def test_request_logs_request_and_reply(self):
        transport = LoopbackTransport()
        endpoint = EchoEndpoint()
        transport.bind("svc://a", endpoint)
        mark = transport.mark()
        frame = wire.make_frame(b"echo", b"hi")
        response = transport.request("cli://x", "svc://a", frame,
                                     label="step", reply_label="step-reply")
        assert wire.parse_response(response) == b"hi"
        records = transport.records_since(mark)
        assert [(r.src, r.dst, r.label) for r in records] == [
            ("cli://x", "svc://a", "step"),
            ("svc://a", "cli://x", "step-reply")]
        assert records[0].nbytes == len(frame)
        assert records[1].nbytes == len(response)

    def test_notify_logs_one_record_but_returns_response(self):
        transport = LoopbackTransport()
        transport.bind("svc://a", EchoEndpoint())
        mark = transport.mark()
        response = transport.notify("cli://x", "svc://a",
                                    wire.make_frame(b"echo", b"x"),
                                    label="push")
        assert wire.parse_response(response) == b"x"
        assert len(transport.records_since(mark)) == 1

    def test_deliver_logs_bytes_only(self):
        transport = LoopbackTransport()
        mark = transport.mark()
        transport.deliver("a", "b", 123, label="physical")
        (record,) = transport.records_since(mark)
        assert record.nbytes == 123
        assert record.label == "physical"

    def test_clock_strictly_advances_per_record(self):
        transport = LoopbackTransport()
        transport.bind("svc://a", EchoEndpoint())
        t0 = transport.now
        transport.notify("c", "svc://a", wire.make_frame(b"echo"), label="l")
        assert transport.now > t0

    def test_clock_tick_spans_an_envelope_quantum(self):
        """Consecutive records land in distinct envelope milliseconds."""
        from repro.core.protocols.messages import ts_ms
        transport = LoopbackTransport()
        transport.bind("svc://a", EchoEndpoint())
        stamps = []
        for _ in range(50):
            transport.notify("c", "svc://a", wire.make_frame(b"echo"),
                             label="l")
            stamps.append(ts_ms(transport.now))
        assert stamps == sorted(set(stamps))

    def test_back_to_back_identical_rounds_pass_the_replay_guard(self):
        """Five identical family rounds in a row: no ReplayError."""
        from repro.core.protocols.emergency import family_based_retrieval
        from repro.core.protocols.privilege import assign_privilege
        from repro.core.protocols.storage import private_phi_storage
        from repro.core.system import build_system
        from repro.ehr.records import Category
        system = build_system(seed=b"loopback-replay")
        transport = LoopbackTransport()
        patient, server = system.patient, system.sserver
        patient.add_record(Category.ALLERGIES, ["flu"], "Seasonal flu.",
                           server.address)
        private_phi_storage(patient, server, transport)
        assign_privilege(patient, system.family, server, transport)
        for _ in range(5):
            result = family_based_retrieval(system.family, server,
                                            transport, ["flu"])
            assert [f.medical_content for f in result.files] == [
                "Seasonal flu."]

    def test_unbound_address_raises(self):
        transport = LoopbackTransport()
        with pytest.raises(TransportError):
            transport.request("a", "svc://nowhere", b"frame", label="l")

    def test_bind_attaches_endpoint(self):
        transport = LoopbackTransport()
        endpoint = EchoEndpoint()
        transport.bind("svc://a", endpoint)
        assert endpoint.transport is transport
        assert transport.endpoint_at("svc://a") is endpoint
        assert transport.has_route("svc://a")


@pytest.fixture
def remote():
    """The two-process shape inside one process: the endpoint is served
    by one TCP transport, and a second one reaches it only through a
    static (host, port) route."""
    server_side, client_side = AsyncTransport(), AsyncTransport()

    def serve(endpoint):
        server_side.bind("svc://a", endpoint)
        client_side.add_route("svc://a", "127.0.0.1",
                              server_side.port_of("svc://a"))
        return client_side

    yield serve
    client_side.close()
    server_side.close()


class TestSocketTransport:
    """The TCP carrier seen from a client that holds no endpoint."""

    def test_round_trip_over_real_tcp(self, remote):
        transport = remote(EchoEndpoint())
        response = transport.request(
            "cli://x", "svc://a", wire.make_frame(b"echo", b"tcp-bytes"),
            label="step")
        assert wire.parse_response(response) == b"tcp-bytes"

    def test_server_errors_cross_the_socket(self, remote):
        transport = remote(EchoEndpoint())
        response = transport.notify("cli://x", "svc://a",
                                    wire.make_frame(b"boom"), label="l")
        with pytest.raises(AccessDenied):
            wire.parse_response(response)

    def test_static_route_reaches_endpoint_served_elsewhere(self, remote):
        client_side = remote(EchoEndpoint())
        assert client_side.endpoint_at("svc://a") is None
        assert client_side.has_route("svc://a")
        response = client_side.request(
            "cli://x", "svc://a", wire.make_frame(b"echo", b"remote"),
            label="step")
        assert wire.parse_response(response) == b"remote"

    def test_unrouted_address_raises(self, remote):
        transport = remote(EchoEndpoint())
        with pytest.raises(TransportError):
            transport.notify("a", "svc://nowhere", b"frame", label="l")
        with pytest.raises(TransportError):
            transport.port_of("svc://nowhere")

    def test_connection_refused_surfaces_as_transport_error(self):
        transport = AsyncTransport()
        server = AsyncTransport()
        server.bind("svc://a", EchoEndpoint())
        port = server.port_of("svc://a")
        server.close()
        transport.add_route("svc://a", "127.0.0.1", port)
        try:
            with pytest.raises(TransportError):
                transport.notify("c", "svc://a", b"frame", label="l")
        finally:
            transport.close()

    def test_reply_record_has_direction_split_timestamps(self, remote):
        """The reply FrameRecord must carry its own times, not a copy
        of the request's — reply latency used to equal the full RTT."""
        transport = remote(EchoEndpoint())
        mark = transport.mark()
        transport.request("cli://x", "svc://a",
                          wire.make_frame(b"echo", b"t"), label="step")
        request, reply = transport.records_since(mark)
        assert request.sent_at <= request.arrived_at
        assert reply.sent_at == request.arrived_at
        assert reply.sent_at <= reply.arrived_at
        assert reply.latency <= (reply.arrived_at - request.sent_at)

    def test_handler_exception_returns_error_response(self, remote):
        """An endpoint that *raises* (instead of returning an error
        response) must not kill the connection — the client gets a
        typed error frame back."""

        class Exploding:
            def handle_frame(self, frame: bytes) -> bytes:
                raise RuntimeError("endpoint blew up")

        transport = remote(Exploding())
        response = transport.notify("cli://x", "svc://a",
                                    wire.make_frame(b"any"), label="l")
        assert b"endpoint blew up" not in response
        with pytest.raises(TransportError, match="internal server error"):
            wire.parse_response(response)

    def test_oversize_frame_answered_with_error_not_silence(self):
        """A header claiming an absurd length must earn a serialized
        error response, not a dropped connection."""
        import socket as socket_mod
        from repro.net.transport.tcpnet import _read_frame
        server = AsyncTransport()
        try:
            server.bind("svc://a", EchoEndpoint())
            route = ("127.0.0.1", server.port_of("svc://a"))
            with socket_mod.create_connection(route, timeout=5.0) as conn:
                conn.sendall((1 << 31).to_bytes(4, "big") + b"junk")
                response = _read_frame(conn, bytearray())
            assert response is not None
            with pytest.raises(TransportError,
                               match="could not read frame"):
                wire.parse_response(response)
        finally:
            server.close()


class TestSocketTuning:
    """Both sides of every TCP exchange disable Nagle (small
    write-then-wait frames must not sit out a delayed ACK) and allow
    address reuse (fixed smoke-test ports rebind through TIME_WAIT)."""

    def test_server_listener_options(self):
        import socket as socket_mod
        transport = AsyncTransport()
        try:
            transport.bind("svc://a", EchoEndpoint())
            listener, _thread = transport._listeners[0]
            assert listener.getsockopt(socket_mod.SOL_SOCKET,
                                       socket_mod.SO_REUSEADDR)
            assert listener.getsockopt(socket_mod.IPPROTO_TCP,
                                       socket_mod.TCP_NODELAY)
        finally:
            transport.close()

    def test_accepted_and_client_connections_get_nodelay(self):
        import socket as socket_mod
        from repro.net.transport import tcpnet

        transport = AsyncTransport()
        seen = []
        original_tune = tcpnet._tune_socket

        def spy(conn):
            original_tune(conn)
            try:
                seen.append((
                    conn.getsockopt(socket_mod.IPPROTO_TCP,
                                    socket_mod.TCP_NODELAY),
                    conn.getsockopt(socket_mod.SOL_SOCKET,
                                    socket_mod.SO_REUSEADDR)))
            except OSError:  # pragma: no cover - peer already gone
                pass

        tcpnet._tune_socket = spy
        try:
            transport.bind("svc://a", EchoEndpoint())
            transport.request("cli://x", "svc://a",
                              wire.make_frame(b"echo", b"t"), label="step")
        finally:
            tcpnet._tune_socket = original_tune
            transport.close()
        # Listener + accepted server socket + client socket all pass
        # through _tune_socket and come out with both options set.
        assert len(seen) >= 3
        assert all(nodelay and reuse for nodelay, reuse in seen)


class TestFrameRecord:
    def test_latency_property(self):
        record = FrameRecord(src="a", dst="b", label="l", nbytes=1,
                             sent_at=1.0, arrived_at=1.5)
        assert record.latency == pytest.approx(0.5)
