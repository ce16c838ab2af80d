"""The TCP carrier: the connection-pool invariants, backpressure,
graceful drain, plain-frame wire interop, and the dispatch reentrancy
contract under genuinely concurrent handler entry; plus the
correlation-id codec that ``repro.core.wire`` still ships."""

from __future__ import annotations

import socket as socket_mod
import sys
import threading
import time

import pytest

from repro.core import wire
from repro.core.dispatch import Endpoint
from repro.net.transport import AsyncTransport, RetryPolicy
from repro.net.transport.tcpnet import HANDLER_THREADS, WINDOW, _read_frame
from repro.exceptions import (AccessDenied, ParameterError,
                              TransientTransportError, TransportError)


class EchoEndpoint:
    """Minimal dispatch surface: echoes fields, or raises on demand."""

    def __init__(self) -> None:
        self.seen: list[bytes] = []

    def attach(self, transport) -> None:
        self.transport = transport

    def handle_frame(self, frame: bytes) -> bytes:
        self.seen.append(frame)
        opcode, fields = wire.parse_frame(frame)
        if opcode == b"boom":
            return wire.error_response(AccessDenied("no such privilege"))
        if opcode == b"refuse":
            return wire.error_response(
                TransientTransportError("endpoint saturated"))
        return wire.ok_response(b"".join(fields))


class GateEndpoint:
    """Blocks every handler on one event; records concurrent entries."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.entered: list[bytes] = []
        self._lock = threading.Lock()

    def attach(self, transport) -> None:
        pass

    def handle_frame(self, frame: bytes) -> bytes:
        _opcode, fields = wire.parse_frame(frame)
        with self._lock:
            self.entered.append(fields[0])
        assert self.release.wait(20.0), "gate never released"
        return wire.ok_response(fields[0])


class TestCorrelationCodec:
    def test_id_zero_is_identity(self):
        frame = wire.make_frame(b"op", b"payload")
        assert wire.wrap_corr(0, frame) == frame
        assert wire.unwrap_corr(frame) == (0, frame)

    def test_nonzero_round_trip(self):
        frame = wire.make_frame(b"op", b"payload")
        for frame_id in (1, 2, 0xDEADBEEF, wire.MAX_CORR_ID):
            blob = wire.wrap_corr(frame_id, frame)
            assert blob != frame
            assert wire.unwrap_corr(blob) == (frame_id, frame)

    def test_out_of_range_ids_rejected(self):
        for bad in (-1, wire.MAX_CORR_ID + 1):
            with pytest.raises(ParameterError):
                wire.wrap_corr(bad, b"frame")

    def test_truncated_prefix_rejected(self):
        with pytest.raises(TransportError, match="truncated"):
            wire.unwrap_corr(wire.CORR_MAGIC + b"\x00\x00")

    def test_explicit_zero_id_rejected(self):
        # Only the identity encoding may carry id 0; an explicit prefix
        # with id 0 is a peer bug, not a frame.
        with pytest.raises(TransportError, match="reserved"):
            wire.unwrap_corr(wire.CORR_MAGIC + b"\x00" * 4 + b"frame")

    def test_magic_cannot_collide_with_legacy_traffic(self):
        # Legacy frames start with the u32-BE length of their opcode
        # field (first byte 0x00 for any sane opcode); responses start
        # with the 0x00/0x01 status byte.  Neither can begin 0xff.
        assert wire.make_frame(b"phi-search", b"x")[0] == 0
        assert wire.ok_response(b"body")[0] == 0
        assert wire.error_response(ValueError("x"))[0] == 1
        assert wire.CORR_MAGIC[0] == 0xFF


class TestAsyncRoundTrip:
    def test_request_over_real_tcp(self):
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            response = net.request("cli://x", "svc://a",
                                   wire.make_frame(b"echo", b"async-bytes"),
                                   label="step")
            assert wire.parse_response(response) == b"async-bytes"
        finally:
            net.close()

    def test_server_errors_cross_the_wire(self):
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            response = net.notify("cli://x", "svc://a",
                                  wire.make_frame(b"boom"), label="l")
            with pytest.raises(AccessDenied):
                wire.parse_response(response)
        finally:
            net.close()

    def test_handler_exception_returns_error_response(self):
        class Exploding:
            def handle_frame(self, frame: bytes) -> bytes:
                raise RuntimeError("endpoint blew up")

        net = AsyncTransport()
        try:
            net.bind("svc://a", Exploding())
            response = net.notify("cli://x", "svc://a",
                                  wire.make_frame(b"any"), label="l")
            assert b"endpoint blew up" not in response
            with pytest.raises(TransportError, match="internal server error"):
                wire.parse_response(response)
        finally:
            net.close()

    def test_serialized_transient_refusal_retries(self):
        """A remote endpoint's TransientTransportError rides back as a
        serialized error response — the retry template must treat it as
        the refusal it is, exactly like an in-process raise."""

        class RefuseOnce(EchoEndpoint):
            def handle_frame(self, frame: bytes) -> bytes:
                if not self.seen:
                    self.seen.append(frame)
                    return wire.error_response(
                        TransientTransportError("try again"))
                return super().handle_frame(frame)

        net = AsyncTransport()
        net.set_retry_policy(RetryPolicy(max_attempts=3,
                                         attempt_timeout_s=2.0,
                                         base_backoff_s=0.01))
        try:
            net.bind("svc://a", RefuseOnce())
            response = net.request("cli://x", "svc://a",
                                   wire.make_frame(b"echo", b"ok-now"),
                                   label="step")
            assert wire.parse_response(response) == b"ok-now"
        finally:
            net.close()

    def test_unrouted_address_raises(self):
        net = AsyncTransport()
        try:
            with pytest.raises(TransportError):
                net.notify("a", "svc://nowhere", b"frame", label="l")
            with pytest.raises(TransportError):
                net.port_of("svc://nowhere")
        finally:
            net.close()

    def test_closed_transport_refuses_frames(self):
        net = AsyncTransport()
        net.bind("svc://a", EchoEndpoint())
        net.close()
        net.close()  # idempotent
        with pytest.raises(TransportError, match="closed"):
            net.notify("cli://x", "svc://a", wire.make_frame(b"echo"),
                       label="l")


class TestLegacyInterop:
    def test_blocking_socket_client_reaches_async_server(self):
        """The wire carries the plain length-prefixed frame and nothing
        else: a hand-rolled blocking client that writes one frame and
        reads one reply talks to the carrier's server unchanged."""
        net = AsyncTransport()
        try:
            net.bind("svc://a", EchoEndpoint())
            route = ("127.0.0.1", net.port_of("svc://a"))
            frame = wire.make_frame(b"echo", b"legacy")
            with socket_mod.create_connection(route, timeout=5.0) as conn:
                for _ in range(2):  # the connection persists
                    conn.sendall(len(frame).to_bytes(4, "big") + frame)
                    reply = _read_frame(conn, bytearray())
                    assert wire.parse_response(reply) == b"legacy"
        finally:
            net.close()

    def test_wrapped_frame_is_opaque_to_a_legacy_endpoint(self):
        """A correlation-wrapped frame is not a frame: its id prefix
        reaches an endpoint as opaque leading bytes, which the frame
        parser rejects."""
        blob = wire.wrap_corr(7, wire.make_frame(b"echo", b"x"))
        with pytest.raises(ParameterError):
            wire.parse_frame(blob)


class _SlowOnceEndpoint(EchoEndpoint):
    """Echoes, but sits on its first frame past the client's timeout."""

    def handle_frame(self, frame: bytes) -> bytes:
        if not self.seen:
            time.sleep(0.5)
        return super().handle_frame(frame)


def _free_port() -> int:
    with socket_mod.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestConnectionPool:
    def test_serial_requests_reuse_one_connection(self):
        net = AsyncTransport()
        try:
            endpoint = EchoEndpoint()
            net.bind("svc://a", endpoint)
            for i in range(5):
                response = net.request("cli://x", "svc://a",
                                       wire.make_frame(b"echo", b"%d" % i),
                                       label="step")
                assert wire.parse_response(response) == b"%d" % i
            assert len(net._server_conns) == 1
            assert net.peak_in_flight() == 1
        finally:
            net.close()

    def test_rebound_server_costs_no_failed_request(self):
        """The server restarts on its fixed port between two requests;
        with no RetryPolicy, the checkout probe must drop the pooled
        connection the old server hung up and dial the new one."""
        port = _free_port()
        client = AsyncTransport()
        client.add_route("svc://a", "127.0.0.1", port)
        server = AsyncTransport()
        try:
            server.bind("svc://a", EchoEndpoint(), port=port)
            first = client.request("cli://x", "svc://a",
                                   wire.make_frame(b"echo", b"one"),
                                   label="step")
            assert wire.parse_response(first) == b"one"
            server.close()
            server = AsyncTransport()
            server.bind("svc://a", EchoEndpoint(), port=port)
            second = client.request("cli://x", "svc://a",
                                    wire.make_frame(b"echo", b"two"),
                                    label="step")
            assert wire.parse_response(second) == b"two"
        finally:
            client.close()
            server.close()

    def test_timed_out_connection_never_returns_to_the_pool(self):
        """The first reply arrives after the caller gave up; the next
        request must get its own reply, never the late one."""
        net = AsyncTransport()
        try:
            net.bind("svc://a", _SlowOnceEndpoint())
            net.set_retry_policy(RetryPolicy(max_attempts=1,
                                             attempt_timeout_s=0.1))
            with pytest.raises(TransientTransportError):
                net.request("cli://x", "svc://a",
                            wire.make_frame(b"echo", b"late"), label="step")
            net.set_retry_policy(None)
            response = net.request("cli://x", "svc://a",
                                   wire.make_frame(b"echo", b"fresh"),
                                   label="step")
            assert wire.parse_response(response) == b"fresh"
            time.sleep(0.6)  # the late reply has landed somewhere by now
            response = net.request("cli://x", "svc://a",
                                   wire.make_frame(b"echo", b"again"),
                                   label="step")
            assert wire.parse_response(response) == b"again"
        finally:
            net.close()

    def test_stress_many_callers_keep_their_own_replies(self):
        """More callers than cores, a tiny switch interval: every caller
        gets its own reply, the frame log loses no record, and every
        window slot comes back."""
        net = AsyncTransport()
        callers, rounds = 16, 25
        errors: list[BaseException] = []

        def call(index: int) -> None:
            try:
                for i in range(rounds):
                    payload = b"%d/%d" % (index, i)
                    response = net.request(
                        "cli://%d" % index, "svc://a",
                        wire.make_frame(b"echo", payload), label="step")
                    assert wire.parse_response(response) == payload
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            net.bind("svc://a", EchoEndpoint())
            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            net.close()
        assert not errors
        assert len(net.records_since(0)) == 2 * callers * rounds
        pool = net._pools["svc://a"]
        assert pool.in_flight == 0
        assert 1 < net.peak_in_flight() <= callers

    def test_close_with_six_endpoints_is_prompt(self):
        net = AsyncTransport()
        for i in range(6):
            net.bind("svc://%d" % i, EchoEndpoint())
            net.request("cli://x", "svc://%d" % i,
                        wire.make_frame(b"echo", b"x"), label="step")
        started = time.perf_counter()
        net.close()
        assert time.perf_counter() - started < 0.05


class TestBackpressure:
    def test_pending_window_blocks_at_the_bound(self):
        endpoint = GateEndpoint()
        net = AsyncTransport()
        callers = WINDOW + 3
        results: dict[int, bytes] = {}

        def call(index: int) -> None:
            response = net.request("cli://%d" % index, "svc://gate",
                                   wire.make_frame(b"op", b"p%d" % index),
                                   label="step")
            results[index] = wire.parse_response(response)

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(callers)]
        try:
            net.bind("svc://gate", endpoint)
            for thread in threads:
                thread.start()
            deadline = time.time() + 10.0
            while (net.peak_in_flight() < WINDOW
                   or len(endpoint.entered) < HANDLER_THREADS) \
                    and time.time() < deadline:
                time.sleep(0.01)
            # The window is full: every handler thread is parked inside
            # the gate, the rest of the window queues server-side, and
            # the last three callers wait in the client-side window, so
            # no further frame leaves the client.
            time.sleep(0.2)
            assert net.peak_in_flight() == WINDOW
            assert len(endpoint.entered) == HANDLER_THREADS
        finally:
            endpoint.release.set()
            for thread in threads:
                thread.join(timeout=20.0)
            peak = net.peak_in_flight()
            net.close()
        assert results == {i: b"p%d" % i for i in range(callers)}
        assert peak == WINDOW


class TestGracefulDrain:
    def test_close_answers_in_flight_frames(self):
        """Frames already pipelined when close() starts still get their
        responses before the connection dies."""
        endpoint = GateEndpoint()
        net = AsyncTransport()
        results: dict[int, bytes] = {}

        def call(index: int) -> None:
            response = net.request("cli://%d" % index, "svc://gate",
                                   wire.make_frame(b"op", b"p%d" % index),
                                   label="step")
            results[index] = wire.parse_response(response)

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(3)]
        net.bind("svc://gate", endpoint)
        for thread in threads:
            thread.start()
        deadline = time.time() + 10.0
        while len(endpoint.entered) < 3 and time.time() < deadline:
            time.sleep(0.01)
        assert len(endpoint.entered) == 3

        closer = threading.Thread(target=net.close)
        closer.start()
        time.sleep(0.1)     # close() is now draining
        endpoint.release.set()
        closer.join(timeout=20.0)
        for thread in threads:
            thread.join(timeout=20.0)
        assert results == {i: b"p%d" % i for i in range(3)}


class _CountingEndpoint(Endpoint):
    """Dispatch endpoint whose handlers measure their own concurrency."""

    MUTATING_OPS = frozenset({b"write"})

    def __init__(self) -> None:
        super().__init__()
        self._gauge_lock = threading.Lock()
        self._in_read = 0
        self._in_write = 0
        self.peak_reads = 0
        self.peak_writes = 0
        self._ops[b"read"] = self._op_read
        self._ops[b"write"] = self._op_write

    def _enter(self, attr: str, peak: str) -> None:
        with self._gauge_lock:
            value = getattr(self, attr) + 1
            setattr(self, attr, value)
            setattr(self, peak, max(getattr(self, peak), value))

    def _exit(self, attr: str) -> None:
        with self._gauge_lock:
            setattr(self, attr, getattr(self, attr) - 1)

    def _op_read(self, fields: list[bytes]) -> bytes:
        self._enter("_in_read", "peak_reads")
        try:
            time.sleep(0.05)
            return fields[0]
        finally:
            self._exit("_in_read")

    def _op_write(self, fields: list[bytes]) -> bytes:
        self._enter("_in_write", "peak_writes")
        try:
            time.sleep(0.02)
            return fields[0]
        finally:
            self._exit("_in_write")


class TestDispatchReentrancy:
    def test_reads_concurrent_writes_single_writer(self):
        """The Endpoint contract under pipelined dispatch: read opcodes
        overlap, mutating opcodes never do."""
        endpoint = _CountingEndpoint()
        net = AsyncTransport()
        errors: list[BaseException] = []

        def call(opcode: bytes, index: int) -> None:
            try:
                response = net.request(
                    "cli://%d" % index, "svc://count",
                    wire.make_frame(opcode, b"p%d" % index), label="step")
                assert wire.parse_response(response) == b"p%d" % index
            except BaseException as exc:  # pragma: no cover - fail loud
                errors.append(exc)

        threads = ([threading.Thread(target=call, args=(b"read", i))
                    for i in range(6)]
                   + [threading.Thread(target=call, args=(b"write", i))
                      for i in range(6, 12)])
        try:
            net.bind("svc://count", endpoint)
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            net.close()
        assert not errors
        assert endpoint.peak_reads >= 2, "reads never overlapped"
        assert endpoint.peak_writes == 1, "two writers entered at once"
