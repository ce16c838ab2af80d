"""Real TCP transport: length-prefixed frames between OS processes.

Each bound endpoint is served by a threaded TCP server on a loopback
port; clients open one connection per frame (4-byte big-endian length
prefix both ways).  Routes can also be injected statically
(``routes={address: (host, port)}``) so a client process can talk to an
endpoint hosted by *another* process — the two-process smoke test in
``tools/socket_smoke.py`` drives exactly that split.

Failure semantics: refused/reset/timed-out connections surface as
:class:`~repro.exceptions.TransientTransportError` (retryable), other
socket errors as :class:`~repro.exceptions.TransportError`.  The server
side never answers a broken exchange with silence — an unreadable or
oversize frame, and any exception escaping the frame handler, is logged
and answered with a serialized error response so the client gets a
typed error instead of "closed mid-frame".  Connects can retry a
bounded number of times (``connect_retries``) to bridge a peer process
that is still starting up.
"""

from __future__ import annotations

import abc
import logging
import socket
import socketserver
import threading
import time

from repro.net.transport.base import FrameRecord, Transport
from repro.exceptions import TransientTransportError, TransportError

_LEN_BYTES = 4
_MAX_FRAME = 64 * 1024 * 1024

#: Seconds a client waits to connect, and for a reply when no
#: RetryPolicy sets a per-attempt timeout.
CONNECT_TIMEOUT_S = 10.0
#: Pause between connect attempts when ``connect_retries`` > 0.
CONNECT_RETRY_DELAY_S = 0.2
#: A server connection quiet this long is answered with an error
#: response and closed instead of pinning its thread forever.
READ_TIMEOUT_S = 30.0

_LOG = logging.getLogger("repro.net.transport.socketnet")

# OSErrors that a healthy peer may heal from on its own.
_TRANSIENT_OS_ERRORS = (ConnectionRefusedError, ConnectionResetError,
                        ConnectionAbortedError, BrokenPipeError,
                        TimeoutError)


def _recv_exact(conn: socket.socket, nbytes: int) -> bytes | None:
    chunks = []
    remaining = nbytes
    while remaining:
        chunk = conn.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(conn: socket.socket) -> bytes | None:
    header = _recv_exact(conn, _LEN_BYTES)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > _MAX_FRAME:
        raise TransportError("frame length %d exceeds limit" % length)
    return _recv_exact(conn, length)


def _write_frame(conn: socket.socket, frame: bytes) -> None:
    conn.sendall(len(frame).to_bytes(_LEN_BYTES, "big") + frame)


def _serialized_error(exc: BaseException) -> bytes:
    # Imported lazily: the wire codecs live above the transport layer,
    # and only this degraded-reply path needs them.
    from repro.core import wire
    return wire.error_response(exc)


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        self.request.settimeout(READ_TIMEOUT_S)
        try:
            frame = _read_frame(self.request)
        except (TransportError, OSError) as exc:
            _LOG.warning("unreadable frame from %s: %s",
                         self.client_address, exc)
            self._reply(_serialized_error(
                TransportError("server could not read frame: %s" % exc)))
            return
        if frame is None:
            return
        try:
            response = self.server.frame_handler(frame)
        except Exception as exc:  # never kill the connection silently
            _LOG.warning("frame handler raised for %s: %s",
                         self.client_address, exc)
            response = _serialized_error(exc)
        self._reply(response)

    def _reply(self, response: bytes) -> None:
        try:
            _write_frame(self.request, response)
        except OSError:
            pass  # client already gone; nothing left to tell it


def _tune_socket(conn: socket.socket) -> None:
    """Latency/rebind hygiene applied to every socket, both sides.

    ``TCP_NODELAY`` matters because frames are small write-then-wait
    exchanges: with Nagle on, the 4-byte length prefix and the frame
    body can be held back waiting for the peer's delayed ACK, which is
    pure added latency for a pipelined workload.  ``SO_REUSEADDR``
    lets a restarted process rebind its fixed smoke-test port while the
    old connection lingers in TIME_WAIT.
    """
    try:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    except OSError:  # pragma: no cover - non-TCP test doubles
        pass


class _EndpointServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def server_bind(self) -> None:
        _tune_socket(self.socket)
        super().server_bind()

    def get_request(self):
        conn, addr = super().get_request()
        _tune_socket(conn)
        return conn, addr


def serve_endpoint(endpoint, host: str = "127.0.0.1",
                   port: int = 0) -> _EndpointServer:
    """Host one dispatch endpoint on a TCP port (background thread).

    Returns the server; ``server.server_address`` is the bound (host,
    port) to hand to remote :class:`SocketTransport` routes.
    """
    server = _EndpointServer((host, port), _FrameHandler)
    server.frame_handler = endpoint.handle_frame
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


class _TcpTransport(Transport):
    """What both TCP carriers share: routes, the wall clock, the locked
    frame log, and direction-split billing.  A subclass hosts endpoints
    (``bind``/``close``) and moves one frame (``_roundtrip``)."""

    def __init__(self, routes: dict[str, tuple[str, int]] | None = None,
                 host: str = "127.0.0.1", connect_retries: int = 0) -> None:
        super().__init__()
        self._routes: dict[str, tuple[str, int]] = dict(routes or {})
        self._host = host
        self._connect_retries = connect_retries
        self._log: list[FrameRecord] = []
        self._lock = threading.Lock()

    @abc.abstractmethod
    def _roundtrip(self, dst: str, frame: bytes) -> tuple[bytes, float]:
        """Send one frame, block for its reply.  Returns the reply and
        the time the request finished going out (the reply's departure
        lower bound, used to stamp direction-split records)."""

    # -- routes ---------------------------------------------------------------
    def has_route(self, address: str) -> bool:
        return address in self._routes

    def add_route(self, address: str, host: str, port: int) -> None:
        """Point an address at an endpoint served by another process."""
        self._routes[address] = (host, port)

    def port_of(self, address: str) -> int:
        route = self._routes.get(address)
        if route is None:
            raise TransportError("no route to %r" % address)
        return route[1]

    def _route(self, dst: str) -> tuple[str, int]:
        route = self._routes.get(dst)
        if route is None:
            raise self._no_endpoint(dst)
        return route

    def _reply_timeout_s(self) -> float:
        return (self._attempt_timeout_s() if self._retry_policy is not None
                else CONNECT_TIMEOUT_S)

    # -- clock + accounting -------------------------------------------------
    @property
    def now(self) -> float:
        return time.time()

    def mark(self) -> int:
        with self._lock:
            return len(self._log)

    def records_since(self, mark: int) -> list:
        with self._lock:
            return self._log[mark:]

    def _record(self, src: str, dst: str, label: str, nbytes: int,
                sent_at: float, arrived_at: float) -> None:
        with self._lock:
            self._log.append(FrameRecord(src=src, dst=dst, label=label,
                                         nbytes=nbytes, sent_at=sent_at,
                                         arrived_at=arrived_at))

    def _wait(self, seconds: float) -> None:
        # Real wall-clock backoff, capped so chaos tests stay quick.
        if seconds > 0:
            time.sleep(min(seconds, 0.05))

    # -- carrying frames ----------------------------------------------------
    def _carry_frame(self, src: str, dst: str, frame: bytes, label: str,
                     reply_label: str, bill_reply: bool) -> bytes:
        sent_at = time.time()
        response, request_done = self._roundtrip(dst, frame)
        arrived_at = time.time()
        # Direction-split stamps, mirroring the simulator: the request
        # occupies [sent_at, request_done], the reply departs no earlier
        # than the request finished and lands at arrived_at.  Billing
        # counts the logical frame bytes — length prefixes and the async
        # correlation envelope are stream framing, not protocol payload.
        self._record(src, dst, label, len(frame), sent_at, request_done)
        if bill_reply:
            self._record(dst, src, reply_label, len(response),
                         request_done, arrived_at)
        return response

    def deliver(self, src: str, dst: str, nbytes: int, label: str) -> None:
        now = time.time()
        self._record(src, dst, label, nbytes, now, now)


class SocketTransport(_TcpTransport):
    """Frames over real TCP sockets, one connection per frame."""

    def __init__(self, routes: dict[str, tuple[str, int]] | None = None,
                 host: str = "127.0.0.1", connect_retries: int = 0) -> None:
        super().__init__(routes, host, connect_retries)
        self._servers: list[_EndpointServer] = []

    def bind(self, address: str, endpoint, port: int = 0) -> None:
        """Serve ``endpoint`` on ``port`` (0 = ephemeral).  A fixed port
        lets two processes agree on a route before the server is up."""
        server = serve_endpoint(endpoint, host=self._host, port=port)
        self._servers.append(server)
        self._routes[address] = (server.server_address[0],
                                 server.server_address[1])
        super().bind(address, endpoint)

    def close(self) -> None:
        for server in self._servers:
            server.shutdown()
            server.server_close()
        self._servers.clear()

    def _roundtrip(self, dst: str, frame: bytes) -> tuple[bytes, float]:
        route = self._route(dst)
        try:
            # Connect, retrying refusals a bounded number of times (a
            # peer process may still be binding its port).
            last: OSError | None = None
            for attempt in range(self._connect_retries + 1):
                if attempt:
                    time.sleep(CONNECT_RETRY_DELAY_S)
                try:
                    conn = socket.create_connection(
                        route, timeout=CONNECT_TIMEOUT_S)
                    break
                except _TRANSIENT_OS_ERRORS as exc:
                    last = exc
            else:
                raise TransientTransportError(
                    "cannot connect to %r after %d attempt(s): %s"
                    % (dst, self._connect_retries + 1, last)) from last
            with conn:
                _tune_socket(conn)
                conn.settimeout(self._reply_timeout_s())
                _write_frame(conn, frame)
                request_done = time.time()
                response = _read_frame(conn)
        except TransportError:
            raise
        except _TRANSIENT_OS_ERRORS as exc:
            raise TransientTransportError(
                "transient socket error talking to %r: %s"
                % (dst, exc)) from exc
        except OSError as exc:
            raise TransportError("socket error talking to %r: %s"
                                 % (dst, exc)) from exc
        if response is None:
            raise TransientTransportError(
                "connection to %r closed mid-frame" % dst)
        return response, request_done
