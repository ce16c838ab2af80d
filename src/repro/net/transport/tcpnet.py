"""The TCP carrier: length-prefixed frames over pooled blocking connections.

Each bound endpoint listens on a loopback port; static routes
(``routes={address: (host, port)}``) reach endpoints hosted by another
process.  A frame travels as a 4-byte big-endian length prefix and the
frame bytes, both ways; nothing else is on the wire.

**Client.** Each destination has a pool of persistent connections, at
most :data:`WINDOW` of them checked out at once (a caller past the
window blocks: backpressure, not unbounded queueing).  A caller checks
one out, writes its frame and reads its own reply on its own thread: no
thread handoffs, no correlation ids.  The pool invariant:

* a connection goes back to the pool only after exactly one complete
  reply has been read from it;
* a reply timeout, a short read or an ``OSError`` closes it instead;
* at checkout, a zero-timeout readability probe discards a pooled
  connection whose peer has closed it (an idle connection has nothing
  to read), so a restarted server does not cost a failed request.

**Server.** Each accepted connection gets one thread, which reads and
answers its frames in turn; at most :data:`HANDLER_THREADS` calls to
``handle_frame`` run at once per transport (the endpoints' reentrancy
contract is in ``docs/architecture.md``).  An oversize frame, and any
exception escaping the handler, is answered with a serialized error
response, never with silence.

Refused/reset/timed-out connections raise the retryable
:class:`~repro.exceptions.TransientTransportError`.  ``close()``
drains: listeners close at once, frames being handled get their
replies (bounded by :data:`DRAIN_TIMEOUT_S`), then every connection is
hung up.
"""

from __future__ import annotations

import contextlib
import logging
import select
import socket
import threading
import time

from repro.core import wire
from repro.net.transport.base import FrameRecord, Transport
from repro.exceptions import TransientTransportError, TransportError

__all__ = ["AsyncTransport"]

_LEN_BYTES = 4
_MAX_FRAME = 64 * 1024 * 1024
_RECV_BYTES = 64 * 1024

#: Seconds a client waits to connect, and for a reply when no
#: RetryPolicy sets a per-attempt timeout.
CONNECT_TIMEOUT_S = 10.0
#: Pause between connect attempts when ``connect_retries`` > 0.
CONNECT_RETRY_DELAY_S = 0.2
#: A server connection quiet this long is hung up, freeing its thread.
READ_TIMEOUT_S = 30.0
#: Requests one client may have in flight to one destination.
WINDOW = 64
#: Calls to ``handle_frame`` one transport runs at once.
HANDLER_THREADS = 8
#: How long ``close()`` waits for frames being handled to be answered.
DRAIN_TIMEOUT_S = 5.0

_LOG = logging.getLogger("repro.net.transport.tcpnet")

# OSErrors that a healthy peer may heal from on its own.
_TRANSIENT_OS_ERRORS = (ConnectionRefusedError, ConnectionResetError,
                        ConnectionAbortedError, BrokenPipeError,
                        TimeoutError)


def _read_frame(conn: socket.socket, buf: bytearray) -> bytes | None:
    """The next length-prefixed frame on ``conn``, usually in one recv;
    bytes past it stay in ``buf`` for the next call.  None when the
    peer closes the stream before the frame is complete."""
    while True:
        need = _LEN_BYTES
        if len(buf) >= _LEN_BYTES:
            length = int.from_bytes(buf[:_LEN_BYTES], "big")
            if length > _MAX_FRAME:
                raise TransportError("frame length %d exceeds limit" % length)
            need += length
            if len(buf) >= need:
                frame = bytes(buf[_LEN_BYTES:need])
                del buf[:need]
                return frame
        chunk = conn.recv(max(need - len(buf), _RECV_BYTES))
        if not chunk:
            return None
        buf += chunk


def _write_frame(conn: socket.socket, frame: bytes) -> None:
    conn.sendall(len(frame).to_bytes(_LEN_BYTES, "big") + frame)


def _tune_socket(conn: socket.socket) -> None:
    """``TCP_NODELAY``: a small write-then-wait frame must not sit out
    the peer's delayed ACK.  ``SO_REUSEADDR``: a restarted process
    rebinds its fixed port while old connections sit in TIME_WAIT."""
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)


def _peer_closed(conn: socket.socket) -> bool:
    """Zero-timeout readability probe on an idle pooled connection: it
    has nothing to read unless its peer hung up (or misbehaved)."""
    poller = select.poll()
    poller.register(conn, select.POLLIN)
    return bool(poller.poll(0))


def _hang_up(conn: socket.socket, how: int = socket.SHUT_RDWR) -> None:
    """Wake the thread blocked on ``conn`` (accept or recv); it closes
    the socket."""
    with contextlib.suppress(OSError):
        conn.shutdown(how)


class _Pool:
    """One destination's idle connections and in-flight window."""

    def __init__(self, lock: threading.Lock) -> None:
        self.idle: list[socket.socket] = []
        self.in_flight = 0
        self.peak = 0
        self.slot_free = threading.Condition(lock)


class AsyncTransport(Transport):
    """Frames over pooled persistent TCP connections, one reply per
    checkout; concurrent callers each hold their own connection."""

    #: Concurrent requests to one destination run on separate pooled
    #: connections — scatter-gather callers may fan out threads.
    CONCURRENT_REQUESTS = True

    def __init__(self, routes: dict[str, tuple[str, int]] | None = None,
                 host: str = "127.0.0.1", connect_retries: int = 0) -> None:
        super().__init__()
        self._routes: dict[str, tuple[str, int]] = dict(routes or {})
        self._host = host
        self._connect_retries = connect_retries
        self._log: list[FrameRecord] = []
        # Guards the pools and the server tables.
        self._lock = threading.Lock()
        self._pools: dict[str, _Pool] = {}
        self._listeners: list[tuple[socket.socket, threading.Thread]] = []
        self._server_conns: dict[socket.socket, threading.Thread] = {}
        self._handlers = threading.Semaphore(HANDLER_THREADS)
        self._closed = False

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

    # -- the server side ----------------------------------------------------
    def bind(self, address: str, endpoint, port: int = 0) -> None:
        """Serve ``endpoint`` on ``port`` (0 = ephemeral).  A fixed port
        lets two processes agree on a route before the server is up."""
        listener = socket.create_server((self._host, port))
        _tune_socket(listener)
        thread = threading.Thread(target=self._accept_loop,
                                  args=(listener, endpoint),
                                  name="tcpnet-accept", daemon=True)
        with self._lock:
            if self._closed:
                listener.close()
                raise TransportError("transport is closed")
            self._listeners.append((listener, thread))
        thread.start()
        self._routes[address] = listener.getsockname()[:2]
        super().bind(address, endpoint)

    def _accept_loop(self, listener: socket.socket, endpoint) -> None:
        with listener:
            while True:
                try:
                    conn, _addr = listener.accept()
                except OSError as exc:
                    if self._closed:
                        return  # close() shut the listener down
                    _LOG.warning("accept failed: %s", exc)  # e.g. EMFILE
                    time.sleep(CONNECT_RETRY_DELAY_S)
                    continue
                _tune_socket(conn)
                thread = threading.Thread(target=self._serve_connection,
                                          args=(endpoint, conn),
                                          name="tcpnet-conn", daemon=True)
                with self._lock:
                    if self._closed:
                        conn.close()
                        return
                    self._server_conns[conn] = thread
                    thread.start()

    def _serve_connection(self, endpoint, conn: socket.socket) -> None:
        try:
            conn.settimeout(READ_TIMEOUT_S)
            pending = bytearray()
            while True:
                try:
                    frame = _read_frame(conn, pending)
                except TransportError as exc:
                    _LOG.warning("unreadable frame: %s", exc)
                    _write_frame(conn, wire.error_response(TransportError(
                        "server could not read frame: %s" % exc)))
                    return
                if frame is None:
                    return
                with self._handlers:
                    try:
                        response = endpoint.handle_frame(frame)
                    except Exception as exc:  # answer, never go silent
                        _LOG.warning("frame handler raised: %s", exc)
                        response = wire.error_response(exc)
                _write_frame(conn, response)
        except OSError:
            pass  # client gone or idle too long; nothing left to tell it
        finally:
            with self._lock:
                self._server_conns.pop(conn, None)
            conn.close()

    # -- the client side ----------------------------------------------------
    def peak_in_flight(self) -> int:
        """Most requests any destination had in flight at once."""
        with self._lock:
            return max((pool.peak for pool in self._pools.values()),
                       default=0)

    def _connect(self, dst: str) -> socket.socket:
        route = self._routes.get(dst)
        if route is None:
            raise self._no_endpoint(dst)
        last: OSError | None = None
        for attempt in range(self._connect_retries + 1):
            if attempt:
                time.sleep(CONNECT_RETRY_DELAY_S)
            try:
                conn = socket.create_connection(route,
                                                timeout=CONNECT_TIMEOUT_S)
            except _TRANSIENT_OS_ERRORS as exc:
                last = exc
                continue
            _tune_socket(conn)
            return conn
        raise TransientTransportError(
            "cannot connect to %r after %d attempt(s): %s"
            % (dst, self._connect_retries + 1, last)) from last

    def _checkout(self, dst: str) -> tuple[_Pool, socket.socket | None]:
        """Take a window slot and a live pooled connection (None: dial
        a new one)."""
        with self._lock:
            if self._closed:
                raise TransportError("transport is closed")
            pool = self._pools.get(dst)
            if pool is None:
                pool = self._pools[dst] = _Pool(self._lock)
            while pool.in_flight >= WINDOW:
                pool.slot_free.wait()
            pool.in_flight += 1
            pool.peak = max(pool.peak, pool.in_flight)
            while pool.idle:
                conn = pool.idle.pop()
                if not _peer_closed(conn):
                    return pool, conn
                conn.close()
        return pool, None

    def _release(self, pool: _Pool, conn: socket.socket | None) -> None:
        """Give the window slot back, and ``conn`` to the pool (None:
        it was discarded)."""
        with self._lock:
            pool.in_flight -= 1
            pool.slot_free.notify()
            if conn is not None and not self._closed:
                pool.idle.append(conn)
                return
        if conn is not None:
            conn.close()

    def _roundtrip(self, dst: str, frame: bytes) -> tuple[bytes, float]:
        """Send one frame, block for its reply.  Returns the reply and
        the time the request finished going out."""
        pool, conn = self._checkout(dst)
        try:
            if conn is None:
                conn = self._connect(dst)
            timeout_s = (self._attempt_timeout_s() if self._retry_policy
                         is not None else CONNECT_TIMEOUT_S)
            if conn.gettimeout() != timeout_s:
                conn.settimeout(timeout_s)
            _write_frame(conn, frame)
            request_done = time.time()
            extra = bytearray()
            response = _read_frame(conn, extra)
            if response is None:
                raise TransientTransportError(
                    "connection to %r closed mid-frame" % dst)
            if extra:
                raise TransportError("%r sent bytes past its reply" % dst)
        except BaseException as exc:
            if conn is not None:
                conn.close()
            self._release(pool, None)
            if not isinstance(exc, OSError):
                raise
            kind = (TransientTransportError if isinstance(
                exc, _TRANSIENT_OS_ERRORS) else TransportError)
            raise kind("socket error talking to %r: %s"
                       % (dst, exc)) from exc
        self._release(pool, conn)
        return response, request_done

    # -- clock + accounting -------------------------------------------------
    @property
    def now(self) -> float:
        return time.time()

    # The frame log is lock-free (list append, len and slices are
    # atomic): a contended lock here outweighs the whole round trip.
    def mark(self) -> int:
        return len(self._log)

    def records_since(self, mark: int) -> list:
        return self._log[mark:]

    def _record(self, src: str, dst: str, label: str, nbytes: int,
                sent_at: float, arrived_at: float) -> None:
        self._log.append(FrameRecord(src=src, dst=dst, label=label,
                                     nbytes=nbytes, sent_at=sent_at,
                                     arrived_at=arrived_at))

    def _wait(self, seconds: float) -> None:
        # Real wall-clock backoff, capped so chaos tests stay quick.
        if seconds > 0:
            time.sleep(min(seconds, 0.05))

    def _carry_frame(self, src: str, dst: str, frame: bytes, label: str,
                     reply_label: str, bill_reply: bool) -> bytes:
        sent_at = time.time()
        response, request_done = self._roundtrip(dst, frame)
        arrived_at = time.time()
        # Direction-split stamps, as in the simulator: the request spans
        # [sent_at, request_done], the reply [request_done, arrived_at].
        # Billing counts the frame bytes, not the length prefixes.
        self._record(src, dst, label, len(frame), sent_at, request_done)
        if bill_reply:
            self._record(dst, src, reply_label, len(response),
                         request_done, arrived_at)
        return response

    def deliver(self, src: str, dst: str, nbytes: int, label: str) -> None:
        now = time.time()
        self._record(src, dst, label, nbytes, now, now)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Stop listening, let frames being handled finish (bounded),
        then hang up every connection.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            listeners, self._listeners = self._listeners, []
            idle = []
            for pool in self._pools.values():
                idle, pool.idle = idle + pool.idle, []
        for listener, _thread in listeners:
            _hang_up(listener)
        for _listener, thread in listeners:
            thread.join(timeout=1.0)
        with self._lock:
            serving = list(self._server_conns.items())
        # SHUT_RD ends each loop after its current frame is answered.
        for conn, _thread in serving:
            _hang_up(conn, socket.SHUT_RD)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        for conn, thread in serving:
            thread.join(max(0.0, deadline - time.monotonic()))
            _hang_up(conn)
        for conn in idle:
            conn.close()
