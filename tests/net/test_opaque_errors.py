"""No builtin exception text crosses the wire, on any carrier.

A handler bug (a ``ValueError``, a ``KeyError``, ...) may carry server
state in its message.  Every catch-all that serializes a server-side
exception — dispatch endpoints, the federation router and the TCP
server loop — answers with an opaque ``TransportError`` instead, on
all three backends.
"""

from __future__ import annotations

import pytest

from repro.core import wire
from repro.core.dispatch import Endpoint
from repro.core.router import RouterEndpoint
from repro.crypto.rng import HmacDrbg
from repro.net.link import LinkClass
from repro.net.sim import Network
from repro.net.transport import (AsyncTransport, LoopbackTransport,
                                 SimTransport)
from repro.exceptions import TransportError

SECRET = "secret-text"
BACKENDS = ["loopback", "sim", "async"]


def _make(backend: str):
    if backend == "loopback":
        return LoopbackTransport()
    if backend == "sim":
        network = Network(HmacDrbg(b"opaque-errors"))
        for node in ("cli://x", "svc://a"):
            network.add_node(node)
        network.connect("cli://x", "svc://a", LinkClass.WIRED_LAN)
        return SimTransport(network)
    return AsyncTransport()


def _close(net) -> None:
    if isinstance(net, AsyncTransport):
        net.close()


def _leak(*_args):
    raise ValueError(SECRET)


class _LeakyEndpoint(Endpoint):
    """A dispatch endpoint whose one handler has a bug."""

    def __init__(self) -> None:
        super().__init__()
        self._ops[b"leak"] = _leak


class _RaisingEndpoint:
    """No catch-all of its own: the carrier's server loop answers."""

    def attach(self, transport) -> None:
        pass

    def handle_frame(self, frame: bytes) -> bytes:
        raise ValueError(SECRET)


def _reply(backend: str, endpoint, frame: bytes) -> bytes:
    net = _make(backend)
    try:
        net.bind("svc://a", endpoint)
        return net.request("cli://x", "svc://a", frame, label="leak")
    finally:
        _close(net)


def _assert_opaque(response: bytes) -> None:
    assert SECRET.encode() not in response
    with pytest.raises(TransportError, match="internal server error"):
        wire.parse_response(response)


@pytest.mark.parametrize("backend", BACKENDS)
def test_dispatch_endpoint_hides_builtin_text(backend):
    _assert_opaque(_reply(backend, _LeakyEndpoint(),
                          wire.make_frame(b"leak")))


@pytest.mark.parametrize("backend", BACKENDS)
def test_router_hides_builtin_text(backend):
    router = RouterEndpoint("svc://a", ["svc://shard"])
    router._routes[wire.OP_SEARCH] = _leak
    _assert_opaque(_reply(backend, router, wire.make_frame(wire.OP_SEARCH)))


@pytest.mark.parametrize("backend", ["async"])
def test_server_loop_hides_builtin_text(backend):
    _assert_opaque(_reply(backend, _RaisingEndpoint(),
                          wire.make_frame(b"any")))

