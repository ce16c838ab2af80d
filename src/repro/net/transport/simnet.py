"""Transport over the discrete-event :class:`~repro.net.sim.Network`.

Every carried frame pays the simulator's link delays, loss retries, and
node up/down state, and lands in ``network.log`` — so the E4/E8
communication-cost experiments keep reading the exact accounting they
always did, now fed by real serialized frames.  The transmit happens
*before* dispatch: a down server rejects the bytes without ever seeing
the request, matching how the failure-injection suite reasons about
partial state.
"""

from __future__ import annotations

import weakref

from repro.net.sim import Network
from repro.net.transport.base import Transport
from repro.exceptions import (LinkDownError, NetworkError,
                              NodeUnreachableError, ParameterError,
                              TransientTransportError)

_SIM_TRANSPORTS: "weakref.WeakKeyDictionary[Network, SimTransport]" = \
    weakref.WeakKeyDictionary()


def as_transport(net) -> Transport:
    """Adapt a protocol-layer ``network`` argument to a :class:`Transport`.

    Accepts a transport (returned as-is) or a :class:`Network` (wrapped in
    a per-network cached :class:`SimTransport`, so repeated protocol calls
    against one simulation share endpoint bindings and dispatch state).
    """
    if isinstance(net, Transport):
        return net
    if isinstance(net, Network):
        transport = _SIM_TRANSPORTS.get(net)
        if transport is None:
            transport = SimTransport(net)
            _SIM_TRANSPORTS[net] = transport
        return transport
    raise ParameterError("expected a Network or Transport, got %r"
                         % type(net).__name__)


class SimTransport(Transport):
    """Frames over the simulated network, endpoints dispatched in-process."""

    def __init__(self, network: Network) -> None:
        super().__init__()
        self.network = network

    # -- clock + accounting -------------------------------------------------
    @property
    def now(self) -> float:
        return self.network.clock.now

    def mark(self) -> int:
        return self.network.mark()

    def records_since(self, mark: int) -> list:
        return self.network.log[mark:]

    def _wait(self, seconds: float) -> None:
        if seconds > 0:
            self.network.clock.advance(seconds)

    # -- carrying frames ----------------------------------------------------
    def _transmit(self, src: str, dst: str, nbytes: int, label: str) -> None:
        try:
            self.network.transmit(src, dst, nbytes, label=label)
        except (LinkDownError, NodeUnreachableError):
            raise  # topology facts, not transient weather
        except NetworkError as exc:
            # The simulator's own lossy-link give-up: retryable.
            raise TransientTransportError(str(exc)) from exc

    def _carry_frame(self, src: str, dst: str, frame: bytes, label: str,
                     reply_label: str, bill_reply: bool) -> bytes:
        self._transmit(src, dst, len(frame), label)
        response = self._dispatch(dst, frame)
        if bill_reply:
            self._transmit(dst, src, len(response), reply_label)
        return response

    def deliver(self, src: str, dst: str, nbytes: int, label: str) -> None:
        self._transmit(src, dst, nbytes, label)

    # -- onion routing (§VI.B; simulator-only) ------------------------------
    def request_via_onion(self, onion, src: str, dst: str, frame: bytes,
                          rng, label: str, reply_label: str,
                          hops: int = 3) -> tuple[bytes, str]:
        """A request/reply round through a fresh onion circuit.

        The request frame travels layered through ``hops`` relays, so the
        destination observes only the exit relay; the reply returns via
        that relay.  Returns ``(response_frame, exit_relay)``.
        """
        circuit = onion.build_circuit(rng, hops=hops)
        delivery = onion.route(src, circuit, dst, frame, rng, label=label)
        response = self._dispatch(dst, delivery.payload)
        exit_relay = delivery.observed_source
        self.network.transmit(dst, exit_relay, len(response),
                              label=reply_label)
        self.network.transmit(exit_relay, src, len(response),
                              label=reply_label + "-relay")
        return response, exit_relay
