"""Pluggable transports carrying serialized protocol frames.

Protocol functions accept either a :class:`~repro.net.sim.Network` (the
historical signature) or any :class:`Transport`; :func:`as_transport`
adapts the former.  All three backends speak the same frame bytes, so a
protocol run is byte-for-byte identical whether dispatch happens by
function call, through the discrete-event simulator, or over real TCP
(between threads or OS processes) on pooled persistent connections.
"""

from repro.net.transport.base import FrameRecord, Transport
from repro.net.transport.faults import (FaultPlan, FaultPolicy, RetryPolicy,
                                        parse_fault_spec)
from repro.net.transport.loopback import LoopbackTransport
from repro.net.transport.simnet import SimTransport, as_transport
from repro.net.transport.tcpnet import AsyncTransport

__all__ = ["FrameRecord", "Transport", "AsyncTransport",
           "LoopbackTransport", "SimTransport", "as_transport",
           "FaultPlan", "FaultPolicy", "RetryPolicy", "parse_fault_spec"]
