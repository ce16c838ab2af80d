"""Per-shard health state for the federation router.

Two small, deterministic primitives the router composes into
health-gated routing (docs/architecture.md, "Shard lifecycle"):

* :class:`CircuitBreaker` — the classic closed/open/half-open state
  machine over *consecutive* failures.  Time never comes from the wall
  clock: the clock is injected (the router passes the transport's
  ``now``), so a simulated-time chaos run drives breaker transitions
  deterministically.
* :class:`HealthTable` — one breaker per shard address plus a bounded
  latency sample window, from which the router derives the p99 delay
  budget after which a slow scatter leg is *hedged* (re-sent to the
  same shard, first answer wins).

Like :mod:`repro.core.shard`, this module is importable from anywhere:
stdlib only (enforced by the hcpplint layering contract).
"""

from __future__ import annotations

import threading
from collections import deque

__all__ = ["CircuitBreaker", "HealthTable",
           "STATE_CLOSED", "STATE_OPEN", "STATE_HALF_OPEN",
           "FAILURE_THRESHOLD", "RESET_TIMEOUT_S", "WINDOW", "MIN_SAMPLES"]

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

#: Consecutive failures that trip a breaker open.
FAILURE_THRESHOLD = 3
#: Clock seconds an open breaker waits before admitting one probe.
RESET_TIMEOUT_S = 1.0
#: Scatter-leg latencies kept for the hedging budget.
WINDOW = 128
#: Latencies needed before the window's p99 is trusted.
MIN_SAMPLES = 20


class CircuitBreaker:
    """Consecutive-failure circuit breaker with an injected clock.

    * **closed** — requests flow; :data:`FAILURE_THRESHOLD` consecutive
      failures trip the breaker open.
    * **open** — :meth:`allow` refuses until :data:`RESET_TIMEOUT_S`
      has elapsed on the injected clock, then transitions to half-open.
    * **half-open** — exactly one probe is allowed through; its success
      closes the breaker, its failure re-opens it (with a fresh
      timeout).

    Thread-safe: the router's scatter pool consults one breaker from
    many worker threads.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        #: How many times this breaker has tripped open (diagnostics).
        self.trips = 0

    @property
    def state(self) -> str:
        """The current state, after applying any due open→half-open
        transition (so inspecting the state and calling :meth:`allow`
        agree on what the clock says)."""
        with self._lock:
            self._tick()
            return self._state

    def allow(self) -> bool:
        """May a request be sent to this shard right now?

        In half-open state the first caller takes the single probe
        slot; concurrent callers are refused until the probe's outcome
        is recorded.
        """
        with self._lock:
            self._tick()
            if self._state == STATE_CLOSED:
                return True
            if self._state == STATE_HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = STATE_CLOSED
            self._failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> None:
        with self._lock:
            self._tick()
            self._failures += 1
            if (self._state == STATE_HALF_OPEN
                    or self._failures >= FAILURE_THRESHOLD):
                self._trip()

    def _tick(self) -> None:
        # Caller holds self._lock.
        if (self._state == STATE_OPEN
                and self._clock() - self._opened_at >= RESET_TIMEOUT_S):
            self._state = STATE_HALF_OPEN
            self._probe_in_flight = False

    def _trip(self) -> None:
        # Caller holds self._lock.
        self.trips += 1
        self._state = STATE_OPEN
        self._opened_at = self._clock()
        self._probe_in_flight = False


class HealthTable:
    """Breakers plus latency accounting for a set of shard addresses.

    The latency window feeds the hedging delay budget: once at least
    :data:`MIN_SAMPLES` scatter legs have been observed, a leg still
    pending after the window's p99 is hedged.  Latency is diagnostic
    wall-time (hedging only runs on concurrent transports, where legs
    occupy real threads); breaker time is the injected clock.
    """

    def __init__(self, addresses, clock) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._samples: deque[float] = deque(maxlen=WINDOW)
        self.hedges_sent = 0
        self.hedges_won = 0
        for address in addresses:
            self.breaker(address)

    def breaker(self, address: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(address)
            if breaker is None:
                breaker = CircuitBreaker(self._clock)
                self._breakers[address] = breaker
            return breaker

    def observe_latency(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)

    def hedge_budget_s(self) -> "float | None":
        """The p99 of recent scatter-leg latencies, or None while the
        window is too thin to estimate a tail."""
        with self._lock:
            if len(self._samples) < MIN_SAMPLES:
                return None
            ordered = sorted(self._samples)
            return ordered[int(0.99 * (len(ordered) - 1))]

    def snapshot(self) -> "dict[str, str]":
        """Current breaker state per shard (diagnostics/CLI)."""
        with self._lock:
            breakers = dict(self._breakers)
        return {address: breaker.state
                for address, breaker in sorted(breakers.items())}
