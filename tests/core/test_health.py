"""Circuit-breaker and health-table unit tests (repro.core.health).

Everything runs on a fake injected clock: state transitions are a pure
function of recorded outcomes and clock reads, so each scenario is
exact — no sleeps, no wall-clock flakiness.
"""

from __future__ import annotations

import pytest

from repro.core.health import (FAILURE_THRESHOLD, MIN_SAMPLES,
                               STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN,
                               WINDOW, CircuitBreaker, HealthTable)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker(FakeClock())
        assert breaker.state == STATE_CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == STATE_CLOSED  # threshold is 3
        breaker.record_failure()
        assert breaker.state == STATE_OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(FakeClock())
        for _ in range(10):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()  # consecutive, not cumulative
        assert breaker.state == STATE_CLOSED

    def test_half_open_after_the_reset_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == STATE_OPEN
        # Strictly before the reset timeout the breaker stays open; at
        # the timeout it goes half-open.
        clock.t = 0.999
        assert breaker.state == STATE_OPEN
        clock.t = 1.0
        assert breaker.state == STATE_HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.t = 1.0
        assert breaker.allow()       # the probe slot
        assert not breaker.allow()   # concurrent caller refused
        breaker.record_success()
        assert breaker.state == STATE_CLOSED
        assert breaker.allow() and breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.t = 1.0
        assert breaker.allow()
        breaker.record_failure()     # the probe failed
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        # ...and the fresh timeout runs from the re-trip instant.
        clock.t = 1.5
        assert breaker.state == STATE_OPEN
        clock.t = 2.0
        assert breaker.state == STATE_HALF_OPEN


class TestHealthTable:
    def _table(self):
        return HealthTable(["s://a", "s://b"], FakeClock())

    def test_breakers_precreated_and_stable(self):
        table = self._table()
        assert table.breaker("s://a") is table.breaker("s://a")
        assert table.breaker("s://a") is not table.breaker("s://b")
        assert table.snapshot() == {"s://a": "closed", "s://b": "closed"}

    def test_snapshot_reflects_trips(self):
        table = self._table()
        for _ in range(FAILURE_THRESHOLD):
            table.breaker("s://b").record_failure()
        assert table.snapshot() == {"s://a": "closed", "s://b": "open"}

    def test_hedge_budget_needs_min_samples(self):
        table = self._table()
        for _ in range(MIN_SAMPLES - 1):
            table.observe_latency(0.01)
        assert table.hedge_budget_s() is None
        table.observe_latency(0.01)
        assert table.hedge_budget_s() == pytest.approx(0.01)

    def test_hedge_budget_is_the_p99(self):
        table = self._table()
        for i in range(100):
            table.observe_latency(0.001 * (i + 1))
        # p99 over [0.001 .. 0.100] = index int(0.99*99) = 98 → 0.099.
        assert table.hedge_budget_s() == pytest.approx(0.099)

    def test_latency_window_is_bounded(self):
        table = self._table()
        for _ in range(100):
            table.observe_latency(5.0)
        for _ in range(WINDOW):
            table.observe_latency(0.01)
        # Old outliers aged out of the bounded window entirely.
        assert table.hedge_budget_s() == pytest.approx(0.01)
