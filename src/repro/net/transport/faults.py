"""Fault injection and retry policies for the transport boundary.

Two small policy objects, both injectable into any transport backend:

* :class:`FaultPolicy` — a deterministic chaos monkey.  Installed with
  ``transport.install_faults(policy)``, it is consulted once per frame
  attempt and may drop, delay, duplicate, corrupt, or truncate the
  frame, or declare the destination partitioned / crashed.  All draws
  come from one seeded :class:`random.Random`, so a seeded run replays
  the exact same fault schedule — simulation results stay reproducible.
* :class:`RetryPolicy` — the client-side recovery rule.  Installed with
  ``transport.set_retry_policy(policy)``, it bounds delivery attempts
  with capped exponential backoff and a per-attempt timeout, retrying
  only on :class:`~repro.exceptions.TransientTransportError` (a typed
  error is an answer; a lost frame is not).

The protocol layer never sees either object: retries happen below the
frame boundary, re-presenting the *same* bytes, which is exactly what
the receiver-side :class:`~repro.core.protocols.messages.ReplayGuard`s
are specified to absorb.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from repro.exceptions import ParameterError

__all__ = ["FaultPlan", "FaultPolicy", "RetryPolicy", "parse_fault_spec"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with capped exponential backoff.

    ``max_attempts`` counts total deliveries (1 = no retry).  Attempt
    ``k`` (k ≥ 2) waits ``min(max_backoff_s, base_backoff_s·2^(k-2))``
    before resending; every attempt is given ``attempt_timeout_s`` to
    produce a response; the whole delivery aborts once ``deadline_s``
    of transport time has elapsed — so a partitioned peer yields a
    typed error within a known bound, never a hang.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    attempt_timeout_s: float = 5.0
    deadline_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError("max_attempts must be at least 1")
        for name in ("base_backoff_s", "max_backoff_s",
                     "attempt_timeout_s", "deadline_s"):
            if getattr(self, name) < 0:
                raise ParameterError("%s cannot be negative" % name)

    def backoff_s(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (1-based)."""
        if retry_index < 1:
            raise ParameterError("retry_index is 1-based")
        return min(self.max_backoff_s,
                   self.base_backoff_s * (2 ** (retry_index - 1)))


@dataclass(frozen=True)
class FaultPlan:
    """What one frame attempt suffers (already-mutated frame included)."""

    frame: bytes
    drop: bool = False
    duplicate: bool = False
    corrupted: bool = False
    truncated: bool = False
    delay_s: float = 0.0
    partitioned: bool = False
    refused: bool = False

    @property
    def deliverable(self) -> bool:
        return not (self.drop or self.partitioned or self.refused)


class FaultPolicy:
    """Seeded, per-frame fault injection shared by all backends.

    Rates are independent per-frame probabilities.  Partitions and
    crashes are explicit endpoint states: a partitioned address eats
    frames silently (the sender burns its per-attempt timeout); a
    crashed address refuses immediately (connection-refused style)
    until :meth:`restart`.

    ``counts`` tallies every decision; ``duplicate_replies`` captures
    the response each *duplicate* delivery earned, so tests can prove
    the receiver's replay defence fired below the protocol layer.
    """

    def __init__(self, seed: int = 0, drop_rate: float = 0.0,
                 duplicate_rate: float = 0.0, corrupt_rate: float = 0.0,
                 truncate_rate: float = 0.0, delay_rate: float = 0.0,
                 delay_s: float = 0.02) -> None:
        for name, rate in (("drop_rate", drop_rate),
                           ("duplicate_rate", duplicate_rate),
                           ("corrupt_rate", corrupt_rate),
                           ("truncate_rate", truncate_rate),
                           ("delay_rate", delay_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ParameterError("%s must be in [0, 1]" % name)
        if delay_s < 0:
            raise ParameterError("delay_s cannot be negative")
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.corrupt_rate = corrupt_rate
        self.truncate_rate = truncate_rate
        self.delay_rate = delay_rate
        self.delay_s = delay_s
        self._rng = random.Random(seed)
        self._partitioned: set[str] = set()
        self._crashed: set[str] = set()
        self.counts: Counter[str] = Counter()
        self.duplicate_replies: list[tuple[str, bytes]] = []
        # Durable-endpoint recovery hooks: address -> (on_crash, on_restart).
        # on_crash(during_write: bool) discards the in-memory endpoint
        # (and, for during_write, arms a torn journal append first);
        # on_restart() reconstructs the endpoint from disk.
        self._recovery: dict[str, tuple] = {}
        # Crashed addresses that auto-restart after N more refusals.
        self._restart_after: dict[str, int] = {}

    # -- endpoint state -----------------------------------------------------
    def partition(self, address: str) -> None:
        """Frames to/from ``address`` vanish until :meth:`heal`."""
        self._partitioned.add(address)

    def heal(self, address: str) -> None:
        self._partitioned.discard(address)

    def is_partitioned(self, address: str) -> bool:
        return address in self._partitioned

    def register_recovery(self, address: str, on_crash, on_restart) -> None:
        """Wire a durable endpoint's crash/restart lifecycle to this policy.

        With hooks registered, :meth:`crash` genuinely discards the
        endpoint's in-memory state and :meth:`restart` reconstructs it
        from its journal + snapshots — without hooks, crash/restart only
        toggles liveness (the pre-durability behaviour).
        """
        self._recovery[address] = (on_crash, on_restart)

    def crash(self, address: str, during_write: bool = False,
              restart_after: int | None = None) -> None:
        """``address`` refuses connections until :meth:`restart`.

        ``during_write=True`` (requires a registered durable endpoint)
        arms a torn journal append: the *next* mutation the endpoint
        tries to commit reaches disk only partially, and the crash fires
        at that moment — exercising the torn-tail recovery path.
        ``restart_after=N`` auto-restarts the endpoint after N further
        refused delivery attempts, so a retrying client can crash and
        revive a server mid-protocol without test choreography.
        """
        if restart_after is not None:
            if restart_after < 1:
                raise ParameterError("restart_after must be >= 1")
            self._restart_after[address] = restart_after
        hooks = self._recovery.get(address)
        if during_write:
            if hooks is None:
                raise ParameterError(
                    "crash(during_write=True) needs a durable endpoint "
                    "registered for %r" % address)
            hooks[0](True)  # arms the tear; endpoint calls mark_crashed
            return
        self._crashed.add(address)
        if hooks is not None:
            hooks[0](False)

    def mark_crashed(self, address: str) -> None:
        """Liveness toggle only — used by a durable endpoint whose armed
        torn write just fired (the state discard already happened)."""
        self._crashed.add(address)

    def restart(self, address: str) -> None:
        self._crashed.discard(address)
        self._restart_after.pop(address, None)
        hooks = self._recovery.get(address)
        if hooks is not None:
            hooks[1]()
        self.counts["restarted"] += 1

    def is_crashed(self, address: str) -> bool:
        return address in self._crashed

    # -- per-attempt decision ----------------------------------------------
    def plan(self, src: str, dst: str, label: str, frame: bytes) -> FaultPlan:
        """Decide the fate of one frame attempt (one policy consult)."""
        if dst in self._crashed or src in self._crashed:
            self.counts["refused"] += 1
            crashed = dst if dst in self._crashed else src
            remaining = self._restart_after.get(crashed)
            if remaining is not None:
                if remaining <= 1:
                    # This attempt still fails (the server is only just
                    # coming back up); the client's next retry lands.
                    self.restart(crashed)
                else:
                    self._restart_after[crashed] = remaining - 1
            return FaultPlan(frame=frame, refused=True)
        if dst in self._partitioned or src in self._partitioned:
            self.counts["partitioned"] += 1
            return FaultPlan(frame=frame, partitioned=True)
        # Always burn the same number of draws per consult so the fault
        # schedule for frame N does not depend on which rates are zero.
        draws = [self._rng.random() for _ in range(5)]
        drop = draws[0] < self.drop_rate
        duplicate = draws[1] < self.duplicate_rate
        corrupt = draws[2] < self.corrupt_rate
        truncate = draws[3] < self.truncate_rate
        delay = draws[4] < self.delay_rate
        if drop:
            self.counts["dropped"] += 1
            return FaultPlan(frame=frame, drop=True)
        mutated = frame
        if corrupt and frame:
            position = self._rng.randrange(len(frame))
            flip = self._rng.randrange(1, 256)
            mutated = (frame[:position]
                       + bytes([frame[position] ^ flip])
                       + frame[position + 1:])
            self.counts["corrupted"] += 1
        if truncate and mutated:
            cut = self._rng.randrange(len(mutated))
            mutated = mutated[:cut]
            self.counts["truncated"] += 1
        if duplicate:
            self.counts["duplicated"] += 1
        if delay:
            self.counts["delayed"] += 1
        self.counts["carried"] += 1
        return FaultPlan(frame=mutated, duplicate=duplicate,
                         corrupted=corrupt, truncated=truncate,
                         delay_s=self.delay_s if delay else 0.0)

    def note_duplicate_reply(self, label: str, response: bytes) -> None:
        """Record what the receiver answered to a duplicate delivery."""
        self.duplicate_replies.append((label, response))


_SPEC_KEYS = {
    "drop": ("drop_rate", float),
    "dup": ("duplicate_rate", float),
    "corrupt": ("corrupt_rate", float),
    "trunc": ("truncate_rate", float),
    "delay": ("delay_rate", float),
    "delay_s": ("delay_s", float),
    "seed": ("seed", int),
}


def parse_fault_spec(spec: str) -> FaultPolicy:
    """Build a :class:`FaultPolicy` from a CLI spec string.

    Example: ``"drop=0.05,dup=0.02,seed=7"``.  Keys: drop, dup,
    corrupt, trunc, delay, delay_s, seed.
    """
    kwargs: dict[str, float | int] = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, sep, value = part.partition("=")
        if not sep or key not in _SPEC_KEYS:
            raise ParameterError(
                "bad fault spec %r (keys: %s)"
                % (part, ", ".join(sorted(_SPEC_KEYS))))
        name, cast = _SPEC_KEYS[key]
        try:
            kwargs[name] = cast(value)
        except ValueError as exc:
            raise ParameterError("bad fault value %r: %s"
                                 % (part, exc)) from None
    return FaultPolicy(**kwargs)
