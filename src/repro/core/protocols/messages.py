"""Protocol message envelopes: timestamps, HMAC integrity, replay defence.

Every HCPP wire message has the shape

    sender → receiver :  fields, t_i, HMAC_key(fields ‖ t_i)

(paper §IV.B: *"t₁ is the current system time and is included to prevent
replay attack [26], HMAC_ν is a keyed-hash message authentication code for
ensuring message integrity"*).  :class:`Envelope` realizes that shape over
an opaque payload; :class:`ReplayGuard` is the receiver-side freshness
window (bounded clock skew + duplicate-suppression cache).

Payloads themselves are built with :func:`pack_fields` /
:func:`unpack_fields` — a minimal length-prefixed encoding, so message
sizes measured by the experiments reflect real serialized bytes.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass

from repro.crypto.hmac_impl import HMAC_OUTPUT_SIZE, hmac_sha256, verify_hmac
from repro.exceptions import IntegrityError, ParameterError, ReplayError

_TS_BYTES = 8
DEFAULT_MAX_SKEW_S = 60.0


def ts_ms(timestamp: float) -> int:
    """Canonical millisecond quantization for MACed/signed timestamps.

    Rounding (not truncation) makes the float→ms→float wire round trip
    exact: ``round(ms/1000*1000) == ms`` for any realistic clock value,
    so a receiver that re-derives the MAC/signature input from a decoded
    timestamp reproduces the sender's bytes bit-for-bit.
    """
    return int(round(timestamp * 1000))


def pack_fields(*fields: bytes) -> bytes:
    """Length-prefixed concatenation (unambiguous, order-preserving)."""
    out = bytearray()
    for field in fields:
        out += len(field).to_bytes(4, "big")
        out += field
    return bytes(out)


def unpack_fields(payload: bytes, expected: int | None = None) -> list[bytes]:
    """Inverse of :func:`pack_fields`; validates structure."""
    fields: list[bytes] = []
    offset = 0
    while offset < len(payload):
        if offset + 4 > len(payload):
            raise ParameterError("truncated field header")
        length = int.from_bytes(payload[offset:offset + 4], "big")
        offset += 4
        chunk = payload[offset:offset + length]
        if len(chunk) != length:
            raise ParameterError("truncated field body")
        fields.append(chunk)
        offset += length
    if expected is not None and len(fields) != expected:
        raise ParameterError("expected %d fields, got %d"
                             % (expected, len(fields)))
    return fields


def decode_utf8(raw: bytes, what: str) -> str:
    """A peer-sent text field; non-UTF-8 bytes are a typed error."""
    try:
        return raw.decode()
    except UnicodeDecodeError:
        raise ParameterError("%s is not UTF-8" % what) from None


@dataclass(frozen=True)
class Envelope:
    """payload ‖ t ‖ HMAC_key(payload ‖ t) — one HCPP wire message."""

    label: str          # which protocol step this envelope belongs to
    payload: bytes
    timestamp: float
    tag: bytes

    def size_bytes(self) -> int:
        """Serialized size: payload + timestamp + MAC (label is metadata)."""
        return len(self.payload) + _TS_BYTES + HMAC_OUTPUT_SIZE

    @staticmethod
    def _mac_input(label: str, payload: bytes, timestamp: float) -> bytes:
        # The label is length-prefixed and MACed: an envelope sealed for
        # one protocol step cannot be replayed as a different step inside
        # the skew window (the tag would not verify under the new label).
        encoded = label.encode()
        return (len(encoded).to_bytes(2, "big") + encoded + payload
                + ts_ms(timestamp).to_bytes(_TS_BYTES, "big"))

    def to_bytes(self) -> bytes:
        """Wire form: the frame field carrying one envelope."""
        return pack_fields(self.label.encode(), self.payload,
                           ts_ms(self.timestamp).to_bytes(_TS_BYTES, "big"),
                           self.tag)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Envelope":
        label, payload, ts, tag = unpack_fields(data, expected=4)
        return cls(label=decode_utf8(label, "envelope label"),
                   payload=payload,
                   timestamp=int.from_bytes(ts, "big") / 1000.0, tag=tag)


def seal(key: bytes, label: str, payload: bytes, now: float) -> Envelope:
    """Build an authenticated envelope stamped with the current time."""
    tag = hmac_sha256(key, Envelope._mac_input(label, payload, now))
    return Envelope(label=label, payload=payload, timestamp=now, tag=tag)


def open_envelope(key: bytes, envelope: Envelope, now: float,
                  guard: "ReplayGuard | None" = None,
                  max_skew_s: float = DEFAULT_MAX_SKEW_S,
                  expected_label: "str | tuple[str, ...] | None" = None
                  ) -> bytes:
    """Verify integrity + freshness; return the payload.

    Raises :class:`IntegrityError` on a bad MAC and :class:`ReplayError`
    on stale or duplicated timestamps.  When ``expected_label`` is given
    (one label or a tuple of acceptable ones), an envelope whose label is
    anything else is rejected before the MAC is even checked — a receiver
    states which protocol step it is serving.
    """
    if expected_label is not None:
        accepted = ((expected_label,) if isinstance(expected_label, str)
                    else expected_label)
        if envelope.label not in accepted:
            raise IntegrityError(
                "envelope label %r does not match expected %r"
                % (envelope.label, accepted))
    verify_hmac(key,
                Envelope._mac_input(envelope.label, envelope.payload,
                                    envelope.timestamp),
                envelope.tag)
    if abs(now - envelope.timestamp) > max_skew_s:
        raise ReplayError(
            "stale message %r: sent %.1f, now %.1f (skew limit %.0fs)"
            % (envelope.label, envelope.timestamp, now, max_skew_s))
    if guard is not None:
        guard.check_and_remember(envelope)
    return envelope.payload


class ReplayGuard:
    """Duplicate-suppression cache over (tag, timestamp) pairs.

    Remembers message tags inside the skew window; a second presentation
    of the same tag raises :class:`ReplayError`.  Entries older than the
    window are pruned lazily so memory stays bounded.

    Thread-safe: the TCP carrier serves frames from concurrent connection
    threads, so the check-then-insert must be atomic (two threads
    presenting the same tag concurrently must not both pass).
    """

    def __init__(self, window_s: float = DEFAULT_MAX_SKEW_S) -> None:
        self.window_s = window_s
        self._seen: dict[bytes, float] = {}
        self._lock = threading.Lock()
        #: Optional listener invoked as ``on_remember(tag, timestamp)``
        #: after a tag is newly committed to the window.  The durable
        #: layer uses it to journal the guard's high-water state so a
        #: crash-restart does not reopen the replay window.  Called
        #: outside the lock (listeners may do I/O).
        self.on_remember = None

    def check_and_remember(self, envelope: Envelope) -> None:
        with self._lock:
            self._prune(envelope.timestamp)
            if envelope.tag in self._seen:
                raise ReplayError("replayed message %r" % envelope.label)
            self._seen[envelope.tag] = envelope.timestamp
        if self.on_remember is not None:
            self.on_remember(envelope.tag, envelope.timestamp)

    def seen(self, tag: bytes) -> bool:
        """Probe without remembering — for receivers that must finish a
        side effect before committing the tag (check at entry, remember
        on success, so a failed handling stays retryable)."""
        with self._lock:
            return tag in self._seen

    def insert(self, tag: bytes, timestamp: float) -> None:
        """Idempotently seed a (tag, timestamp) pair — recovery path.

        Unlike :meth:`check_and_remember` this never raises and never
        notifies :attr:`on_remember`; it exists so crash recovery can
        reload journaled guard entries without re-journaling them.
        """
        with self._lock:
            self._prune(timestamp)
            self._seen.setdefault(tag, timestamp)

    def export_state(self) -> list[tuple[bytes, float]]:
        """Stable dump of the live window for snapshotting."""
        with self._lock:
            return sorted(self._seen.items())

    def load_state(self, entries: list[tuple[bytes, float]]) -> None:
        with self._lock:
            for tag, ts in entries:
                self._seen.setdefault(tag, ts)

    def _prune(self, now: float) -> None:
        # Caller holds self._lock.
        horizon = now - self.window_s
        stale = [tag for tag, ts in self._seen.items() if ts < horizon]
        for tag in stale:
            del self._seen[tag]

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)
