"""Append-only write-ahead journal with CRC framing and torn-tail repair.

Record layout (little-endian)::

    +----+----+----+----+----+----+----+----+----+----+-- ... --+
    | magic "JR"        | length (u32)      | crc32 (u32)       |
    +----+----+----+----+----+----+----+----+----+----+-- ... --+
    | body: pack_fields(kind, ts_ms as u64-be, payload)         |
    +-----------------------------------------------------------+

``length`` is the body length; ``crc32`` covers ``length || body`` so a
bit flip in the length field is caught even when the (mis-read) body
happens to checksum correctly.  The journal distinguishes two failure
modes, and the distinction is load-bearing for HCPP's evidence story:

* **Torn tail** — the *final* record is incomplete (the process died
  mid-``write``).  Crash consistency allows exactly this; repair
  truncates the partial record, losing only the mutation that was never
  acknowledged.
* **Corruption** — a non-tail record fails its CRC, carries the wrong
  magic, or declares an absurd length.  That is bit rot or tampering in
  *committed* evidence and is never silently repaired: readers raise
  :class:`~repro.exceptions.JournalCorruptionError`.

The residual ambiguity (a flipped bit in the *final* record's length
field that makes it overshoot EOF is indistinguishable from a torn
write) is inherent to any length-prefixed format without a trailing
commit marker; we bound it with the per-record magic and a length
sanity cap, and document it in docs/architecture.md.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

from repro.exceptions import JournalCorruptionError, ParameterError

MAGIC = b"JR"
_HEADER = struct.Struct("<2sII")  # magic, body length, crc32(length || body)
HEADER_SIZE = _HEADER.size

#: Records larger than this are rejected at append time and treated as
#: corruption at read time: no legitimate HCPP mutation approaches it,
#: and the cap stops a flipped length bit from swallowing the rest of
#: the file as one giant "record".
MAX_BODY_SIZE = 64 * 1024 * 1024

# Record kinds used by the durable layer (single bytes keep frames small).
K_FRAME = b"F"     # a mutating wire frame, replayed through the real handler
K_GUARD = b"G"     # a ReplayGuard high-water entry (tag, ts) for read ops
K_RD = b"R"        # a P-device RD record minted client-side
K_KEY = b"K"       # a P-device pre-shared key μ (the device's own keystore)
K_ROSTER = b"D"    # an A-server duty-roster change (sign-in / sign-out)
K_SNAP = b"S"      # snapshot marker: recovery may start from this snapshot
K_META = b"M"      # endpoint identity written at journal creation


def _crc(length: int, body: bytes) -> int:
    return zlib.crc32(struct.pack("<I", length) + body) & 0xFFFFFFFF


def _encode_body(kind: bytes, ts_ms: int, payload: bytes) -> bytes:
    # Inline framing (kind | u64 ts | payload) rather than pack_fields:
    # the journal sits below repro.core and must not import from it.
    if len(kind) != 1:
        raise ParameterError("journal record kind must be a single byte")
    if ts_ms < 0 or ts_ms >= 1 << 64:
        raise ParameterError("journal timestamp out of range")
    return kind + struct.pack(">Q", ts_ms) + payload


def _decode_body(body: bytes) -> "JournalRecord":
    if len(body) < 9:
        raise JournalCorruptionError("journal record body too short to frame")
    kind = body[:1]
    (ts_ms,) = struct.unpack(">Q", body[1:9])
    return JournalRecord(kind=kind, ts_ms=ts_ms, payload=body[9:])


@dataclass(frozen=True)
class JournalRecord:
    """One decoded journal entry."""

    kind: bytes
    ts_ms: int
    payload: bytes


class JournalWriter:
    """Appends framed records to a journal file.

    Every append is fsynced before it returns, so an acknowledged
    mutation survives power loss: the durable endpoints append before
    answering a wire frame.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._torn_cut: Optional[int] = None
        self._file = open(path, "ab")
        self.appended = 0

    @property
    def path(self) -> str:
        return self._path

    def arm_torn_write(self, cut_bytes: int) -> None:
        """Make the *next* append write only its first ``cut_bytes`` bytes.

        Test/chaos hook simulating a crash mid-``write(2)``: the record's
        prefix reaches the disk, the rest never does.  The writer is left
        unusable afterwards (as a crashed process would be).
        """
        if cut_bytes < 0:
            raise ParameterError("cut_bytes must be >= 0")
        self._torn_cut = cut_bytes

    def append(self, kind: bytes, payload: bytes, ts_ms: int = 0) -> int:
        """Append one record; returns the file offset it was written at."""
        body = _encode_body(kind, ts_ms, payload)
        if len(body) > MAX_BODY_SIZE:
            raise ParameterError(
                "journal record body of %d bytes exceeds the %d byte cap"
                % (len(body), MAX_BODY_SIZE))
        frame = _HEADER.pack(MAGIC, len(body), _crc(len(body), body)) + body
        offset = self._file.tell()
        if self._torn_cut is not None:
            cut = min(self._torn_cut, len(frame))
            self._file.write(frame[:cut])
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            raise JournalCorruptionError(
                "simulated torn write: %d of %d bytes reached disk"
                % (cut, len(frame)))
        self._file.write(frame)
        self.appended += 1
        self.sync()
        return offset

    def sync(self) -> None:
        """Flush buffered records and fsync them to stable storage."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        if not self._file.closed:
            self.sync()
            self._file.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class JournalReader:
    """Streams records out of a journal file, classifying damage.

    A record is *torn* when the file ends before the record does — an
    incomplete header, or a complete header whose body extends past EOF.
    Anything else that fails validation (bad magic, bad CRC, oversize
    length with enough file left to have held a real record) is
    corruption.  Because a header is only trusted after its CRC check,
    a non-final record can never be misread as torn: its full frame is
    on disk, so either it validates or it is corrupt.
    """

    def __init__(self, path: str) -> None:
        self._path = path

    def scan(self) -> Iterator[tuple]:
        """Yield ``(offset, record)`` pairs; raise on non-tail damage.

        Sets :attr:`tail_offset` to the offset just past the last valid
        record and :attr:`torn` to True when a partial final record was
        detected (everything from ``tail_offset`` onward is the torn
        fragment).
        """
        self.tail_offset = 0
        self.torn = False
        with open(self._path, "rb") as fh:
            data = fh.read()
        size = len(data)
        pos = 0
        while pos < size:
            remaining = size - pos
            if remaining < HEADER_SIZE:
                # Partial header at EOF: torn tail.
                self.torn = True
                break
            magic, length, crc = _HEADER.unpack_from(data, pos)
            if magic != MAGIC:
                raise JournalCorruptionError(
                    "bad record magic %r at offset %d in %s"
                    % (magic, pos, self._path))
            body_start = pos + HEADER_SIZE
            if length > MAX_BODY_SIZE:
                # A length this absurd means the length field itself is
                # damaged.  If this is the final header on disk we cannot
                # distinguish it from a torn write of a (smaller) record,
                # so only a *non-final* occurrence is provably corrupt.
                if body_start + length <= size:
                    raise JournalCorruptionError(
                        "record at offset %d declares %d byte body "
                        "(cap is %d) in %s"
                        % (pos, length, MAX_BODY_SIZE, self._path))
                self.torn = True
                break
            if body_start + length > size:
                # Body extends past EOF: torn tail.
                self.torn = True
                break
            body = data[body_start:body_start + length]
            if _crc(length, body) != crc:
                raise JournalCorruptionError(
                    "CRC mismatch for record at offset %d in %s"
                    % (pos, self._path))
            record = _decode_body(body)
            pos = body_start + length
            self.tail_offset = pos
            yield (pos - HEADER_SIZE - length, record)
        if pos < size and not self.torn:  # pragma: no cover - defensive
            raise JournalCorruptionError(
                "unreachable trailing bytes at offset %d in %s"
                % (pos, self._path))


def read_journal(path: str, *, repair: bool = False,
                 on_torn: Optional[Callable[[int, int], None]] = None
                 ) -> List[JournalRecord]:
    """Read every valid record from ``path``.

    Missing file → empty list (a fresh endpoint has no history yet).
    A torn tail is tolerated; with ``repair=True`` the partial record is
    physically truncated away so subsequent appends extend a clean file.
    ``on_torn(tail_offset, file_size)`` is invoked when a torn tail is
    seen, letting callers log the number of bytes dropped.  Non-tail
    damage raises :class:`JournalCorruptionError` — committed evidence
    is never silently dropped.
    """
    if not os.path.exists(path):
        return []
    reader = JournalReader(path)
    records = [record for _, record in reader.scan()]
    if reader.torn:
        size = os.path.getsize(path)
        if on_torn is not None:
            on_torn(reader.tail_offset, size)
        if repair:
            with open(path, "r+b") as fh:
                fh.truncate(reader.tail_offset)
                fh.flush()
                os.fsync(fh.fileno())
    return records
