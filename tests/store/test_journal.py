"""Journal framing edge cases: torn tails, corruption, snapshots.

The classification contract under test: an *incomplete final record* is
a torn tail (repairable — only the unacknowledged mutation is lost);
damage to any *committed* record is corruption and must raise, never be
silently dropped.
"""

from __future__ import annotations

import os

import pytest

from repro.exceptions import JournalCorruptionError, ParameterError
from repro.store import (JournalReader, JournalWriter, read_journal,
                         read_snapshot, snapshot_path, write_snapshot,
                         list_snapshot_ids)
from repro.store.journal import HEADER_SIZE, K_FRAME, K_META, K_SNAP, _crc


def _write(path, entries):
    with JournalWriter(path) as writer:
        for kind, payload in entries:
            writer.append(kind, payload, ts_ms=1234)


def _full_frame(kind: bytes, payload: bytes) -> bytes:
    """The exact on-disk bytes one append produces."""
    import struct
    body = kind + struct.pack(">Q", 1234) + payload
    return (struct.pack("<2sII", b"JR", len(body), _crc(len(body), body))
            + body)


class TestRoundTrip:
    def test_append_then_read(self, tmp_path):
        path = str(tmp_path / "a.journal")
        _write(path, [(K_META, b"name"), (K_FRAME, b"frame-1"),
                      (K_FRAME, b"frame-2")])
        records = read_journal(path)
        assert [(r.kind, r.payload) for r in records] == [
            (K_META, b"name"), (K_FRAME, b"frame-1"), (K_FRAME, b"frame-2")]
        assert all(r.ts_ms == 1234 for r in records)

    def test_missing_file_is_empty_history(self, tmp_path):
        assert read_journal(str(tmp_path / "nope.journal")) == []

    def test_empty_file_is_empty_history(self, tmp_path):
        path = str(tmp_path / "empty.journal")
        open(path, "wb").close()
        assert read_journal(path) == []

    def test_offsets_are_returned_and_monotonic(self, tmp_path):
        path = str(tmp_path / "o.journal")
        with JournalWriter(path) as writer:
            offsets = [writer.append(K_FRAME, b"x" * n) for n in range(5)]
        assert offsets == sorted(offsets) and offsets[0] == 0
        scanned = [offset for offset, _ in JournalReader(path).scan()]
        assert scanned == offsets

    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: synced.append(fd) or real_fsync(fd))
        path = str(tmp_path / "f.journal")
        with JournalWriter(path) as writer:
            for n in range(3):
                writer.append(K_FRAME, b"p")
                assert len(synced) == n + 1
        assert len(read_journal(path)) == 3

    def test_oversize_record_rejected_at_append(self, tmp_path):
        from repro.store.journal import MAX_BODY_SIZE
        with JournalWriter(str(tmp_path / "big.journal")) as writer:
            with pytest.raises(ParameterError, match="cap"):
                writer.append(K_FRAME, b"\x00" * MAX_BODY_SIZE)


class TestTornTail:
    """A torn final record is repaired by truncation; every committed
    record before it survives byte-for-byte."""

    @pytest.mark.parametrize("cut", list(range(1, len(_full_frame(
        K_FRAME, b"the-final-record")))))
    def test_torn_at_every_byte_offset_of_final_record(self, tmp_path, cut):
        path = str(tmp_path / "torn.journal")
        _write(path, [(K_META, b"name"), (K_FRAME, b"committed")])
        committed_size = os.path.getsize(path)
        final = _full_frame(K_FRAME, b"the-final-record")
        with open(path, "ab") as fh:
            fh.write(final[:cut])

        seen = []
        records = read_journal(path, repair=True,
                               on_torn=lambda tail, size:
                               seen.append((tail, size)))
        # Exactly the incomplete record is lost — nothing else.
        assert [(r.kind, r.payload) for r in records] == [
            (K_META, b"name"), (K_FRAME, b"committed")]
        assert seen == [(committed_size, committed_size + cut)]
        # Repair physically truncated the fragment.
        assert os.path.getsize(path) == committed_size
        # A later append extends a clean file.
        _write(path, [(K_FRAME, b"after-repair")])
        assert [r.payload for r in read_journal(path)] == [
            b"name", b"committed", b"after-repair"]

    def test_unrepai_read_leaves_fragment_in_place(self, tmp_path):
        path = str(tmp_path / "torn.journal")
        _write(path, [(K_FRAME, b"committed")])
        size = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(_full_frame(K_FRAME, b"partial")[:7])
        records = read_journal(path, repair=False)
        assert len(records) == 1
        assert os.path.getsize(path) == size + 7

    def test_double_recovery_is_idempotent(self, tmp_path):
        path = str(tmp_path / "torn.journal")
        _write(path, [(K_FRAME, b"committed")])
        with open(path, "ab") as fh:
            fh.write(_full_frame(K_FRAME, b"partial")[:11])
        first = read_journal(path, repair=True)
        second = read_journal(path, repair=True)
        assert first == second
        assert [r.payload for r in second] == [b"committed"]

    def test_armed_torn_write_tears_and_raises(self, tmp_path):
        path = str(tmp_path / "armed.journal")
        writer = JournalWriter(path)
        writer.append(K_FRAME, b"committed")
        writer.arm_torn_write(HEADER_SIZE + 3)
        with pytest.raises(JournalCorruptionError, match="torn write"):
            writer.append(K_FRAME, b"never-acknowledged")
        records = read_journal(path, repair=True)
        assert [r.payload for r in records] == [b"committed"]


class TestCorruption:
    """Damage to committed records is detected, never silently served."""

    def test_flipped_bit_in_non_tail_record_raises(self, tmp_path):
        path = str(tmp_path / "bitrot.journal")
        _write(path, [(K_FRAME, b"record-one"), (K_FRAME, b"record-two")])
        with open(path, "r+b") as fh:
            data = bytearray(fh.read())
            # Flip one bit inside the first record's payload.
            data[HEADER_SIZE + 9 + 2] ^= 0x10
            fh.seek(0)
            fh.write(data)
        with pytest.raises(JournalCorruptionError, match="CRC mismatch"):
            read_journal(path, repair=True)

    def test_flipped_bit_in_final_complete_record_raises(self, tmp_path):
        # The final record is *complete* (its full frame is on disk), so
        # a CRC failure there is corruption too — torn-tail leniency only
        # covers records the file ends in the middle of.
        path = str(tmp_path / "tailrot.journal")
        _write(path, [(K_FRAME, b"record-one"), (K_FRAME, b"record-two")])
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size - 2)
            byte = fh.read(1)
            fh.seek(size - 2)
            fh.write(bytes([byte[0] ^ 0x01]))
        with pytest.raises(JournalCorruptionError, match="CRC mismatch"):
            read_journal(path)

    def test_bad_magic_raises(self, tmp_path):
        path = str(tmp_path / "magic.journal")
        _write(path, [(K_FRAME, b"one"), (K_FRAME, b"two")])
        with open(path, "r+b") as fh:
            fh.write(b"XX")  # clobber the first record's magic
        with pytest.raises(JournalCorruptionError, match="bad record magic"):
            read_journal(path)

    def test_absurd_length_in_non_tail_record_raises(self, tmp_path):
        import struct
        path = str(tmp_path / "length.journal")
        # Handcraft: record with a length far past the cap, followed by
        # enough bytes that it cannot be a torn tail.
        from repro.store.journal import MAX_BODY_SIZE
        bogus = struct.pack("<2sII", b"JR", MAX_BODY_SIZE + 1, 0)
        with open(path, "wb") as fh:
            fh.write(bogus + b"\x00" * (MAX_BODY_SIZE + 1))
        with pytest.raises(JournalCorruptionError, match="cap"):
            read_journal(path)


class TestSnapshots:
    def test_round_trip(self, tmp_path):
        body = b"endpoint-state" * 100
        write_snapshot(str(tmp_path), "sserver", 3, body)
        assert read_snapshot(str(tmp_path), "sserver", 3) == body
        assert list_snapshot_ids(str(tmp_path), "sserver") == [3]

    def test_snapshot_only_journal(self, tmp_path):
        # A journal whose only content is a snapshot marker recovers to
        # exactly the snapshot state (empty replay suffix).
        path = str(tmp_path / "s.journal")
        write_snapshot(str(tmp_path), "s", 0, b"state")
        _write(path, [(K_SNAP, (0).to_bytes(4, "big"))])
        records = read_journal(path)
        assert [r.kind for r in records] == [K_SNAP]
        snapshot_id = int.from_bytes(records[0].payload, "big")
        assert read_snapshot(str(tmp_path), "s", snapshot_id) == b"state"

    def test_digest_mismatch_raises(self, tmp_path):
        write_snapshot(str(tmp_path), "x", 0, b"pristine-state")
        path = snapshot_path(str(tmp_path), "x", 0)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0x80]))
        with pytest.raises(JournalCorruptionError):
            read_snapshot(str(tmp_path), "x", 0)

    def test_truncated_snapshot_raises(self, tmp_path):
        write_snapshot(str(tmp_path), "x", 1, b"0123456789")
        path = snapshot_path(str(tmp_path), "x", 1)
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        with pytest.raises(JournalCorruptionError):
            read_snapshot(str(tmp_path), "x", 1)

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(JournalCorruptionError):
            read_snapshot(str(tmp_path), "ghost", 9)
