"""Durable state: crash-consistent storage for HCPP endpoints.

HCPP's accountability story (§V of the paper) only holds if the signed
evidence — the A-server's TR traces and the P-device's RD records —
*survives failures*; in-memory state that evaporates on a crash is not
evidence.  This package provides the durability substrate:

* :mod:`repro.store.journal` — a CRC32-framed, length-prefixed
  append-only journal fsynced on every append, torn-tail repair, and typed
  corruption detection (:class:`~repro.exceptions.JournalCorruptionError`);
* :mod:`repro.store.snapshot` — periodic atomic state snapshots
  (write-to-temp + rename), referenced from the journal so recovery is
  *load snapshot, replay suffix*;
* :mod:`repro.store.durable` — ``Durable*`` wrappers over the dispatch
  endpoints that journal mutations at the wire-frame boundary, so all
  six protocols gain durability without per-protocol changes.
"""

from repro.store.journal import (JournalReader, JournalRecord, JournalWriter,
                                 read_journal)
from repro.store.snapshot import (list_snapshot_ids, read_snapshot,
                                  snapshot_path, write_snapshot)
from repro.store.durable import (DurableAServerEndpoint, DurableEndpoint,
                                 DurablePDeviceEndpoint,
                                 DurableSServerEndpoint, DurableStore,
                                 bind_durable_aserver, bind_durable_pdevice,
                                 bind_durable_sserver)

__all__ = [
    "JournalReader", "JournalRecord", "JournalWriter", "read_journal",
    "list_snapshot_ids", "read_snapshot", "snapshot_path", "write_snapshot",
    "DurableStore", "DurableEndpoint", "DurableSServerEndpoint",
    "DurableAServerEndpoint", "DurablePDeviceEndpoint",
    "bind_durable_sserver", "bind_durable_aserver", "bind_durable_pdevice",
]
