"""The MHI search is byte-identical whether its PEKS scan is pooled or not.

``StorageServer.handle_mhi_search`` tests one trapdoor against every
stored tag through ``MultiKeywordPeks.test_batch``, the one path the
crypto engine's worker pool serves.  The same deterministic deployment
is built twice — once with a 2-worker process default engine, once
serial — and the search reply bytes and the S-server's observation log
must match exactly.
"""

from __future__ import annotations

from repro.core import wire
from repro.core.protocols.messages import (Envelope, open_envelope, seal,
                                           unpack_fields)
from repro.core.protocols.mhi import mhi_store, role_identity_for
from repro.core.protocols.privilege import assign_privilege
from repro.core.protocols.storage import private_phi_storage
from repro.core.system import build_system
from repro.crypto import engine as engine_mod
from repro.crypto.nike import shared_key_from_points
from repro.crypto.peks import RolePeks
from repro.ehr.records import Category
from repro.net.transport import as_transport

WINDOWS = 8
ROLE = role_identity_for("2026-07-01")
#: One keyword inside some windows' 5-day horizon, one outside all.
KEYWORDS = ("2026-07-05", "2026-12-25")


def _search(workers: int) -> tuple[list[bytes], list, list[int]]:
    """Store WINDOWS MHI windows, then serve one search per keyword.

    Returns the reply frames, the observation log and the match count
    of each reply.
    """
    installed = engine_mod.configure(workers)
    try:
        system = build_system(seed=b"mhi-engine-parity")
        server, pdevice, state = system.sserver, system.pdevice, system.state
        system.patient.add_record(Category.ALLERGIES, ["allergies"],
                                  "Severe penicillin allergy.",
                                  server.address)
        private_phi_storage(system.patient, server, system.network)
        assign_privilege(system.patient, pdevice, server, system.network)
        for day in range(1, WINDOWS + 1):
            window = pdevice.vitals.generate_day("2026-07-%02d" % day)
            mhi_store(pdevice, server, state.public_key, system.network,
                      window, ROLE)
        assert server.mhi_count() == WINDOWS

        transport = as_transport(system.network)
        endpoint = transport.endpoint_at(server.address)
        role_key = state.enroll(ROLE)
        rho = shared_key_from_points(role_key.private,
                                     server.identity_key.public)
        replies, counts = [], []
        for keyword in KEYWORDS:
            trapdoor = RolePeks.trapdoor(role_key.private, system.params,
                                         keyword)
            request = seal(rho, "mhi-search",
                           ROLE.encode() + trapdoor.point.to_bytes(),
                           transport.now)
            reply = endpoint.handle_frame(wire.make_frame(
                wire.OP_MHI_SEARCH, ROLE.encode(), request.to_bytes(),
                trapdoor.to_bytes(), state.public_key.to_bytes()))
            payload = open_envelope(
                rho, Envelope.from_bytes(wire.parse_response(reply)),
                transport.now, expected_label="mhi-results")
            replies.append(reply)
            counts.append(len(unpack_fields(payload)))
        if installed is not None:
            # The scan really crossed the pool's batch threshold.
            assert installed._pool is not None  # noqa: SLF001
        return replies, list(server.observations), counts
    finally:
        engine_mod.configure(0)
        # Hand the rest of the suite back to the env-configured default.
        engine_mod._default_resolved = False  # noqa: SLF001


def test_pooled_mhi_search_matches_serial():
    pooled = _search(2)
    serial = _search(0)
    assert pooled == serial
    hits, misses = pooled[2]
    assert 0 < hits < WINDOWS and misses == 0
