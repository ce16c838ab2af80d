"""Malformed peer bytes come back as typed errors, never builtin ones.

Each frame here is well-formed except for one field that fails to
parse: a broadcast blob whose revoked-leaf list is not UTF-8 or not a
list of integers, or an MHI role identity that is not UTF-8.  The
S-server endpoint must answer with a :class:`ReproError` subclass; a
builtin ``UnicodeDecodeError`` / ``ValueError``, and its text, must
never reach the wire.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import exceptions
from repro.core import wire
from repro.core.protocols.messages import pack_fields, seal, unpack_fields
from repro.core.protocols.storage import private_phi_storage
from repro.crypto.modes import AuthenticatedCipher
from repro.crypto.rng import HmacDrbg
from repro.ehr.records import Category
from repro.net.transport import LoopbackTransport

BAD_BROADCASTS = {
    "non-utf8": pack_fields(b"\xff\xfe", b"\x00" * 8 + b"cover-body"),
    "non-integer": pack_fields(b"1,x", b"\x00" * 8 + b"cover-body"),
}
BAD_ROLE = b"\xff\xfe-role"


def _stored(system):
    patient, server = system.patient, system.sserver
    patient.add_record(Category.ALLERGIES, ["allergies"],
                       "Severe penicillin allergy.", server.address)
    transport = LoopbackTransport()
    private_phi_storage(patient, server, transport)
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(server.identity_key.public, pseudonym)
    endpoint = transport.endpoint_at(server.address)
    return endpoint, transport, pseudonym.public.to_bytes(), nu


def _assert_typed(response: bytes) -> None:
    """The response is an error naming a ReproError subclass."""
    assert response[0] != wire.ok_response()[0]
    name, message = unpack_fields(response[1:], expected=2)
    cls = getattr(exceptions, name.decode(), None)
    assert isinstance(cls, type) and issubclass(cls, exceptions.ReproError), \
        name
    assert b"codec" not in message and b"invalid literal" not in message


@pytest.mark.parametrize("blob", sorted(BAD_BROADCASTS))
def test_group_update_with_malformed_broadcast(system, blob):
    endpoint, transport, pseud_b, nu = _stored(system)
    server = system.sserver
    cid = system.patient.collection_ids[server.address]
    plaintext = pack_fields(b"d" * 32, BAD_BROADCASTS[blob])
    payload = AuthenticatedCipher(nu).encrypt(plaintext, HmacDrbg(b"revoke"))
    envelope = seal(nu, "revoke", payload, transport.now)
    before = server._collections[cid]
    _assert_typed(endpoint.handle_frame(wire.make_frame(
        wire.OP_GROUP_UPDATE, pseud_b, cid, envelope.to_bytes())))
    assert server._collections[cid] is before


@pytest.mark.parametrize("blob", sorted(BAD_BROADCASTS))
def test_store_with_malformed_broadcast(system, blob):
    endpoint, transport, pseud_b, nu = _stored(system)
    server = system.sserver
    stored = server._collections[
        system.patient.collection_ids[server.address]]
    summary = pack_fields(pseud_b, stored.index.digest(),
                          wire.files_digest(stored.files))
    envelope = seal(nu, "phi-store", summary, transport.now)
    count = server.collection_count()
    _assert_typed(endpoint.handle_frame(wire.make_frame(
        wire.OP_STORE, pseud_b, envelope.to_bytes(), stored.index.to_bytes(),
        wire.encode_files(stored.files), stored.group_secret_d,
        BAD_BROADCASTS[blob])))
    assert server.collection_count() == count


def test_mhi_store_with_non_utf8_role(system):
    endpoint, transport, pseud_b, nu = _stored(system)
    ct_b, tag_b = b"ciphertext", b"tag"
    summary = pack_fields(BAD_ROLE, hashlib.sha256(ct_b).digest(),
                          hashlib.sha256(tag_b).digest())
    envelope = seal(nu, "mhi-store", summary, transport.now)
    _assert_typed(endpoint.handle_frame(wire.make_frame(
        wire.OP_MHI_STORE, pseud_b, envelope.to_bytes(), BAD_ROLE, ct_b,
        tag_b)))
    assert system.sserver.mhi_count() == 0


def test_mhi_search_with_non_utf8_role(system):
    endpoint, transport, pseud_b, nu = _stored(system)
    envelope = seal(nu, "mhi-search", b"", transport.now)
    _assert_typed(endpoint.handle_frame(wire.make_frame(
        wire.OP_MHI_SEARCH, BAD_ROLE, envelope.to_bytes(), b"trapdoor",
        pseud_b)))
