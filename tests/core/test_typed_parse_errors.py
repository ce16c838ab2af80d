"""Malformed peer bytes come back as typed errors, never builtin ones.

Each frame here is well-formed except for one field that fails to
parse: a broadcast blob whose revoked-leaf list is not UTF-8 or not a
list of integers, or a peer-sent string (envelope label, role identity,
physician id, identity tuple, P-device address) that is not UTF-8.  The
endpoint must answer with a :class:`ReproError` subclass; a
builtin ``UnicodeDecodeError`` / ``ValueError``, and its text, must
never reach the wire.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import exceptions
from repro.core import dispatch, wire
from repro.core.protocols.messages import pack_fields, seal, unpack_fields
from repro.core.protocols.storage import private_phi_storage
from repro.crypto.ibe import encrypt_to_point
from repro.crypto.modes import AuthenticatedCipher
from repro.crypto.rng import HmacDrbg
from repro.ehr.records import Category
from repro.net.transport import LoopbackTransport

BAD_BROADCASTS = {
    "non-utf8": pack_fields(b"\xff\xfe", b"\x00" * 8 + b"cover-body"),
    "non-integer": pack_fields(b"1,x", b"\x00" * 8 + b"cover-body"),
}
BAD_ROLE = b"\xff\xfe-role"
BAD_TEXT = b"\xff\xfe-text"


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


# -- non-UTF-8 peer strings at every decode site ------------------------------
#
# One case per site that turns peer bytes into text.  Each frame is valid
# up to the bad string, which is the first field parsed as text.

def _bad_envelope_label(system):
    endpoint = dispatch.SServerEndpoint(system.sserver)
    envelope = pack_fields(BAD_TEXT, b"payload", b"\x00" * 8, b"\x00" * 32)
    return endpoint, wire.make_frame(wire.OP_MHI_SEARCH, b"role", envelope,
                                     b"trapdoor", b"pkg-public")


def _xd_handshake(system):
    node = system.federal.create_hospital_node(system.state.name, "utf8")
    endpoint = dispatch.SServerEndpoint(
        system.sserver, hibc_node=node,
        root_public=system.federal.root_public)
    return endpoint, wire.make_frame(wire.OP_XD_HANDSHAKE, BAD_TEXT,
                                     b"ciphertext", b"signature")


def _register(system):
    endpoint = dispatch.AServerEndpoint(system.state)
    pseud_b = system.patient.fresh_pseudonym().public.to_bytes()
    return endpoint, wire.make_frame(wire.OP_REGISTER_PDEVICE, pseud_b,
                                     BAD_TEXT)


def _emergency_auth(system):
    endpoint = dispatch.AServerEndpoint(system.state)
    return endpoint, wire.make_frame(
        wire.OP_EMERGENCY_AUTH, BAD_TEXT, b"request",
        wire.ts_to_bytes(0.0), b"signature", b"pdevice")


def _role_key_pid(system):
    endpoint = dispatch.AServerEndpoint(system.state)
    return endpoint, wire.make_frame(wire.OP_ROLE_KEY, BAD_TEXT, b"role")


def _role_key_role(system):
    endpoint = dispatch.AServerEndpoint(system.state)
    pid = system.any_physician().physician_id.encode()
    return endpoint, wire.make_frame(wire.OP_ROLE_KEY, pid, BAD_TEXT)


def _passcode(privileged_system):
    pdevice = privileged_system.pdevice
    params = privileged_system.params
    plaintext = pack_fields(BAD_TEXT, b"nounce", wire.ts_to_bytes(0.0))
    ciphertext = encrypt_to_point(
        params, privileged_system.state.public_key,
        pdevice.package.pseudonym.public, plaintext, HmacDrbg(b"passcode"))
    endpoint = dispatch.EntityEndpoint(pdevice, params)
    return endpoint, wire.make_frame(wire.OP_PASSCODE, ciphertext.to_bytes(),
                                     b"signature", wire.ts_to_bytes(0.0))


DECODE_SITES = {
    "envelope-label": _bad_envelope_label,
    "xd-handshake-tuple": _xd_handshake,
    "register-address": _register,
    "emergency-auth-pid": _emergency_auth,
    "role-key-pid": _role_key_pid,
    "role-key-role": _role_key_role,
    "passcode-pid": _passcode,
}


@pytest.mark.parametrize("site", sorted(DECODE_SITES))
def test_non_utf8_peer_string(privileged_system, site):
    endpoint, frame = DECODE_SITES[site](privileged_system)
    response = endpoint.handle_frame(frame)
    _assert_typed(response)
    name, _ = unpack_fields(response[1:], expected=2)
    assert name == b"ParameterError"
