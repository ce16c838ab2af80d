"""Characterization of the S-server search handlers.

Every search handler runs a fixed scenario on the deterministic
``stored_system`` fixture.  The test pins three things per handler:

* the SHA-256 of the reply bytes (sealed envelope or raw shard chunks);
* the observation log the scenario leaves behind, as the ordered list of
  kinds plus a SHA-256 over every ``(kind, pseudonym, collection_id,
  detail)`` entry;
* the typed error on each failure path (``pytest.raises``): an unknown
  collection id, a replayed envelope, a stale-d wrapped trapdoor.

The pinned values were recorded from the per-handler implementations
that the shared search kernel replaced, so a drift in reply bytes,
observation logging or replay-guard consumption fails here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.protocols.messages import Envelope, pack_fields, seal
from repro.core.sserver import SearchRequest
from repro.exceptions import (AccessDenied, ReplayError, ReproError,
                              StorageError)
from repro.sse.multiuser import wrap_trapdoor

UNKNOWN_CID = b"\x00" * 16
SESSION_KEY = b"hibc-session-key".ljust(32, b"\x01")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reply_digest(reply) -> str:
    if isinstance(reply, Envelope):
        return _sha(reply.to_bytes())
    return _sha(pack_fields(*[pack_fields(*chunk) for chunk in reply]))


class _Scenario:
    """Sealing helpers over one stored system, plus an observation mark."""

    def __init__(self, system) -> None:
        self.system = system
        self.server = system.sserver
        self.patient = system.patient
        self.cid = self.patient.collection_ids[self.server.address]
        self.mark = len(self.server.observations)

    def pseudonym(self):
        """(public pseudonym, ν) for a fresh pseudonym."""
        pair = self.patient.fresh_pseudonym()
        nu = self.patient.session_key_with(self.server.identity_key.public,
                                           pair)
        return pair.public, nu

    def trapdoors(self, *keywords: str) -> bytes:
        return pack_fields(*[self.patient.trapdoor(kw).to_bytes()
                             for kw in keywords])

    def wrapped(self, *wraps: "tuple[bytes, str]") -> bytes:
        """θ_d-wrapped trapdoors, one ``(d, keyword)`` pair each."""
        return pack_fields(*[wrap_trapdoor(d, self.patient.trapdoor(kw)).data
                             for d, kw in wraps])

    def observed(self) -> dict:
        entries = self.server.observations[self.mark:]
        blob = pack_fields(*[pack_fields(o.kind.encode(), o.pseudonym,
                                         o.collection_id, o.detail)
                             for o in entries])
        return {"kinds": [o.kind for o in entries], "digest": _sha(blob)}


# Recorded from the per-handler implementations (see module docstring).
PINNED = {
    "search": {
        "reply": "8920d01e5a6d675523f55a35608f5778e9b56ace99162b9b12f16f5a7c2b5548",
        "observed": {"kinds": ["search"] * 2,
                     "digest": "8a105f0603f43a69d9a22a904c32713b310eecc03f44a585acb92992ccd7e8a6"}},
    "session": {
        "reply": "2ad2e31ef8ead0aa37b65b37e28465bf32889f3dc2c78c5eda2104ed9864dbdb",
        "observed": {"kinds": ["search"] * 2,
                     "digest": "4c8e70e1ba0d748a618687a6d5411cf022dac76115d985f2f6499b40e5d2421f"}},
    "batch": {
        "reply": "e4f8470c194d9e617d1ecb724563fa875de3d7d90b68c4f3e5369682be02f8e2",
        "observed": {"kinds": ["search"] * 4,
                     "digest": "b7b760674c817627abb38256b64898c149704e087ad4b175bd9ca1a02085cdba"}},
    "each": {
        "reply": "95ffd4e588f50ef079caddac39c5f4e3be1fa3a69dac7409dbe7433389a43bcf",
        "errors": [None, "ReplayError", "StorageError", None],
        "observed": {"kinds": ["search"] * 2,
                     "digest": "56c0cabac1d564e14b2981fe8059fec2dbd388a138aaff9d9874d33985adbf62"}},
    "shard": {
        "reply": "a3bb7b49193b3aa6d8ed9bee491ff68e3935fa172c40f147736380653fb0c5bb",
        "observed": {"kinds": ["search"] * 8,
                     "digest": "0982dba11798eb7e3f1e12d72c8728f161a7f9b63a35f68a9ad7aa5cf4483ec2"}},
    "merge": {
        "reply": "b380ebb2be96837e1d989b26285f8331c6552354de3870b67ba058bd9fa326af",
        "observed": {"kinds": ["search"] * 2,
                     "digest": "76493c9dc1bcaa16603ad1759efdca8070807ec0f5bb6cee15e5fc853098069e"}},
    "multi": {
        "reply": "df6ea9d6bf65ed883e541800e3eb8bcc54dfc405c933572e7becc375e56b58a3",
        "observed": {"kinds": ["search"] * 4,
                     "digest": "bd73336550eaa28b9359c307263a74bb13ae4b69f1b0588bec7afcf2b930dbb2"}},
    "wrapped": {
        "reply": "d9015d36c9f1651521ab2da6ce6e1b6f94846a5be2dc8cfad53332f066f5b0a9",
        "observed": {"kinds": ["search-wrapped"] * 3,
                     "digest": "874a8049d23fed4c0bc81ddc384cb70d484c4e978a204af1a1ad3922ca3e3170"}},
}


def _search(s: _Scenario) -> dict:
    public, nu = s.pseudonym()
    envelope = seal(nu, "phi-retrieve", s.trapdoors("allergies", "warfarin"),
                    1000.0)
    reply = s.server.handle_search(public, s.cid, envelope, 1000.0)
    with pytest.raises(ReplayError):
        s.server.handle_search(public, s.cid, envelope, 1000.0)
    # The envelope opens (and is consumed) before the collection lookup.
    fresh = seal(nu, "phi-retrieve", s.trapdoors("allergies"), 1001.0)
    with pytest.raises(StorageError):
        s.server.handle_search(public, UNKNOWN_CID, fresh, 1001.0)
    with pytest.raises(ReplayError):
        s.server.handle_search(public, s.cid, fresh, 1001.0)
    return {"reply": _reply_digest(reply), "observed": s.observed()}


def _session(s: _Scenario) -> dict:
    envelope = seal(SESSION_KEY, "crossdomain/retrieve",
                    s.trapdoors("cardiology", "warfarin"), 1100.0)
    reply = s.server.handle_search_session(SESSION_KEY, s.cid, envelope,
                                           1100.0)
    with pytest.raises(ReplayError):
        s.server.handle_search_session(SESSION_KEY, s.cid, envelope, 1100.0)
    fresh = seal(SESSION_KEY, "phi-retrieve", s.trapdoors("cardiology"),
                 1101.0)
    with pytest.raises(StorageError):
        s.server.handle_search_session(SESSION_KEY, UNKNOWN_CID, fresh,
                                       1101.0)
    return {"reply": _reply_digest(reply), "observed": s.observed()}


def _requests(s: _Scenario, now: float, *keywords: str) -> list:
    requests = []
    for i, kw in enumerate(keywords):
        public, nu = s.pseudonym()
        requests.append(SearchRequest(
            pseudonym=public, collection_id=s.cid,
            envelope=seal(nu, "phi-retrieve", s.trapdoors(kw),
                          now + i * 0.001)))
    return requests


def _batch(s: _Scenario) -> dict:
    requests = _requests(s, 1200.0, "allergies", "cardiology", "warfarin")
    replies = s.server.handle_search_batch(requests, 1200.0)
    digest = _sha(b"".join(r.to_bytes() for r in replies))
    # Serial, stopping at the first error: the first entry is served
    # (and logged) before the replayed second entry raises.
    again = _requests(s, 1201.0, "penicillin")
    with pytest.raises(ReplayError):
        s.server.handle_search_batch([again[0], again[0], requests[0]],
                                     1201.0)
    unknown = _requests(s, 1202.0, "allergies")[0]
    with pytest.raises(StorageError):
        s.server.handle_search_batch(
            [SearchRequest(unknown.pseudonym, UNKNOWN_CID, unknown.envelope)],
            1202.0)
    return {"reply": digest, "observed": s.observed()}


def _each(s: _Scenario) -> dict:
    requests = _requests(s, 1300.0, "allergies", "cardiology", "warfarin")
    unknown = SearchRequest(requests[1].pseudonym, UNKNOWN_CID,
                            requests[1].envelope)
    outcomes = s.server.handle_search_each(
        [requests[0], requests[0], unknown, requests[2]], 1300.0)
    digest = _sha(b"".join(r.to_bytes() for r, _ in outcomes
                           if r is not None))
    errors = [type(exc).__name__ if exc is not None else None
              for _, exc in outcomes]
    assert all(exc is None or isinstance(exc, ReproError)
               for _, exc in outcomes)
    return {"reply": digest, "errors": errors, "observed": s.observed()}


def _shard(s: _Scenario) -> dict:
    public, nu = s.pseudonym()
    envelope = seal(nu, "phi-retrieve", s.trapdoors("allergies", "warfarin"),
                    1400.0)
    chunks = s.server.handle_search_shard(public, [s.cid, s.cid], envelope,
                                          1400.0)
    # Guard-free: the same envelope serves the leg again, identically.
    again = s.server.handle_search_shard(public, [s.cid], envelope, 1400.0)
    assert again == chunks[:1]
    with pytest.raises(StorageError):
        s.server.handle_search_shard(public, [UNKNOWN_CID], envelope, 1400.0)
    # ... and a guarded open of it afterwards still succeeds once.
    s.server.handle_search(public, s.cid, envelope, 1400.0)
    with pytest.raises(ReplayError):
        s.server.handle_search(public, s.cid, envelope, 1400.0)
    return {"reply": _reply_digest(chunks), "observed": s.observed()}


def _merge(s: _Scenario) -> dict:
    public, nu = s.pseudonym()
    envelope = seal(nu, "phi-retrieve", s.trapdoors("cardiology"), 1500.0)
    foreign_cid = b"\x07" * 16
    foreign = {foreign_cid: [b"fid-foreign-1" + b"ct", b"fid-foreign-2"]}
    reply = s.server.handle_search_merge(
        public, [s.cid, foreign_cid, s.cid], envelope, foreign, 1500.0)
    with pytest.raises(ReplayError):
        s.server.handle_search_merge(public, [s.cid], envelope, {}, 1500.0)
    fresh = seal(nu, "phi-retrieve", s.trapdoors("cardiology"), 1501.0)
    with pytest.raises(StorageError):
        s.server.handle_search_merge(public, [UNKNOWN_CID], fresh, {},
                                     1501.0)
    return {"reply": _reply_digest(reply), "observed": s.observed()}


def _multi(s: _Scenario) -> dict:
    public, nu = s.pseudonym()
    envelope = seal(nu, "phi-retrieve", s.trapdoors("allergies", "cardiology"),
                    1600.0)
    reply = s.server.handle_search_multi(public, [s.cid, s.cid], envelope,
                                         1600.0)
    with pytest.raises(ReplayError):
        s.server.handle_search_multi(public, [s.cid], envelope, 1600.0)
    # Every collection is looked up before any is searched: an unknown
    # id in second place logs nothing.
    fresh = seal(nu, "phi-retrieve", s.trapdoors("allergies"), 1601.0)
    with pytest.raises(StorageError):
        s.server.handle_search_multi(public, [s.cid, UNKNOWN_CID], fresh,
                                     1601.0)
    return {"reply": _reply_digest(reply), "observed": s.observed()}


def _wrapped(s: _Scenario) -> dict:
    public, nu = s.pseudonym()
    d = s.server._collections[s.cid].group_secret_d
    envelope = seal(nu, "emergency/search",
                    s.wrapped((d, "allergies"), (d, "cardiology")), 1700.0)
    reply = s.server.handle_search_wrapped(public, s.cid, envelope, 1700.0)
    with pytest.raises(ReplayError):
        s.server.handle_search_wrapped(public, s.cid, envelope, 1700.0)
    # The valid first wrap is served and logged; the stale second one
    # (wrapped under a d the server does not hold) is refused.
    stale = seal(nu, "emergency/search",
                 s.wrapped((d, "warfarin"), (b"\x05" * len(d), "allergies")),
                 1701.0)
    with pytest.raises(AccessDenied):
        s.server.handle_search_wrapped(public, s.cid, stale, 1701.0)
    fresh = seal(nu, "emergency/search", s.wrapped((d, "allergies")), 1702.0)
    with pytest.raises(StorageError):
        s.server.handle_search_wrapped(public, UNKNOWN_CID, fresh, 1702.0)
    return {"reply": _reply_digest(reply), "observed": s.observed()}


SCENARIOS = {"search": _search, "session": _session, "batch": _batch,
             "each": _each, "shard": _shard, "merge": _merge,
             "multi": _multi, "wrapped": _wrapped}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_handler_is_pinned(stored_system, name):
    got = SCENARIOS[name](_Scenario(stored_system))
    assert got == PINNED[name]
