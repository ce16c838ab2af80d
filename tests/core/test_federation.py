"""Federation parity: N shards behind the router ≡ one S-server.

The acceptance bar for the federation is *byte parity*: every protocol
round through the :class:`~repro.core.router.RouterEndpoint` — any
shard count, all three transports — must produce responses
byte-identical to a single S-server holding all the data.  These tests
drive the full protocol suite through federations of 1/2/4/8 shards
and compare fingerprints (message counts, byte totals, plaintext)
against the unfederated baseline, then pin frame-level response bytes
directly against a same-seed single server.
"""

from __future__ import annotations

import pytest

from repro.ehr.mhi import AnomalyKind
from repro.ehr.records import Category
from repro.core import dispatch, wire
from repro.core.federation import (Federation, bind_federated_sserver,
                                   federation_key_for, shard_servers)
from repro.core.protocols.emergency import (family_based_retrieval,
                                            pdevice_emergency_retrieval)
from repro.core.protocols.mhi import (mhi_retrieve, mhi_store,
                                      role_identity_for)
from repro.core.protocols.privilege import (assign_privilege,
                                            revoke_privilege)
from repro.core.protocols.retrieval import common_case_retrieval
from repro.core.protocols.storage import private_phi_storage
from repro.core.protocols.messages import (Envelope, open_envelope,
                                           pack_fields, seal, unpack_fields)
from repro.core.router import RouterEndpoint
from repro.core.system import build_system
from repro.exceptions import (AuthenticationError, ParameterError,
                              RecoveryError, ReplayError, StorageError,
                              TransportError)
from repro.net.transport import AsyncTransport, LoopbackTransport

BACKENDS = ["loopback", "sim", "async"]


def _make_transport(backend: str, system):
    if backend == "loopback":
        return LoopbackTransport()
    if backend == "sim":
        return system.network
    return AsyncTransport()


def _close(net) -> None:
    if isinstance(net, AsyncTransport):
        net.close()


def _fingerprint(stats, files=None):
    entry = {"messages": stats.messages, "bytes": stats.bytes_total}
    if files is not None:
        entry["plaintext"] = sorted(f.medical_content for f in files)
    return entry


def run_suite(backend: str, shards: int = 0) -> dict:
    """The transport-parity protocol suite, optionally federated.

    ``shards=0`` binds the plain single S-server (the baseline);
    ``shards>=1`` fronts it with a router over that many shards.
    """
    system = build_system(seed=b"federation-parity")
    net = _make_transport(backend, system)
    patient, server = system.patient, system.sserver
    try:
        if shards:
            bind_federated_sserver(net, server, shards)
        patient.add_record(
            Category.ALLERGIES, ["allergies", "penicillin"],
            "Severe penicillin allergy; carries epinephrine.",
            server.address)
        patient.add_record(
            Category.CARDIOLOGY, ["cardiology", "heart-attack"],
            "Prior MI (2024); ejection fraction 45%.", server.address)

        out = {}
        st = private_phi_storage(patient, server, net)
        out["storage"] = _fingerprint(st.stats)

        af = assign_privilege(patient, system.family, server, net)
        ap = assign_privilege(patient, system.pdevice, server, net)
        out["assign-family"] = _fingerprint(af.stats)
        out["assign-pdevice"] = _fingerprint(ap.stats)

        rt = common_case_retrieval(patient, server, net, ["allergies"])
        out["retrieval"] = _fingerprint(rt.stats, rt.files)

        fam = family_based_retrieval(system.family, server, net,
                                     ["cardiology"])
        out["family-emergency"] = _fingerprint(fam.stats, fam.files)

        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        window = system.pdevice.vitals.generate_day(
            "2026-07-01", anomalies=[(36000.0, AnomalyKind.TACHYCARDIA)])
        role = role_identity_for("2026-07-01")
        ms = mhi_store(system.pdevice, server, system.state.public_key,
                       net, window, role)
        out["mhi-store"] = _fingerprint(ms.stats)

        pd = pdevice_emergency_retrieval(physician, system.pdevice,
                                         system.state, server, net,
                                         ["cardiology"])
        out["pdevice-emergency"] = _fingerprint(pd.stats, pd.files)

        mr = mhi_retrieve(physician, system.state, server, net, role,
                          "2026-07-03")
        out["mhi-retrieve"] = _fingerprint(mr.stats)
        out["mhi-days"] = sorted(w.day for w in mr.windows)

        rv = revoke_privilege(patient, system.pdevice.name, server, net)
        out["revoke"] = _fingerprint(rv.stats)
        return out
    finally:
        _close(net)


class TestSuiteParity:
    """Full protocol suite: federated fingerprints == single-server."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_suite("loopback", shards=0)

    @pytest.mark.parametrize("shards", [1, 2, 4, 8])
    def test_loopback_any_shard_count(self, baseline, shards):
        assert run_suite("loopback", shards=shards) == baseline

    @pytest.mark.parametrize("backend", ["sim", "async"])
    def test_every_backend_two_shards(self, baseline, backend):
        assert run_suite(backend, shards=2) == baseline


def _stored_deployment(shards: int, n_collections: int = 5):
    """A same-seed deployment with several stored collections.

    Returns (system, net, collection_ids) — collection ids are captured
    after each store (``patient.collection_ids`` keeps only the latest).
    Identical seeds make the single-server and federated deployments
    frame-for-frame comparable.
    """
    system = build_system(seed=b"federation-frames")
    net = LoopbackTransport()
    server = system.sserver
    if shards:
        bind_federated_sserver(net, server, shards)
    else:
        dispatch.bind_sserver(net, server)
    cids = []
    contents = ["allergies", "cardiology", "surgeries", "labs", "imaging"]
    for i in range(n_collections):
        kw = contents[i % len(contents)]
        system.patient.add_record(Category.ALLERGIES, [kw],
                                  "record %d about %s" % (i, kw),
                                  server.address)
        private_phi_storage(system.patient, server, net)
        cids.append(system.patient.collection_ids[server.address])
    return system, net, cids


def _search_frame(system, cid, keywords, now):
    patient = system.patient
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(system.sserver.identity_key.public,
                                  pseudonym)
    trapdoors = [patient.trapdoor(kw).to_bytes() for kw in keywords]
    request = seal(nu, "phi-retrieve", pack_fields(*trapdoors), now)
    return wire.make_frame(wire.OP_SEARCH, pseudonym.public.to_bytes(),
                           cid, request.to_bytes())


def _multi_frame(system, cids, keywords, now):
    patient = system.patient
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(system.sserver.identity_key.public,
                                  pseudonym)
    trapdoors = [patient.trapdoor(kw).to_bytes() for kw in keywords]
    request = seal(nu, "phi-retrieve", pack_fields(*trapdoors), now)
    return wire.make_frame(wire.OP_SEARCH_MULTI, pseudonym.public.to_bytes(),
                           pack_fields(*cids), request.to_bytes())


def _batch_frame(system, cids, keywords, now):
    patient = system.patient
    entries = []
    for cid in cids:
        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(system.sserver.identity_key.public,
                                      pseudonym)
        trapdoors = [patient.trapdoor(kw).to_bytes() for kw in keywords]
        request = seal(nu, "phi-retrieve", pack_fields(*trapdoors), now)
        entries.append(pack_fields(pseudonym.public.to_bytes(), cid,
                                   request.to_bytes()))
    return wire.make_frame(wire.OP_SEARCH_BATCH, *entries)


class TestFrameParity:
    """Raw frame in, raw response out: router bytes == single-server."""

    @pytest.mark.parametrize("shards", [2, 4])
    def test_single_search_byte_identical(self, shards):
        single_sys, single_net, cids = _stored_deployment(0)
        fed_sys, fed_net, fed_cids = _stored_deployment(shards)
        assert cids == fed_cids  # same seed → same envelopes → same ids
        single = single_net.endpoint_at(single_sys.sserver.address)
        router = fed_net.endpoint_at(fed_sys.sserver.address)
        assert isinstance(router, RouterEndpoint)
        for cid in cids:
            frame = _search_frame(single_sys, cid, ["allergies"],
                                  single_net.now)
            fed_frame = _search_frame(fed_sys, cid, ["allergies"],
                                      fed_net.now)
            assert frame == fed_frame
            assert single.handle_frame(frame) == router.handle_frame(
                fed_frame)

    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_cross_shard_multi_byte_identical(self, shards):
        single_sys, single_net, cids = _stored_deployment(0)
        fed_sys, fed_net, _ = _stored_deployment(shards)
        single = single_net.endpoint_at(single_sys.sserver.address)
        router = fed_net.endpoint_at(fed_sys.sserver.address)
        # 5 collections over >=2 shards guarantees a cross-shard set.
        owners = {router.ring.owner_str(cid) for cid in cids}
        if shards > 1:
            assert len(owners) > 1
        frame = _multi_frame(single_sys, cids, ["allergies", "labs"],
                             single_net.now)
        fed_frame = _multi_frame(fed_sys, cids, ["allergies", "labs"],
                                 fed_net.now)
        assert frame == fed_frame
        assert single.handle_frame(frame) == router.handle_frame(fed_frame)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_batch_byte_identical_including_errors(self, shards):
        single_sys, single_net, cids = _stored_deployment(0)
        fed_sys, fed_net, _ = _stored_deployment(shards)
        single = single_net.endpoint_at(single_sys.sserver.address)
        router = fed_net.endpoint_at(fed_sys.sserver.address)
        # Entry 2 targets an unknown collection: its error must come
        # back per-entry, byte-identical, without poisoning neighbours.
        target_cids = [cids[0], cids[1], b"\x00" * 16, cids[2]]
        frame = _batch_frame(single_sys, target_cids, ["allergies"],
                             single_net.now)
        fed_frame = _batch_frame(fed_sys, target_cids, ["allergies"],
                                 fed_net.now)
        assert frame == fed_frame
        single_resp = single.handle_frame(frame)
        fed_resp = router.handle_frame(fed_frame)
        assert single_resp == fed_resp
        entries = unpack_fields(wire.parse_response(fed_resp))
        assert len(entries) == 4
        for i, entry in enumerate(entries):
            if i == 2:
                with pytest.raises(StorageError):
                    wire.parse_response(entry)
            else:
                wire.parse_response(entry)  # status OK

    def test_batch_infinity_pseudonym_fails_only_its_entry(self):
        """A pseudonym at infinity has no SOK key.  On one server and
        through a 4-shard router alike it fails only its own entry, and
        it burns no replay-guard slot: its envelope still opens after."""
        responses = []
        for shards in (0, 4):
            system, net, cids = _stored_deployment(shards)
            endpoint = net.endpoint_at(system.sserver.address)
            good = _batch_frame(system, [cids[0]], ["allergies"], net.now)
            probe = _search_frame(system, cids[1], ["allergies"], net.now)
            _opcode, (_pseudonym, cid, env_b) = wire.parse_frame(probe)
            frame = wire.make_frame(wire.OP_SEARCH_BATCH,
                                    wire.parse_frame(good)[1][0],
                                    pack_fields(b"\x00", cid, env_b))
            response = endpoint.handle_frame(frame)
            entries = unpack_fields(wire.parse_response(response))
            assert len(entries) == 2
            wire.parse_response(entries[0])  # status OK
            with pytest.raises(ParameterError):
                wire.parse_response(entries[1])
            wire.parse_response(endpoint.handle_frame(probe))
            responses.append((frame, response))
        assert responses[0] == responses[1]

    def test_replay_rejected_through_router(self):
        fed_sys, fed_net, cids = _stored_deployment(2)
        router = fed_net.endpoint_at(fed_sys.sserver.address)
        frame = _search_frame(fed_sys, cids[0], ["allergies"], fed_net.now)
        wire.parse_response(router.handle_frame(frame))
        with pytest.raises(ReplayError):
            wire.parse_response(router.handle_frame(frame))

    def test_multi_replay_rejected_through_router(self):
        fed_sys, fed_net, cids = _stored_deployment(4)
        router = fed_net.endpoint_at(fed_sys.sserver.address)
        frame = _multi_frame(fed_sys, cids, ["allergies"], fed_net.now)
        wire.parse_response(router.handle_frame(frame))
        # The scattered form consumes exactly one replay window (on the
        # merge shard); re-presenting the frame must be rejected there.
        with pytest.raises(ReplayError):
            wire.parse_response(router.handle_frame(frame))


class TestRouterSurface:
    def test_unknown_opcode_is_error_response(self):
        fed_sys, fed_net, _ = _stored_deployment(2)
        router = fed_net.endpoint_at(fed_sys.sserver.address)
        with pytest.raises(TransportError):
            wire.parse_response(router.handle_frame(
                wire.make_frame(b"no-such-op", b"x")))

    def test_requires_at_least_one_shard(self):
        with pytest.raises(ParameterError):
            RouterEndpoint("sserver://x", [])

    def test_double_bind_rejected(self):
        system = build_system(seed=b"federation-parity")
        net = LoopbackTransport()
        bind_federated_sserver(net, system.sserver, 2)
        with pytest.raises(TransportError):
            bind_federated_sserver(net, system.sserver, 2)

    def test_collections_spread_across_shards(self):
        _, fed_net, cids = _stored_deployment(4, n_collections=5)
        router = fed_net.endpoint_at("sserver://tn-hospital-0")
        shards = [fed_net.endpoint_at(a) for a in router.shard_addresses]
        held = [len(ep.server._collections) for ep in shards]
        assert sum(held) == len(cids)
        assert sum(1 for h in held if h) >= 2  # genuinely partitioned

    def test_shard_servers_share_identity_key(self):
        system = build_system(seed=b"federation-parity")
        for shard in shard_servers(system.sserver, 3):
            assert shard.identity_key is system.sserver.identity_key

    def test_scatter_pool_is_bounded_and_reused(self):
        router = RouterEndpoint("sserver://x", ["a://1", "b://2"])
        pool = router._executor()
        assert router._executor() is pool  # one pool per router, reused
        # 2x shard count: headroom for hedged legs, capped at 16.
        assert pool._max_workers == 4
        many = RouterEndpoint(
            "sserver://y", ["s://%d" % i for i in range(20)])
        assert many._executor()._max_workers == 16


class TestInternalLegAuthentication:
    """SHARD/MERGE are router-only: unauthenticated frames are rejected
    before any replay-guard or search state is touched."""

    def _deployment(self):
        fed_sys, fed_net, cids = _stored_deployment(2)
        router = fed_net.endpoint_at(fed_sys.sserver.address)
        shard_ep = fed_net.endpoint_at(router.shard_addresses[0])
        return fed_sys, fed_net, cids, router, shard_ep

    def test_captured_envelope_cannot_be_reframed_as_shard_leg(self):
        # The REVIEW scenario: a peer who captured a legitimate
        # phi-retrieve envelope re-frames it as OP_SEARCH_SHARD against
        # attacker-chosen collection ids.  Without the federation tag
        # the shard must refuse — and keep refusing on replay.
        fed_sys, fed_net, cids, router, shard_ep = self._deployment()
        frame = _multi_frame(fed_sys, cids, ["allergies"], fed_net.now)
        _, fields = wire.parse_frame(frame)
        pseud_b, cids_b, env_b = fields
        forged = wire.make_frame(wire.OP_SEARCH_SHARD, pseud_b, cids_b,
                                 env_b)
        for _ in range(2):
            with pytest.raises(AuthenticationError):
                wire.parse_response(shard_ep.handle_frame(forged))
        # The replay window was never consumed: the legitimate MULTI
        # through the router still succeeds afterwards.
        wire.parse_response(router.handle_frame(frame))

    def test_forged_merge_chunks_rejected(self):
        # Rewriting an in-flight MULTI into a MERGE carrying forged
        # chunks must not yield a validly-sealed phi-results envelope.
        fed_sys, fed_net, cids, router, shard_ep = self._deployment()
        frame = _multi_frame(fed_sys, cids, ["allergies"], fed_net.now)
        _, (pseud_b, cids_b, env_b) = wire.parse_frame(frame)
        evil = pack_fields(*[pack_fields(cid, pack_fields(b"\x00" * 64))
                             for cid in cids])
        forged = wire.make_frame(wire.OP_SEARCH_MERGE, pseud_b, cids_b,
                                 env_b, evil)
        with pytest.raises(AuthenticationError):
            wire.parse_response(shard_ep.handle_frame(forged))

    def test_tampered_federation_tag_rejected(self):
        fed_sys, fed_net, cids, router, shard_ep = self._deployment()
        # Only the cids this shard owns: the tag check is what's under
        # test, and a served frame must then actually resolve locally.
        owned = [cid for cid in cids
                 if router.ring.owner_str(cid) == router.shard_addresses[0]]
        assert owned
        frame = _multi_frame(fed_sys, owned, ["allergies"], fed_net.now)
        _, (pseud_b, cids_b, env_b) = wire.parse_frame(frame)
        key = federation_key_for(fed_sys.sserver.identity_key)
        sealed = wire.seal_internal_frame(key, wire.OP_SEARCH_SHARD,
                                          pseud_b, cids_b, env_b)
        opcode, fields = wire.parse_frame(sealed)
        bad_tag = bytes([fields[-1][0] ^ 0x01]) + fields[-1][1:]
        tampered = wire.make_frame(opcode, *fields[:-1], bad_tag)
        with pytest.raises(AuthenticationError):
            wire.parse_response(shard_ep.handle_frame(tampered))
        # The properly sealed frame is served (raw per-cid chunk lists).
        chunks = unpack_fields(wire.parse_response(
            shard_ep.handle_frame(sealed)))
        assert len(chunks) == len(owned)

    def test_router_does_not_route_internal_opcodes(self):
        # The public logical address must not be a path to the internal
        # legs either — even correctly-tagged frames bounce.
        fed_sys, fed_net, cids, router, _ = self._deployment()
        key = federation_key_for(fed_sys.sserver.identity_key)
        frame = _multi_frame(fed_sys, cids, ["allergies"], fed_net.now)
        _, (pseud_b, cids_b, env_b) = wire.parse_frame(frame)
        for opcode in (wire.OP_SEARCH_SHARD, wire.OP_SEARCH_MERGE):
            sealed = wire.seal_internal_frame(key, opcode, pseud_b,
                                              cids_b, env_b)
            with pytest.raises(TransportError):
                wire.parse_response(router.handle_frame(sealed))

    def test_standalone_server_rejects_internal_opcodes(self):
        # An unfederated S-server holds no federation key: SHARD/MERGE
        # are dead opcodes on it, tagged or not.
        single_sys, single_net, cids = _stored_deployment(0)
        endpoint = single_net.endpoint_at(single_sys.sserver.address)
        frame = _multi_frame(single_sys, cids, ["allergies"],
                             single_net.now)
        _, (pseud_b, cids_b, env_b) = wire.parse_frame(frame)
        key = federation_key_for(single_sys.sserver.identity_key)
        sealed = wire.seal_internal_frame(key, wire.OP_SEARCH_SHARD,
                                          pseud_b, cids_b, env_b)
        with pytest.raises(AuthenticationError):
            wire.parse_response(endpoint.handle_frame(sealed))

    def test_router_without_key_refuses_cross_shard_scatter(self):
        fed_sys, fed_net, cids, router, _ = self._deployment()
        bare = RouterEndpoint("sserver://bare", router.shard_addresses)
        bare.attach(router._transport)
        owners = {router.ring.owner_str(cid) for cid in cids}
        assert len(owners) > 1  # genuinely cross-shard
        frame = _multi_frame(fed_sys, cids, ["allergies"], fed_net.now)
        with pytest.raises(AuthenticationError):
            wire.parse_response(bare.handle_frame(frame))


class TestFederationManifest:
    """Ring geometry is pinned in data_dir: a mismatched recovery fails
    loudly instead of stranding journals and rerouting keys."""

    def _bind(self, tmp_path, shards, vnodes=None):
        system = build_system(seed=b"federation-manifest")
        net = LoopbackTransport()
        kwargs = {"data_dir": str(tmp_path)}
        if vnodes is not None:
            kwargs["vnodes"] = vnodes
        return bind_federated_sserver(net, system.sserver, shards,
                                      **kwargs)

    def test_same_geometry_recovers(self, tmp_path):
        self._bind(tmp_path, 2)
        federation = self._bind(tmp_path, 2)  # fresh transport = recovery
        assert len(federation.shards) == 2

    def test_different_shard_count_fails_loudly(self, tmp_path):
        self._bind(tmp_path, 2)
        with pytest.raises(RecoveryError):
            self._bind(tmp_path, 4)

    def test_different_vnodes_fails_loudly(self, tmp_path):
        self._bind(tmp_path, 2)
        with pytest.raises(RecoveryError):
            self._bind(tmp_path, 2, vnodes=7)


def _opened_search(system, net, router, cid, keywords):
    """Search one collection through the router and open the sealed
    reply; returns the decrypted result entries (stable bytes — they do
    not depend on the per-request pseudonym)."""
    patient = system.patient
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(system.sserver.identity_key.public,
                                  pseudonym)
    trapdoors = [patient.trapdoor(kw).to_bytes() for kw in keywords]
    request = seal(nu, "phi-retrieve", pack_fields(*trapdoors), net.now)
    frame = wire.make_frame(wire.OP_SEARCH, pseudonym.public.to_bytes(),
                            cid, request.to_bytes())
    envelope = Envelope.from_bytes(
        wire.parse_response(router.handle_frame(frame)))
    payload = open_envelope(nu, envelope, net.now, None,
                            expected_label="phi-results")
    return list(unpack_fields(payload))


class TestRebalance:
    """Ring membership changes: journal-backed copy → commit → release.

    The acceptance bar: a 4 → 5 rebalance leaves every search returning
    the identical result set, every collection owned by exactly one
    shard, and the manifest epoch advanced — then 5 → 4 undoes it just
    as cleanly.
    """

    def _deployment(self, shards=4, data_dir=None):
        system = build_system(seed=b"federation-frames")
        net = LoopbackTransport()
        server = system.sserver
        federation = bind_federated_sserver(net, server, shards,
                                            data_dir=data_dir)
        cids = []
        for i in range(6):
            system.patient.add_record(Category.ALLERGIES, ["allergies"],
                                      "record %d" % i, server.address)
            private_phi_storage(system.patient, server, net)
            cids.append(system.patient.collection_ids[server.address])
        return system, net, federation, cids

    def _assert_owned_exactly_once(self, federation, cids):
        held = [cid for endpoint in federation.endpoints
                for cid in endpoint.server._collections]
        assert sorted(held) == sorted(set(held)), "a collection is double-owned"
        assert sorted(set(held)) == sorted(set(cids)), "a collection was lost"
        # ...and each sits on the shard the ring routes its searches to.
        for endpoint in federation.endpoints:
            for cid in endpoint.server._collections:
                assert (federation.ring.owner_str(cid)
                        == endpoint.server.address)

    def test_add_shard_preserves_every_search(self, tmp_path):
        system, net, federation, cids = self._deployment(
            4, data_dir=str(tmp_path))
        router = net.endpoint_at(system.sserver.address)
        before = {cid: sorted(_opened_search(system, net, router, cid,
                                             ["allergies"]))
                  for cid in set(cids)}
        steps = []
        federation.add_shard(on_step=steps.append)
        assert steps == ["planned", "copied", "committed", "released"]
        assert len(federation.shards) == 5
        assert federation.epoch == 1
        self._assert_owned_exactly_once(federation, cids)
        after = {cid: sorted(_opened_search(system, net, router, cid,
                                            ["allergies"]))
                 for cid in set(cids)}
        assert after == before

    def test_remove_shard_round_trip(self):
        # In-memory federation: the migration protocol itself needs no
        # data_dir (the manifest journal is only the crash-safety net).
        system, net, federation, cids = self._deployment(4)
        router = net.endpoint_at(system.sserver.address)
        before = {cid: sorted(_opened_search(system, net, router, cid,
                                             ["allergies"]))
                  for cid in set(cids)}
        federation.add_shard()
        federation.remove_shard()
        assert len(federation.shards) == 4
        assert federation.epoch == 2
        self._assert_owned_exactly_once(federation, cids)
        # The 4-shard ring after the round trip is the original ring:
        # identical shard set → identical placement.
        after = {cid: sorted(_opened_search(system, net, router, cid,
                                            ["allergies"]))
                 for cid in set(cids)}
        assert after == before

    def test_rebalance_moves_mhi_windows(self):
        system, net, federation, _ = self._deployment(4)
        server = system.sserver
        assign_privilege(system.patient, system.pdevice, server, net)
        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        roles = []
        for day in ("2026-07-01", "2026-07-02", "2026-07-03"):
            window = system.pdevice.vitals.generate_day(
                day, anomalies=[(36000.0, AnomalyKind.TACHYCARDIA)])
            role = role_identity_for(day)
            mhi_store(system.pdevice, server, system.state.public_key,
                      net, window, role)
            roles.append(role)
        federation.add_shard()
        # Every MHI window sits on the shard its role identity routes to.
        for endpoint in federation.endpoints:
            for window in endpoint.server._mhi:
                owner = federation.ring.owner_str(
                    window.role_identity.encode())
                assert owner == endpoint.server.address
        # ...and retrieval through the router still finds each day
        # (role keys ride on an authenticated emergency session).
        pdevice_emergency_retrieval(physician, system.pdevice, system.state,
                                    server, net, ["allergies"])
        for day, role in zip(("2026-07-01", "2026-07-02", "2026-07-03"),
                             roles):
            result = mhi_retrieve(physician, system.state, server, net,
                                  role, "2026-07-05")
            assert day in {w.day for w in result.windows}

    def test_epoch_survives_restart(self, tmp_path):
        system, net, federation, cids = self._deployment(
            4, data_dir=str(tmp_path))
        federation.add_shard()
        assert federation.epoch == 1
        # Fresh transport + same seed = process restart over the dir;
        # the manifest's committed shard list wins over the bind arg.
        system2 = build_system(seed=b"federation-frames")
        net2 = LoopbackTransport()
        recovered = bind_federated_sserver(net2, system2.sserver, 5,
                                           data_dir=str(tmp_path))
        assert recovered.epoch == 1
        assert len(recovered.shards) == 5
        self._assert_owned_exactly_once(recovered, cids)

    def test_rebalance_needs_bind_context(self):
        router = RouterEndpoint("sserver://x", ["a://1", "b://2"])
        bare = Federation(router=router, ring=router.ring, shards=(),
                          endpoints=())
        with pytest.raises(ParameterError, match="bind context"):
            bare.add_shard()

    def test_remove_last_shard_rejected(self):
        system, net, federation, _ = self._deployment(1)
        with pytest.raises(ParameterError, match="last shard"):
            federation.remove_shard()


class TestBatchDuplicateTags:
    """Cross-shard replay defence: one batch carrying the same envelope
    twice is refused before any leg runs (two copies would otherwise
    scatter to different shards and each pass a local replay guard)."""

    def test_duplicate_envelope_tag_rejected(self):
        fed_sys, fed_net, cids = _stored_deployment(4)
        router = fed_net.endpoint_at(fed_sys.sserver.address)
        frame = _batch_frame(fed_sys, [cids[0], cids[1]], ["allergies"],
                             fed_net.now)
        opcode, entries = wire.parse_frame(frame)
        doubled = wire.make_frame(opcode, entries[0], entries[1],
                                  entries[0])
        with pytest.raises(ReplayError, match="duplicate envelope tag"):
            wire.parse_response(router.handle_frame(doubled))
        # The refusal consumed nothing: the original batch still runs.
        for entry in unpack_fields(
                wire.parse_response(router.handle_frame(frame))):
            wire.parse_response(entry)
