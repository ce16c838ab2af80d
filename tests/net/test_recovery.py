"""Chaos recovery matrix — the PR's acceptance scenario.

All six protocols run against durable endpoints under the PR-3 fault
matrix (5% drop + 2% duplication) while the S-server — and, in a
separate run, the A-server — is crashed mid-run, including once *mid
journal write*.  Each crash genuinely discards the victim's in-memory
state; recovery reconstructs it from the journal + snapshots, the
client-side retry policy rides out the outage, and afterwards:

* every PHI plaintext decrypts byte-identically,
* every TR and RD signature verifies,
* every pre-crash trace has a valid audit-log inclusion proof,
* the torn tail lost only the never-acknowledged mutation.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.ehr.mhi import AnomalyKind
from repro.ehr.records import Category
from repro.core import wire
from repro.core.federation import MANIFEST_NAME, bind_federated_sserver
from repro.core.protocols.base import with_policies
from repro.core.protocols.messages import (Envelope, open_envelope,
                                           pack_fields, seal, unpack_fields)
from repro.core.protocols.emergency import (family_based_retrieval,
                                            pdevice_emergency_retrieval)
from repro.core.protocols.mhi import (mhi_retrieve, mhi_store,
                                      role_identity_for)
from repro.core.protocols.privilege import (assign_privilege,
                                            revoke_privilege)
from repro.core.protocols.retrieval import common_case_retrieval
from repro.core.protocols.storage import private_phi_storage
from repro.core.system import build_system
from repro.net.transport import (AsyncTransport, FaultPolicy,
                                 LoopbackTransport, RetryPolicy)
from repro.store import (DurableStore, bind_durable_aserver,
                         bind_durable_pdevice, bind_durable_sserver)
from repro.exceptions import (AuthenticationError, ReplayError,
                              TransientTransportError)

ALLERGY_TEXT = "Severe penicillin allergy; carries epinephrine."
CARDIO_TEXT = "Prior MI (2024); ejection fraction 45%."

# Matches the PR-3 chaos matrix (tests/net/test_faults.py).
CHAOS_SEED = 15


def _make_transport(backend: str, system):
    if backend == "sim":
        return system.network
    if backend == "async":
        return AsyncTransport()
    return LoopbackTransport()


def _close(net) -> None:
    if isinstance(net, AsyncTransport):
        net.close()


def _durable_deployment(tmp_path, *, seed, faults, snapshot_every=0,
                        backend="loopback"):
    system = build_system(seed=seed)
    net = with_policies(_make_transport(backend, system),
                        retry=RetryPolicy(attempt_timeout_s=0.2,
                                          base_backoff_s=0.01),
                        faults=faults)
    data_dir = str(tmp_path)
    endpoints = {
        "sserver": bind_durable_sserver(
            net, system.sserver,
            DurableStore(data_dir, "sserver",
                         snapshot_every=snapshot_every),
            fault_policy=faults),
        "aserver": bind_durable_aserver(
            net, system.state,
            DurableStore(data_dir, "aserver",
                         snapshot_every=snapshot_every),
            fault_policy=faults),
        "pdevice": bind_durable_pdevice(
            net, system.pdevice, system.params,
            DurableStore(data_dir, "pdevice",
                         snapshot_every=snapshot_every),
            fault_policy=faults),
    }
    return system, net, endpoints


def _run_suite_with_crashes(system, net, faults, victim_address,
                            torn_write_victim=None):
    """The six-protocol suite with the victim crashed at three points:
    after storage, mid journal write before emergency auth, and before
    the final revoke."""
    patient, server = system.patient, system.sserver
    patient.add_record(Category.ALLERGIES, ["allergies", "penicillin"],
                       ALLERGY_TEXT, server.address)
    patient.add_record(Category.CARDIOLOGY, ["cardiology", "heart-attack"],
                       CARDIO_TEXT, server.address)

    private_phi_storage(patient, server, net)                 # 1 storage
    assign_privilege(patient, system.family, server, net)     # 2 assign
    assign_privilege(patient, system.pdevice, server, net)

    # Crash #1: plain process death with a supervisor-style immediate
    # restart — the in-memory state is genuinely discarded and every
    # protocol from here on runs against the recovered-from-disk state.
    faults.crash(victim_address)
    faults.restart(victim_address)

    rt = common_case_retrieval(patient, server, net, ["allergies"])
    assert [f.medical_content for f in rt.files] == [ALLERGY_TEXT]  # 3

    fam = family_based_retrieval(system.family, server, net, ["cardiology"])
    assert [f.medical_content for f in fam.files] == [CARDIO_TEXT]  # 4

    physician = system.any_physician()
    system.state.sign_in(physician.hospital, physician.physician_id)
    window = system.pdevice.vitals.generate_day(
        "2026-07-01", anomalies=[(36000.0, AnomalyKind.TACHYCARDIA)])
    role = role_identity_for("2026-07-01")
    mhi_store(system.pdevice, server, system.state.public_key, net,
              window, role)                                       # 5 MHI

    # Crash #2: torn write — the victim (alive right now) dies mid
    # journal append on its next journaled record during the emergency
    # flow; the client's retry sees one refusal, which auto-restarts it.
    if torn_write_victim is not None:
        faults.crash(torn_write_victim, during_write=True, restart_after=1)

    pd = pdevice_emergency_retrieval(physician, system.pdevice,
                                     system.state, server, net,
                                     ["cardiology"])               # 6 emerg
    assert [f.medical_content for f in pd.files] == [CARDIO_TEXT]

    mhi_retrieve(physician, system.state, server, net, role, "2026-07-03")

    # Crash #3: once more before the revoke that closes the suite.
    faults.crash(victim_address)
    faults.restart(victim_address)
    revoke_privilege(patient, system.pdevice.name, server, net)

    return patient, server, physician


def _assert_evidence_intact(system, patient, server, net):
    """Post-run invariants: plaintexts, signatures, inclusion proofs."""
    rt = common_case_retrieval(patient, server, net, ["allergies"])
    assert [f.medical_content for f in rt.files] == [ALLERGY_TEXT]

    state = system.state
    assert state.traces, "no TR was recorded"
    state.audit_log.verify_chain()
    checkpoint = state.audit_log.checkpoint()
    assert checkpoint.size == len(state.traces)
    for index, trace in enumerate(state.traces):
        assert trace.verify(system.params, state.public_key)
        proof = state.audit_log.prove_inclusion(index)
        assert state.audit_log.verify_entry(trace.to_bytes(), proof,
                                            checkpoint)

    assert system.pdevice.records, "no RD was recorded"
    for rd in system.pdevice.records:
        assert rd.verify(system.params, state.public_key)


class TestChaosRecoveryMatrix:
    @pytest.mark.parametrize("victim", ["sserver", "aserver"])
    def test_suite_survives_crashes_under_fault_matrix(self, tmp_path,
                                                       victim):
        faults = FaultPolicy(seed=CHAOS_SEED, drop_rate=0.05,
                             duplicate_rate=0.02)
        system, net, endpoints = _durable_deployment(
            tmp_path, seed=b"recovery-" + victim.encode(), faults=faults)
        address = (system.sserver.address if victim == "sserver"
                   else system.state.address)
        patient, server, _ = _run_suite_with_crashes(
            system, net, faults, address, torn_write_victim=address)
        _assert_evidence_intact(system, patient, server, net)

        # The chaos actually happened: injected faults, real crashes,
        # real recoveries, and a real torn-tail repair.
        assert faults.counts["dropped"] >= 1
        assert faults.counts["refused"] >= 1
        assert faults.counts["restarted"] >= 3
        durable = endpoints[victim]
        assert durable.recoveries >= 4  # initial boot + 3 crashes
        assert durable._store.torn_repairs >= 1

    @pytest.mark.parametrize("backend", ["sim", "async"])
    def test_suite_survives_crashes_on_every_backend(self, tmp_path,
                                                     backend):
        # The loopback matrix above, re-run over the other three
        # carriers — in particular the asyncio multiplexed backend,
        # where recovery must compose with pipelined dispatch: the
        # crashed endpoint's refusals ride back as serialized transient
        # errors over the persistent connection and the client retries
        # against the recovered state.
        faults = FaultPolicy(seed=CHAOS_SEED, drop_rate=0.05,
                             duplicate_rate=0.02)
        system, net, endpoints = _durable_deployment(
            tmp_path, seed=b"recovery-" + backend.encode(), faults=faults,
            backend=backend)
        try:
            patient, server, _ = _run_suite_with_crashes(
                system, net, faults, system.sserver.address,
                torn_write_victim=system.sserver.address)
            _assert_evidence_intact(system, patient, server, net)
        finally:
            _close(net)
        assert faults.counts["restarted"] >= 3
        durable = endpoints["sserver"]
        assert durable.recoveries >= 4  # initial boot + 3 crashes
        assert durable._store.torn_repairs >= 1

    def test_suite_with_snapshots_enabled(self, tmp_path):
        # Same matrix with aggressive snapshotting: recovery goes through
        # the snapshot + suffix path instead of a genesis replay.
        faults = FaultPolicy(seed=CHAOS_SEED, drop_rate=0.05,
                             duplicate_rate=0.02)
        system, net, endpoints = _durable_deployment(
            tmp_path, seed=b"recovery-snap", faults=faults,
            snapshot_every=1)
        patient, server, _ = _run_suite_with_crashes(
            system, net, faults, system.sserver.address,
            torn_write_victim=system.sserver.address)
        _assert_evidence_intact(system, patient, server, net)
        assert endpoints["sserver"]._snapshot_id > 0

    def test_crash_all_three_surfaces_between_protocols(self, tmp_path):
        # No fault noise; instead every durable surface dies and comes
        # back between each pair of protocols.
        faults = FaultPolicy(seed=0)
        system, net, endpoints = _durable_deployment(
            tmp_path, seed=b"recovery-all", faults=faults)
        addresses = [system.sserver.address, system.state.address,
                     system.pdevice.address]

        def crash_all():
            for address in addresses:
                faults.crash(address)
            for address in addresses:
                faults.restart(address)

        patient, server = system.patient, system.sserver
        patient.add_record(Category.ALLERGIES, ["allergies"],
                           ALLERGY_TEXT, server.address)
        patient.add_record(Category.CARDIOLOGY, ["cardiology"],
                           CARDIO_TEXT, server.address)
        private_phi_storage(patient, server, net)
        crash_all()
        assign_privilege(patient, system.family, server, net)
        assign_privilege(patient, system.pdevice, server, net)
        crash_all()
        rt = common_case_retrieval(patient, server, net, ["allergies"])
        assert [f.medical_content for f in rt.files] == [ALLERGY_TEXT]
        crash_all()
        physician = system.any_physician()
        system.state.sign_in(physician.hospital, physician.physician_id)
        pd = pdevice_emergency_retrieval(physician, system.pdevice,
                                         system.state, server, net,
                                         ["cardiology"])
        assert [f.medical_content for f in pd.files] == [CARDIO_TEXT]
        crash_all()
        _assert_evidence_intact(system, patient, server, net)
        assert all(e.recoveries >= 5 for e in endpoints.values())


def _federated_search(system, net, cid, keyword):
    """One frame-level search through the router; returns (frame, ν)."""
    patient = system.patient
    pseudonym = patient.fresh_pseudonym()
    nu = patient.session_key_with(system.sserver.identity_key.public,
                                  pseudonym)
    request = seal(nu, "phi-retrieve",
                   pack_fields(patient.trapdoor(keyword).to_bytes()),
                   net.now)
    frame = wire.make_frame(wire.OP_SEARCH, pseudonym.public.to_bytes(),
                            cid, request.to_bytes())
    return frame, nu


def _result_entries(nu, response, now):
    """Open a sealed phi-results reply; returns the flattened entries."""
    envelope = Envelope.from_bytes(wire.parse_response(response))
    payload = open_envelope(nu, envelope, now, None,
                            expected_label="phi-results")
    return unpack_fields(payload)


class TestFederatedShardRecovery:
    """One shard of the federation killed -9 mid ``OP_STORE``: the torn
    journal tail is repaired on restart, the scatter-gather search comes
    back complete, and replay protection holds through the router."""

    def _deployment(self, tmp_path, faults, shards=2):
        system = build_system(seed=b"recovery-federated")
        net = with_policies(LoopbackTransport(),
                            retry=RetryPolicy(attempt_timeout_s=0.2,
                                              base_backoff_s=0.01),
                            faults=faults)
        federation = bind_federated_sserver(
            net, system.sserver, shards, data_dir=str(tmp_path),
            fault_policy=faults)
        return system, net, federation

    def _store(self, system, net, text):
        server = system.sserver
        system.patient.add_record(Category.ALLERGIES, ["allergies"],
                                  text, server.address)
        private_phi_storage(system.patient, server, net)
        return system.patient.collection_ids[server.address]

    def test_shard_killed_mid_store_recovers_complete(self, tmp_path):
        faults = FaultPolicy(seed=CHAOS_SEED)
        system, net, federation = self._deployment(tmp_path, faults)
        server = system.sserver
        victim = federation.shard_addresses[0]
        victim_endpoint = next(e for e in federation.endpoints
                               if e.address == victim)

        # Seed enough collections that both shards hold data.
        cids = [self._store(system, net, "pre-crash record %d" % i)
                for i in range(4)]
        owners = {federation.ring.owner_str(cid) for cid in cids}
        assert owners == set(federation.shard_addresses)

        # kill -9 mid OP_STORE: arm a torn journal append on the victim,
        # then keep storing until a collection routes to it — that store
        # dies mid-commit, unacknowledged, and the client's retries see
        # the dead shard as a typed transient failure (no hang).
        faults.crash(victim, during_write=True)
        torn = False
        for i in range(8):
            try:
                cids.append(self._store(system, net,
                                        "mid-crash record %d" % i))
            except TransientTransportError:
                torn = True
                break
        assert torn, "no store ever routed to the armed shard"

        # While the victim is down, its collections are unreachable —
        # but the surviving shard keeps serving its slice.
        dead_cid = next(c for c in cids
                        if federation.ring.owner_str(c) == victim)
        live_cid = next(c for c in cids
                        if federation.ring.owner_str(c) != victim)
        frame, _ = _federated_search(system, net, dead_cid, "allergies")
        with pytest.raises(TransientTransportError):
            net.request("patient://probe", server.address, frame,
                        "phi/search")
        frame, nu = _federated_search(system, net, live_cid, "allergies")
        reply = net.request("patient://probe", server.address, frame,
                            "phi/search")
        assert _result_entries(nu, reply, net.now)

        # Supervisor restart: recovery replays the journal and repairs
        # the torn tail; only the never-acknowledged store was lost.
        faults.restart(victim)
        assert victim_endpoint.recoveries >= 2  # boot + this restart
        assert victim_endpoint._store.torn_repairs >= 1

        # The interrupted upload retries cleanly after recovery.
        cids.append(self._store(system, net, "post-restart record"))

        # Scatter-gather completeness: every collection on every shard
        # answers, and each search carries its matching files.
        per_cid = []
        for cid in cids:
            frame, nu = _federated_search(system, net, cid, "allergies")
            reply = net.request("patient://probe", server.address, frame,
                                "phi/search")
            entries = _result_entries(nu, reply, net.now)
            assert entries, "collection %r lost its files" % cid.hex()
            per_cid.append(len(entries))
        assert len(per_cid) == len(cids)

    def test_cross_shard_multi_after_restart(self, tmp_path):
        faults = FaultPolicy(seed=CHAOS_SEED)
        system, net, federation = self._deployment(tmp_path, faults)
        server = system.sserver
        cids = [self._store(system, net, "record %d" % i) for i in range(4)]
        assert ({federation.ring.owner_str(cid) for cid in cids}
                == set(federation.shard_addresses))
        victim = federation.shard_addresses[0]
        faults.crash(victim)
        faults.restart(victim)

        # The recovered shard re-arms its federation key: the internal
        # legs of a cross-shard OP_SEARCH_MULTI authenticate against it,
        # so the scattered search comes back complete after a restart.
        patient = system.patient
        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(server.identity_key.public,
                                      pseudonym)
        request = seal(nu, "phi-retrieve",
                       pack_fields(patient.trapdoor("allergies").to_bytes()),
                       net.now)
        frame = wire.make_frame(wire.OP_SEARCH_MULTI,
                                pseudonym.public.to_bytes(),
                                pack_fields(*cids), request.to_bytes())
        reply = net.request("patient://probe", server.address, frame,
                            "phi/search")
        # Each store snapshots the patient's cumulative collection, so
        # cid i matches i+1 files — completeness means every collection
        # (including the restarted shard's) contributed its slice.
        expected = sum(range(1, len(cids) + 1))
        assert len(_result_entries(nu, reply, net.now)) == expected

        # ...while an unauthenticated internal leg aimed straight at the
        # recovered shard still bounces before touching any state.
        forged_pseud = patient.fresh_pseudonym()
        forged_req = seal(
            patient.session_key_with(server.identity_key.public,
                                     forged_pseud),
            "phi-retrieve",
            pack_fields(patient.trapdoor("allergies").to_bytes()), net.now)
        forged = wire.make_frame(wire.OP_SEARCH_SHARD,
                                 forged_pseud.public.to_bytes(),
                                 pack_fields(*cids), forged_req.to_bytes())
        with pytest.raises(AuthenticationError):
            wire.parse_response(net.request("patient://probe", victim,
                                            forged, "attack/shard-leg"))

    def test_replay_through_router_rejected_after_restart(self, tmp_path):
        faults = FaultPolicy(seed=CHAOS_SEED)
        system, net, federation = self._deployment(tmp_path, faults)
        server = system.sserver
        cid = self._store(system, net, "replay target")
        victim = federation.ring.owner_str(cid)

        # Crash + restart the owning shard, then prove the recovered
        # replay-guard window still rejects a duplicated request routed
        # through the router (windows survive the journal round trip).
        faults.crash(victim)
        faults.restart(victim)
        frame, nu = _federated_search(system, net, cid, "allergies")
        reply = net.request("patient://probe", server.address, frame,
                            "phi/search")
        assert _result_entries(nu, reply, net.now)
        duplicate = net.request("patient://probe", server.address, frame,
                                "phi/search")
        with pytest.raises(ReplayError, match="replayed"):
            wire.parse_response(duplicate)


class TestRebalanceCrashRecovery:
    """kill -9 in the middle of a 4 → 5 shard rebalance: the journaled
    migration (pending manifest + destination-side journaled installs)
    rolls *forward* on the next bind — no collection lost, none
    double-owned, the epoch lands exactly once."""

    SEED = b"recovery-rebalance"

    def _deployment(self, tmp_path, faults, shards=4):
        system = build_system(seed=self.SEED)
        net = with_policies(LoopbackTransport(),
                            retry=RetryPolicy(attempt_timeout_s=0.2,
                                              base_backoff_s=0.01),
                            faults=faults)
        federation = bind_federated_sserver(
            net, system.sserver, shards, data_dir=str(tmp_path),
            fault_policy=faults)
        return system, net, federation

    def _store(self, system, net, text):
        server = system.sserver
        system.patient.add_record(Category.ALLERGIES, ["allergies"],
                                  text, server.address)
        private_phi_storage(system.patient, server, net)
        return system.patient.collection_ids[server.address]

    def _assert_owned_exactly_once(self, federation, cids):
        held = [cid for endpoint in federation.endpoints
                for cid in endpoint.server._collections]
        assert sorted(held) == sorted(set(held)), "double-owned collection"
        assert sorted(set(held)) == sorted(set(cids)), "a collection was lost"
        for endpoint in federation.endpoints:
            for cid in endpoint.server._collections:
                assert (federation.ring.owner_str(cid)
                        == endpoint.server.address)

    def test_kill9_mid_migration_rolls_forward(self, tmp_path):
        faults = FaultPolicy(seed=CHAOS_SEED)
        system, net, federation = self._deployment(tmp_path, faults)
        cids = sorted({self._store(system, net, "record %d" % i)
                       for i in range(8)})
        base = federation.shard_addresses[0].rsplit("-shard-", 1)[0]
        new_shard = "%s-shard-4" % base

        # kill -9 at the worst instant: once the pending manifest is
        # durable ("planned"), arm a torn journal append on the *new*
        # shard — its first journaled OP_MIGRATE_ACK install dies
        # mid-write, mid-copy-phase.
        steps = []

        def boom(step):
            steps.append(step)
            if step == "planned":
                faults.crash(new_shard, during_write=True)

        with pytest.raises(TransientTransportError):
            federation.add_shard(on_step=boom)
        assert steps == ["planned"]  # the copy phase never completed

        # The intent survived the crash: the manifest still carries the
        # committed 4-shard epoch plus the pending 5-shard target.
        with open(os.path.join(str(tmp_path), MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["epoch"] == 0
        assert manifest["pending"]["n_shards"] == 5

        # Process restart: a fresh bind over the same data_dir replays
        # every shard journal (repairing the torn tail) and rolls the
        # journaled migration forward to the 5-shard epoch.
        system2 = build_system(seed=self.SEED)
        faults2 = FaultPolicy(seed=CHAOS_SEED)
        net2 = with_policies(LoopbackTransport(),
                             retry=RetryPolicy(attempt_timeout_s=0.2,
                                               base_backoff_s=0.01),
                             faults=faults2)
        recovered = bind_federated_sserver(
            net2, system2.sserver, 4, data_dir=str(tmp_path),
            fault_policy=faults2)
        assert recovered.epoch == 1
        assert len(recovered.shards) == 5
        self._assert_owned_exactly_once(recovered, cids)
        with open(os.path.join(str(tmp_path), MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert "pending" not in manifest and "draining" not in manifest

        # Nothing was lost in flight: every pre-crash collection still
        # answers its search through the recovered 5-shard router.
        for cid in cids:
            frame, nu = _federated_search(system2, net2, cid, "allergies")
            reply = net2.request("patient://probe",
                                 system2.sserver.address, frame,
                                 "phi/search")
            assert _result_entries(nu, reply, net2.now), \
                "collection %r lost by the resumed migration" % cid.hex()

    def test_crash_after_commit_finishes_the_drain(self, tmp_path):
        # Same scenario, later instant: the new epoch is committed but
        # the sources crash before releasing their moved-away keys —
        # the next bind must finish the drain (no double ownership).
        faults = FaultPolicy(seed=CHAOS_SEED)
        system, net, federation = self._deployment(tmp_path, faults)
        cids = sorted({self._store(system, net, "record %d" % i)
                       for i in range(8)})

        class Abandon(Exception):
            pass

        def abandon(step):
            if step == "committed":
                raise Abandon  # kill -9 between commit and release

        with pytest.raises(Abandon):
            federation.add_shard(on_step=abandon)
        with open(os.path.join(str(tmp_path), MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["epoch"] == 1
        assert manifest["draining"]["from_shards"]

        system2 = build_system(seed=self.SEED)
        faults2 = FaultPolicy(seed=CHAOS_SEED)
        net2 = with_policies(LoopbackTransport(),
                             retry=RetryPolicy(attempt_timeout_s=0.2,
                                               base_backoff_s=0.01),
                             faults=faults2)
        recovered = bind_federated_sserver(
            net2, system2.sserver, 5, data_dir=str(tmp_path),
            fault_policy=faults2)
        assert recovered.epoch == 1
        self._assert_owned_exactly_once(recovered, cids)
        with open(os.path.join(str(tmp_path), MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert "draining" not in manifest
