"""Transport parity: one protocol suite, three interchangeable carriers.

The same seeded deployment is driven through every protocol over the
in-process loopback, the discrete-event simulator and the TCP carrier.
Because protocols serialize to wire frames before any transport touches
them, the retrieved plaintext AND the per-protocol frame accounting
(message count, byte total) must be identical across all three
backends — the simulator measures exactly what a TCP deployment would
send.
"""

from __future__ import annotations

import pytest

from repro.ehr.mhi import AnomalyKind
from repro.ehr.records import Category
from repro.core.system import build_system
from repro.core.protocols.emergency import (family_based_retrieval,
                                            pdevice_emergency_retrieval)
from repro.core.protocols.mhi import (mhi_retrieve, mhi_store,
                                      role_identity_for)
from repro.core.protocols.privilege import (assign_privilege,
                                            revoke_privilege)
from repro.core.protocols.retrieval import common_case_retrieval
from repro.core.protocols.storage import private_phi_storage
from repro.net.transport import (AsyncTransport, LoopbackTransport,
                                 SimTransport)

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
    """What must agree across backends: frame accounting + plaintext."""
    entry = {"messages": stats.messages, "bytes": stats.bytes_total}
    if files is not None:
        entry["plaintext"] = sorted(f.medical_content for f in files)
    return entry


def run_suite(backend: str) -> dict:
    """Drive every protocol over one backend; return its fingerprints."""
    system = build_system(seed=b"transport-parity")
    net = _make_transport(backend, system)
    patient, server = system.patient, system.sserver
    try:
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


def _crossdomain_federation(backend: str):
    """The §V.A two-state setup from test_crossdomain, per backend."""
    from repro.crypto.params import test_params
    from repro.crypto.rng import HmacDrbg
    from repro.core.aserver import FederalAServer
    from repro.core.entities import Patient
    from repro.core.sserver import StorageServer
    from repro.net.link import LinkClass
    from repro.net.sim import Network

    params = test_params()
    rng = HmacDrbg(b"parity-crossdomain")
    federal = FederalAServer(params, rng)
    federal.create_state_server("TN")
    federal.create_state_server("FL")
    tn_hospital = federal.create_hospital_node("TN", "knox-general")
    fl_hospital = federal.create_hospital_node("FL", "miami-general")
    fl_sserver_node = fl_hospital.extract_child("sserver", rng)

    fl_state = federal.state("FL")
    server = StorageServer("miami-general", params,
                           fl_state.enroll("sserver:miami-general"),
                           rng.fork("fl-server"))
    patient = Patient("traveler", params, fl_state.public_key,
                      fl_state.issue_temporary_pool(1)[0],
                      rng.fork("patient"))
    patient_node = federal.issue_patient_node(tn_hospital, rng.fork("leaf"))

    if backend == "sim":
        net = Network(rng.fork("net"))
        net.add_node(patient.address)
        net.add_node(server.address)
        net.connect(patient.address, server.address, LinkClass.INTERNET)
    elif backend == "async":
        net = AsyncTransport()
    else:
        net = LoopbackTransport()

    patient.add_record(Category.SURGERIES, ["surgeries"],
                       "Appendectomy in Florida.", server.address)
    private_phi_storage(patient, server, net)
    return (federal, patient, patient_node, server, fl_sserver_node, net)


def run_crossdomain(backend: str) -> dict:
    from repro.core.protocols.crossdomain import cross_domain_retrieval
    (federal, patient, patient_node, server, server_node,
     net) = _crossdomain_federation(backend)
    try:
        result = cross_domain_retrieval(
            patient, patient_node, server, server_node,
            federal.root_public, net, ["surgeries"])
        return _fingerprint(result.stats, result.files)
    finally:
        _close(net)


class TestTransportParity:
    """All six protocols, three backends, byte-identical accounting."""

    def test_protocol_suite_identical_across_backends(self):
        baseline = run_suite("loopback")
        for backend in ("sim", "async"):
            assert run_suite(backend) == baseline, backend

    def test_crossdomain_identical_across_backends(self):
        baseline = run_crossdomain("loopback")
        for backend in ("sim", "async"):
            assert run_crossdomain(backend) == baseline, backend

    def test_pinned_message_counts_hold_on_loopback(self):
        """The paper's round counts are transport-independent."""
        out = run_suite("loopback")
        assert out["storage"]["messages"] == 1
        assert out["retrieval"]["messages"] == 2
        assert out["family-emergency"]["messages"] == 4
        assert out["pdevice-emergency"]["messages"] == 11
        assert out["revoke"]["messages"] == 1
        assert out["mhi-store"]["messages"] == 1
        assert out["mhi-retrieve"]["messages"] == 4

    def test_mhi_roundtrip_recovers_window(self):
        out = run_suite("async")
        assert out["mhi-days"] == ["2026-07-01"]


class TestSimTransportAdapters:
    def test_as_transport_caches_per_network(self, system):
        from repro.net.transport import as_transport
        first = as_transport(system.network)
        assert isinstance(first, SimTransport)
        assert as_transport(system.network) is first
        assert as_transport(first) is first

    def test_as_transport_rejects_other_types(self):
        from repro.exceptions import ParameterError
        from repro.net.transport import as_transport
        with pytest.raises(ParameterError):
            as_transport(object())
