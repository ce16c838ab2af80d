"""The three HCPP workloads: deployment, seeded rounds and their oracle.

Every workload runs against one real deployment: ``build_system`` with
the default ``type-a-160`` test parameters, its S-server served by a
4-shard ``bind_federated_sserver`` behind the router, and all traffic
carried by ``AsyncTransport`` over 127.0.0.1.  One closed-loop client
drives the rounds (it waits for each reply), so its connections are
the S-server router and the A-server.

A workload is a class with four steps:

* ``setup()`` builds the deployment and its data and warms it up,
  calling ``tick()`` between its steps;
* ``draw()`` returns the next round from the seeded stream;
* ``execute(round)`` runs it (the timed part) and ``check(round,
  result)`` compares what came back with the generator's expectation,
  returning the plaintext bytes the round delivered;
* ``close(log)`` runs the closing phase after the timed loop.

Inputs come from ``random.Random`` streams seeded by the workload name
and the ``--seed``; the program only ever sees the generated inputs.
"""

from __future__ import annotations

import datetime
import random
import shutil
import tempfile
import time

from repro.core import wire
from repro.core.federation import bind_federated_sserver
from repro.core.entities import Patient
from repro.core.protocols.emergency import (family_based_retrieval,
                                            pdevice_emergency_retrieval)
from repro.core.protocols.messages import (Envelope, open_envelope,
                                           pack_fields, seal, unpack_fields)
from repro.core.protocols.mhi import (mhi_retrieve, mhi_store,
                                      role_identity_for)
from repro.core.protocols.privilege import assign_privilege
from repro.core.protocols.retrieval import common_case_retrieval
from repro.core.protocols.storage import private_phi_storage
from repro.core.system import build_system
from repro.ehr.phi import PhiCollection
from repro.ehr.records import Category, PhiFile
from repro.net.transport import AsyncTransport

N_SHARDS = 4
FILES_PER_COLLECTION = 16
WARM_UP_ROUNDS = 2  # per round kind, at the end of every set-up
CLIENT = "client://hcppbench"

_CONDITIONS = (
    "penicillin", "aspirin", "warfarin", "statin", "metformin", "insulin",
    "beta-blocker", "opioid", "pneumonia", "fracture", "appendicitis",
    "pacemaker", "glucose", "hypertension", "diabetes", "migraine",
    "epilepsy", "asthma", "arrhythmia", "heart-failure", "dialysis",
    "transfusion", "anemia", "copd", "stroke", "hepatitis", "glaucoma",
    "gout", "psoriasis", "sepsis")
_CATEGORIES = tuple(Category)


class WrongResult(Exception):
    """A round answered, but not with what the generator expects."""


def phi_collection(rnd: random.Random, n_files: int, server_address: str,
                   patient_name: str) -> PhiCollection:
    """``n_files`` generated PHI files: one category keyword plus one to
    three condition keywords each."""
    collection = PhiCollection()
    for i in range(n_files):
        category = _CATEGORIES[i % len(_CATEGORIES)]
        conditions = rnd.sample(_CONDITIONS, rnd.randint(1, 3))
        phi_file = PhiFile(
            fid=rnd.randbytes(16), category=category,
            keywords=tuple(sorted({category.value, *conditions})),
            patient_fields={"name": patient_name,
                            "mrn": "MRN%06d" % rnd.randrange(10 ** 6)},
            medical_content="%s note %d: %s; follow-up in %d weeks."
            % (category.value, i, ", ".join(conditions),
               rnd.randint(1, 12)),
            created_at=float(i * 86400))
        collection.add(phi_file, server_address)
    return collection


def expected_files(collections, keyword: str) -> list:
    """Plaintext of every file in ``collections`` that carries ``keyword``."""
    return sorted(f.to_bytes() for collection in collections
                  for f in collection.files.values() if keyword in f.keywords)


def same_files(files, expected: list) -> int:
    """Raise unless ``files`` are exactly ``expected``; return their bytes."""
    got = sorted(f.to_bytes() for f in files)
    if got != expected:
        raise WrongResult("%d files returned, %d expected"
                          % (len(got), len(expected)))
    return sum(len(b) for b in got)


def zipf_cum_weights(n: int, exponent: float) -> list:
    total, cum = 0.0, []
    for rank in range(1, n + 1):
        total += rank ** -exponent
        cum.append(total)
    return cum


def mhi_days(first: datetime.date, count: int) -> list:
    return [(first + datetime.timedelta(days=k)).isoformat()
            for k in range(count)]


class Workload:
    """Shared deployment plumbing; subclasses define the rounds."""

    name = ""
    #: (round kind, rounds per deck of 20) — the timed mix; the first
    #: kind is the workload's main round, the second its second.
    mix: tuple = ()
    durable = False
    #: Rounds per phase of a traced run (fixed, so counts repeat).
    trace_rounds = 0
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Log position of the round being checked (None during set-up).
    position = None

    def __init__(self, seed: int, work_root: str) -> None:
        self.seed = seed
        self.work_root = work_root
        self.data_rnd = random.Random("hcppbench/%s/data/%d"
                                      % (self.name, seed))
        self.draw_rnd = random.Random("hcppbench/%s/draws/%d"
                                      % (self.name, seed))
        self.data_dir = None
        self.net = None
        self._deck: list = []

    # -- deployment -----------------------------------------------------------
    def deploy(self) -> None:
        self.system = build_system(
            seed=b"hcppbench/%s/%d" % (self.name.encode(), self.seed))
        self.server = self.system.sserver
        if self.durable:
            self.data_dir = tempfile.mkdtemp(prefix=self.name + "-",
                                             dir=self.work_root)
        self.net = AsyncTransport()
        bind_federated_sserver(self.net, self.server, N_SHARDS,
                               data_dir=self.data_dir)
        self.physician = self.system.any_physician()
        self.system.state.sign_in(self.physician.hospital,
                                  self.physician.physician_id)
        self.tick()

    def tick(self) -> None:
        """A set-up step ended.  The untraced run replaces this with a
        stopwatch that times set-up step by step."""

    def patients(self, count: int) -> list:
        system = self.system
        patients = [system.patient]
        for i in range(1, count):
            pair = system.state.issue_temporary_pool(1)[0]
            patients.append(Patient(
                "patient-%02d" % i, system.params, system.state.public_key,
                pair, system.rng.fork("hcppbench-patient-%d" % i)))
        return patients

    def store(self, patient, collection) -> bytes:
        patient.import_collection(collection)
        return private_phi_storage(patient, self.server,
                                   self.net).collection_id

    def restart(self) -> float:
        """Rebind fresh endpoints over the same data dir; seconds taken."""
        self.net.close()
        self.net = AsyncTransport()
        started = time.perf_counter()
        bind_federated_sserver(self.net, self.server, N_SHARDS,
                               data_dir=self.data_dir)
        return time.perf_counter() - started

    def teardown(self) -> None:
        if self.net is not None:
            self.net.close()
            self.net = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None

    def warm_up(self) -> None:
        """Fill caches before timing; a failing warm-up round raises."""
        for kind, _weight in self.mix:
            for _ in range(WARM_UP_ROUNDS):
                spec = self.draw(kind)
                self.check(spec, self.execute(spec))
                self.tick()

    def pick_kind(self) -> str:
        """Next kind from a shuffled deck holding each kind ``weight``
        times, so every deck of rounds has the mix's exact proportions."""
        if not self._deck:
            self._deck = [kind for kind, weight in self.mix
                          for _ in range(weight)]
            self.draw_rnd.shuffle(self._deck)
        return self._deck.pop()

    def environment(self) -> dict:
        return {"params": self.system.params.name, "shards": N_SHARDS,
                "carrier": "async", "fsync": ("always" if self.durable
                                              else "in-memory")}


class SearchWorkload(Workload):
    """Read path: retrieve / batch / multi over 32 patients' durable PHI."""

    name = "search"
    mix = (("retrieve", 14), ("batch", 3), ("multi", 3))
    durable = True
    trace_rounds = 300
    N_PATIENTS = 32
    COLLECTIONS = 4
    BATCH = 8

    def setup(self) -> None:
        self.deploy()
        self.people = self.patients(self.N_PATIENTS)
        self.collections, self.cids, self.words = [], [], []
        for patient in self.people:
            mine = [phi_collection(self.data_rnd, FILES_PER_COLLECTION,
                                   self.server.address, patient.name)
                    for _ in range(self.COLLECTIONS)]
            self.collections.append(mine)
            self.cids.append([])
            for collection in mine:
                self.cids[-1].append(self.store(patient, collection))
                self.tick()
            self.words.append(sorted({kw for c in mine
                                      for kw in c.index.keywords()}))
        self.zipf = zipf_cum_weights(self.N_PATIENTS, 1.1)
        self.warm_up()

    def _patient(self) -> int:
        return self.draw_rnd.choices(range(self.N_PATIENTS),
                                     cum_weights=self.zipf)[0]

    def _entry(self, index: int) -> tuple:
        return (index, self.draw_rnd.randrange(self.COLLECTIONS),
                self.draw_rnd.choice(self.words[index]))

    def draw(self, kind=None) -> tuple:
        kind = kind or self.pick_kind()
        if kind == "batch":
            chosen: list = []
            while len(chosen) < self.BATCH:
                index = self._patient()
                if index not in chosen:
                    chosen.append(index)
            return kind, [self._entry(index) for index in chosen]
        return kind, self._entry(self._patient())

    def _sealed(self, patient, keyword: str):
        pseudonym = patient.fresh_pseudonym()
        nu = patient.session_key_with(self.server.identity_key.public,
                                      pseudonym)
        envelope = seal(nu, "phi-retrieve",
                        pack_fields(patient.trapdoor(keyword).to_bytes()),
                        self.net.now)
        return pseudonym.public.to_bytes(), nu, envelope.to_bytes()

    def _opened(self, patient, nu: bytes, reply: bytes) -> list:
        payload = open_envelope(nu, Envelope.from_bytes(reply), self.net.now,
                                patient.replay_guard,
                                expected_label="phi-results")
        return patient.decrypt_results(unpack_fields(payload))

    def execute(self, spec):
        kind, arg = spec
        if kind == "retrieve":
            index, slot, keyword = arg
            patient = self.people[index]
            patient.collection_ids[self.server.address] = \
                self.cids[index][slot]
            return common_case_retrieval(patient, self.server, self.net,
                                         [keyword]).files
        if kind == "batch":
            entries, keys = [], []
            for index, slot, keyword in arg:
                pseud_b, nu, env_b = self._sealed(self.people[index],
                                                  keyword)
                entries.append(pack_fields(pseud_b, self.cids[index][slot],
                                           env_b))
                keys.append(nu)
            response = self.net.request(
                CLIENT, self.server.address,
                wire.make_frame(wire.OP_SEARCH_BATCH, *entries),
                label="bench/batch", reply_label="bench/batch-results")
            replies = unpack_fields(wire.parse_response(response))
            if len(replies) != len(arg):
                raise WrongResult("batch answered %d of %d entries"
                                  % (len(replies), len(arg)))
            return [self._opened(self.people[index], nu,
                                 wire.parse_response(reply))
                    for (index, _, _), nu, reply in zip(arg, keys, replies)]
        index, _slot, keyword = arg
        patient = self.people[index]
        pseud_b, nu, env_b = self._sealed(patient, keyword)
        response = self.net.request(
            CLIENT, self.server.address,
            wire.make_frame(wire.OP_SEARCH_MULTI, pseud_b,
                            pack_fields(*self.cids[index]), env_b),
            label="bench/multi", reply_label="bench/multi-results")
        return self._opened(patient, nu, wire.parse_response(response))

    def check(self, spec, result) -> int:
        kind, arg = spec
        if kind == "retrieve":
            index, slot, keyword = arg
            return same_files(result, expected_files(
                [self.collections[index][slot]], keyword))
        if kind == "batch":
            return sum(same_files(files, expected_files(
                [self.collections[index][slot]], keyword))
                for (index, slot, keyword), files in zip(arg, result))
        index, _slot, keyword = arg
        return same_files(result, expected_files(self.collections[index],
                                                 keyword))

    def close(self, log) -> dict:
        """Restart: replay every shard journal into fresh endpoints."""
        return {"recover_s": self.restart()}


class EmergencyWorkload(Workload):
    """Break-glass path over in-memory shards: P-device, family, MHI."""

    name = "emergency"
    setup_repeats = 7
    mix = (("pdevice", 9), ("family", 8), ("mhi_retrieve", 3))
    trace_rounds = 150
    FILES = 24
    MHI_DAYS = 7

    def setup(self) -> None:
        self.deploy()
        system = self.system
        patient = system.patient
        self.collection = phi_collection(self.data_rnd, self.FILES,
                                         self.server.address, patient.name)
        self.store(patient, self.collection)
        self.tick()
        self.words = sorted(self.collection.index.keywords())
        assign_privilege(patient, system.family, self.server, self.net)
        assign_privilege(patient, system.pdevice, self.server, self.net)
        self.tick()
        first = datetime.date(2026, 7, 1)
        self.role = role_identity_for(first.isoformat())
        self.windows = []
        for day in mhi_days(first, self.MHI_DAYS):
            window = system.pdevice.vitals.generate_day(day)
            mhi_store(system.pdevice, self.server, system.state.public_key,
                      self.net, window, self.role)
            self.windows.append(window)
            self.tick()
        # Query the days every stored window of the horizon covers, so
        # each MHI round tests and decrypts the same number of windows.
        coverage = {day: sum(day in w.searchable_days for w in self.windows)
                    for day in mhi_days(first, self.MHI_DAYS)}
        self.days = [day for day, n in coverage.items()
                     if n == max(coverage.values())]
        self.warm_up()

    def draw(self, kind=None) -> tuple:
        kind = kind or self.pick_kind()
        if kind == "mhi_retrieve":
            return kind, self.draw_rnd.choice(self.days)
        return kind, self.draw_rnd.choice(self.words)

    def execute(self, spec):
        kind, arg = spec
        system, physician = self.system, self.physician
        if kind == "pdevice":
            traces = len(system.state.traces)
            records = len(system.pdevice.records)
            files = pdevice_emergency_retrieval(
                physician, system.pdevice, system.state, self.server,
                self.net, [arg]).files
            result = (files, system.state.traces[traces:],
                      system.pdevice.records[records:])
        elif kind == "family":
            result = family_based_retrieval(system.family, self.server,
                                            self.net, [arg],
                                            physician=physician).files
        else:
            result = mhi_retrieve(physician, system.state, self.server,
                                  self.net, self.role, arg).windows
        # Client-side hand-over lists; the benchmark has no use for them.
        physician.received_phi.clear()
        physician.received_mhi.clear()
        return result

    def check(self, spec, result) -> int:
        kind, arg = spec
        if kind == "mhi_retrieve":
            got = sorted(w.to_bytes() for w in result)
            expected = sorted(w.to_bytes() for w in self.windows
                              if arg in w.searchable_days)
            if got != expected:
                raise WrongResult("%d MHI windows returned, %d expected"
                                  % (len(got), len(expected)))
            return sum(len(b) for b in got)
        if kind == "family":
            return same_files(result, expected_files([self.collection],
                                                     arg))
        files, traces, records = result
        if len(traces) != 1 or len(records) != 1:
            raise WrongResult("P-device round left %d TRs and %d RDs"
                              % (len(traces), len(records)))
        trace, record = traces[0], records[0]
        params, pkg = self.system.params, self.system.state.public_key
        if (record.physician_id != self.physician.physician_id
                or record.patient_pseudonym != trace.patient_pseudonym):
            raise WrongResult("RD does not match the A-server's TR")
        if not (trace.verify(params, pkg) and record.verify(params, pkg)):
            raise WrongResult("TR or RD does not verify under IBS")
        return same_files(files, expected_files([self.collection], arg))

    def close(self, log) -> dict:
        """Nothing is durable; every round was checked when it ran."""
        return {}


class IngestWorkload(Workload):
    """Write path: PHI uploads and MHI windows onto durable shards."""

    name = "ingest"
    setup_repeats = 11
    mix = (("store", 17), ("mhi_store", 3))
    durable = True
    trace_rounds = 60
    N_PATIENTS = 16

    def setup(self) -> None:
        self.deploy()
        system = self.system
        self.people = self.patients(self.N_PATIENTS)
        # The P-device needs an ASSIGN package (its pseudonym and ν) to
        # upload MHI, which needs one stored collection first.
        first = phi_collection(self.data_rnd, FILES_PER_COLLECTION,
                               self.server.address, system.patient.name)
        cid = self.store(system.patient, first)
        assign_privilege(system.patient, system.pdevice, self.server,
                         self.net)
        self.tick()
        self.first_words = sorted(first.index.keywords())
        # Acknowledged uploads: (patient index, cid, collection) and
        # (role, window), each with the log position of its round.
        self.acked = [(0, cid, first, None)]
        self.acked_mhi = []
        self.next_day = datetime.date(2026, 1, 1)
        self.warm_up()

    def draw(self, kind=None) -> tuple:
        kind = kind or self.pick_kind()
        if kind == "store":
            index = self.draw_rnd.randrange(self.N_PATIENTS)
            return kind, (index, phi_collection(
                self.draw_rnd, FILES_PER_COLLECTION, self.server.address,
                self.people[index].name))
        day = self.next_day.isoformat()
        self.next_day += datetime.timedelta(days=1)
        return kind, (role_identity_for(day),
                      self.system.pdevice.vitals.generate_day(day))

    def execute(self, spec):
        kind, arg = spec
        if kind == "store":
            index, collection = arg
            return self.store(self.people[index], collection)
        role, window = arg
        return mhi_store(self.system.pdevice, self.server,
                         self.system.state.public_key, self.net, window,
                         role)

    def check(self, spec, result) -> int:
        kind, arg = spec
        if kind == "store":
            if not result:
                raise WrongResult("upload acknowledged without a handle")
            index, collection = arg
            self.acked.append((index, result, collection, self.position))
            return collection.total_plaintext_bytes()
        role, window = arg
        self.acked_mhi.append((role, window, self.position))
        return len(window.to_bytes())

    def close(self, log) -> dict:
        """Restart over the journals, then the durability check: every
        acknowledged upload must answer a search with its files."""
        recover_s = self.restart()
        verify_ms = []
        for index, cid, collection, position in self.acked:
            patient = self.people[index]
            keyword = self.draw_rnd.choice(sorted(
                collection.index.keywords()))
            patient.collection_ids[self.server.address] = cid
            started = time.perf_counter()
            try:
                files = common_case_retrieval(patient, self.server, self.net,
                                              [keyword]).files
                elapsed = time.perf_counter() - started
                same_files(files, expected_files([collection], keyword))
            except Exception as exc:  # a lost upload fails its round
                log.fail_late(position, "Lost:" + type(exc).__name__)
                continue
            verify_ms.append(elapsed * 1000.0)
        if self.acked_mhi:
            try:
                # An authenticated emergency session lets the physician
                # fetch role keys, which the MHI half of the check needs.
                pdevice_emergency_retrieval(
                    self.physician, self.system.pdevice, self.system.state,
                    self.server, self.net, [self.first_words[0]])
            except Exception as exc:
                for _role, _window, position in self.acked_mhi:
                    log.fail_late(position, "Unverified:"
                                  + type(exc).__name__)
                self.acked_mhi = []
        for role, window, position in self.acked_mhi:
            expected = sorted(w.to_bytes() for r, w, _ in self.acked_mhi
                              if r == role and window.day in w.searchable_days)
            try:
                windows = mhi_retrieve(self.physician, self.system.state,
                                       self.server, self.net, role,
                                       window.day).windows
                if sorted(w.to_bytes() for w in windows) != expected:
                    raise WrongResult("MHI window lost")
            except Exception as exc:
                log.fail_late(position, "Lost:" + type(exc).__name__)
        self.physician.received_phi.clear()
        self.physician.received_mhi.clear()
        return {"recover_s": recover_s, "verify_ms": verify_ms}


WORKLOADS = {cls.name: cls for cls in (SearchWorkload, EmergencyWorkload,
                                       IngestWorkload)}
