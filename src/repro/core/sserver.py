"""The S-server: honest-but-curious storage at each hospital (§III.A).

*"S-server is provided by each hospital/clinic to store the patient's PHI.
It can be considered as a public server and is not trusted by patients."*

The server stores, per pseudonymous collection:

* the secure index SI = (A, T) and the encrypted file collection Λ,
* the current multi-user secret d and the broadcast BE_U(d),

and, for monitored patients, the IBE-encrypted MHI windows with their
PEKS tags.  **At no point does it hold a decryption key for any of it.**

Every handler takes / returns :class:`~repro.core.protocols.messages.Envelope`
objects whose HMAC keys are derived non-interactively (SOK) from the
pseudonym presented in the message — the server needs only its own private
key Γ_S.  Handlers verify integrity and freshness before acting.

The server also keeps an ``observations`` log of everything an
honest-but-curious adversary in its position would see (pseudonyms,
collection ids, trapdoor addresses, timing); the traffic-analysis
experiments mine this log.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field, replace

from repro.crypto.broadcast import BroadcastCiphertext
from repro.crypto.ec import Point
from repro.crypto.ibe import IbeCiphertext, IdentityKeyPair
from repro.crypto.hashes import h1_identity
from repro.crypto.modes import AuthenticatedCipher
from repro.crypto.nike import shared_key_from_points
from repro.crypto.params import DomainParams
from repro.crypto.peks import MultiKeywordPeks, MultiKeywordTag, PeksTrapdoor
from repro.crypto.rng import HmacDrbg
from repro.sse.index import SecureIndex, Trapdoor, load_index_cached
from repro.sse.multiuser import WrappedTrapdoor, unwrap_trapdoor
from repro.core.protocols.messages import (Envelope, ReplayGuard,
                                           open_envelope, pack_fields, seal,
                                           unpack_fields)
from repro.core.shard import collection_id_for_tag
from repro.exceptions import ParameterError, ReproError, StorageError


@dataclass
class StoredCollection:
    """One pseudonymous PHI collection as the server sees it.

    A collection holds its index either live (``index``) or as the
    serialized blob the client uploaded (``index_blob``); blob-backed
    collections are deserialized on demand through the bounded
    :func:`repro.sse.index.load_index_cached` cache, so hot collections
    pay the parse once and cold ones cost no deserialized memory.
    """

    collection_id: bytes
    index: SecureIndex | None
    files: dict[bytes, bytes]            # fid -> E′_s ciphertext
    group_secret_d: bytes                # current d (server-side copy)
    broadcast_d: BroadcastCiphertext     # BE_U(d) for privileged entities
    index_blob: bytes | None = field(default=None, repr=False)

    def resolve_index(self) -> SecureIndex:
        """The live :class:`SecureIndex` for this collection."""
        if self.index is not None:
            return self.index
        if self.index_blob is None:
            raise StorageError("collection has neither index nor blob")
        return load_index_cached(self.index_blob)

    def storage_bytes(self) -> int:
        if self.index_blob is not None:
            index_bytes = len(self.index_blob)
        else:
            index_bytes = self.index.size_bytes()
        return (index_bytes
                + sum(len(ct) for ct in self.files.values())
                + len(self.group_secret_d) + self.broadcast_d.size_bytes())


@dataclass
class StoredMhi:
    """One IBE-encrypted MHI window plus its searchable PEKS tag."""

    role_identity: str
    ciphertext: IbeCiphertext
    tag: MultiKeywordTag


@dataclass(frozen=True)
class SearchRequest:
    """One client search request, as queued for the batched handler."""

    pseudonym: Point
    collection_id: bytes
    envelope: Envelope


@dataclass(frozen=True)
class Observation:
    """What a curious S-server operator records about one request."""

    kind: str
    pseudonym: bytes
    collection_id: bytes
    detail: bytes
    timestamp: float


#: Labels a single-collection retrieval accepts: the same-domain SOK
#: request and the cross-domain (HIBC session) one.
_RETRIEVE_LABELS = ("phi-retrieve", "crossdomain/retrieve")


def _collection_id_for(envelope: Envelope) -> bytes:
    """Deterministic collection id, derived from the store envelope's tag.

    The tag is an HMAC over payload ‖ timestamp, so it is unique per
    accepted upload (a reused tag is rejected by the replay guard before
    we get here) and — unlike an RNG draw — reproducible during crash
    recovery, where the journal replays the same envelope against a
    fresh server whose DRBG is back at its initial state.

    The derivation lives in :mod:`repro.core.shard` so the federation
    router — which must pick the owning shard from the OP_STORE frame
    *before* any server has accepted it — mints the identical id.
    """
    return collection_id_for_tag(envelope.tag)


class StorageServer:
    """An HCPP S-server instance."""

    def __init__(self, name: str, params: DomainParams,
                 identity_key: IdentityKeyPair, rng: HmacDrbg) -> None:
        self.name = name
        self.address = "sserver://" + name
        self.params = params
        self.identity_key = identity_key         # (PK_S, Γ_S)
        self._rng = rng
        self._collections: dict[bytes, StoredCollection] = {}
        self._mhi: list[StoredMhi] = []
        self._guard = ReplayGuard()
        self.observations: list[Observation] = []
        self._observe_lock = threading.Lock()
        self.deleted_abnormal = 0  # DoS countermeasure counter (§VI.D)

    # -- key derivation -----------------------------------------------------
    def session_key(self, client_public: Point) -> bytes:
        """ν (or ρ) = KDF(ê(Γ_S, client_public)) — SOK, no messages."""
        return shared_key_from_points(self.identity_key.private, client_public)

    def _observe(self, kind: str, pseudonym: bytes, collection_id: bytes,
                 detail: bytes, now: float) -> None:
        with self._observe_lock:
            self.observations.append(Observation(
                kind=kind, pseudonym=pseudonym, collection_id=collection_id,
                detail=detail, timestamp=now))

    # -- private PHI storage (§IV.B) -------------------------------------
    def handle_store(self, pseudonym: Point, envelope: Envelope,
                     index: SecureIndex, files: dict[bytes, bytes],
                     group_secret_d: bytes,
                     broadcast_d: BroadcastCiphertext, now: float) -> bytes:
        """Verify and accept an upload; returns the new collection id.

        The bulky SI/Λ objects travel beside the envelope (whose payload
        carries their digest-sized summary); the envelope's HMAC_ν is the
        integrity check the paper specifies.
        """
        key = self.session_key(pseudonym)
        open_envelope(key, envelope, now, self._guard,
                      expected_label="phi-store")
        collection_id = _collection_id_for(envelope)
        self._collections[collection_id] = StoredCollection(
            collection_id=collection_id, index=index, files=dict(files),
            group_secret_d=group_secret_d, broadcast_d=broadcast_d)
        self._observe("store", pseudonym.to_bytes(), collection_id,
                      b"files=%d" % len(files), now)
        return collection_id

    def handle_store_serialized(self, pseudonym: Point, envelope: Envelope,
                                index_blob: bytes, files: dict[bytes, bytes],
                                group_secret_d: bytes,
                                broadcast_d: BroadcastCiphertext,
                                now: float) -> bytes:
        """Accept an upload whose SI travels in serialized form.

        The server keeps the blob verbatim (what it would persist to disk)
        and deserializes lazily through the index cache at search time.
        Search results are identical to :meth:`handle_store` with
        ``SecureIndex.from_bytes(index_blob)``.
        """
        key = self.session_key(pseudonym)
        open_envelope(key, envelope, now, self._guard,
                      expected_label="phi-store")
        collection_id = _collection_id_for(envelope)
        self._collections[collection_id] = StoredCollection(
            collection_id=collection_id, index=None, files=dict(files),
            group_secret_d=group_secret_d, broadcast_d=broadcast_d,
            index_blob=index_blob)
        self._observe("store", pseudonym.to_bytes(), collection_id,
                      b"files=%d" % len(files), now)
        return collection_id

    def _collection(self, collection_id: bytes) -> StoredCollection:
        collection = self._collections.get(collection_id)
        if collection is None:
            raise StorageError("unknown collection id")
        return collection

    # -- retrieval (§IV.D, §IV.E.1) ------------------------------------------
    def _search(self, key: bytes, observed: bytes,
                collection_ids: "list[bytes]", envelope: Envelope,
                now: float, guard: "ReplayGuard | None",
                labels: "str | tuple[str, ...]" = "phi-retrieve",
                wrapped: bool = False,
                foreign: "dict[bytes, list[bytes]] | None" = None,
                sealed: bool = True) -> "Envelope | list[list[bytes]]":
        """The one S-server search: open, walk each collection, seal.

        Verifies the envelope (HMAC under ``key``, label, freshness, and
        the replay window when ``guard`` is given), then looks up every
        requested collection — except those ``foreign`` already answers
        — before searching any.  Each trapdoor in the payload is decoded
        (θ_d-unwrapped under the collection's current d when
        ``wrapped``), logged as one observation, walked through the
        index and resolved fid → ``fid ‖ ct``.  Returns the results
        sealed under ``key`` in collection order, or the raw per-
        collection chunks when ``sealed`` is false.
        """
        payload = open_envelope(key, envelope, now, guard,
                                expected_label=labels)
        raw_trapdoors = unpack_fields(payload)
        foreign = foreign or {}
        collections = [None if cid in foreign else self._collection(cid)
                       for cid in collection_ids]
        kind = "search-wrapped" if wrapped else "search"
        chunks: list[list[bytes]] = []
        for cid, collection in zip(collection_ids, collections):
            if collection is None:
                chunks.append(foreign[cid])
                continue
            index = collection.resolve_index()
            results: list[bytes] = []
            for raw in raw_trapdoors:
                if wrapped:
                    trapdoor = unwrap_trapdoor(collection.group_secret_d,
                                               WrappedTrapdoor(raw))
                else:
                    trapdoor = Trapdoor.from_bytes(raw)
                self._observe(kind, observed, cid,
                              trapdoor.address.to_bytes(16, "big"), now)
                for fid in index.search(trapdoor):
                    ciphertext = collection.files.get(fid)
                    if ciphertext is None:
                        raise StorageError("index references a missing file")
                    results.append(fid + ciphertext)
            chunks.append(results)
        if not sealed:
            return chunks
        return seal(key, "phi-results",
                    pack_fields(*[item for chunk in chunks for item in chunk]),
                    now)

    def handle_search(self, pseudonym: Point, collection_id: bytes,
                      envelope: Envelope, now: float) -> Envelope:
        """Steps 1→2: verify HMAC_ν, run SEARCH, return Λ(kw) under HMAC_ν.

        The envelope payload is one or more serialized trapdoors (the
        paper: "multiple keywords can be searched in step 1").
        """
        return self._search(self.session_key(pseudonym), pseudonym.to_bytes(),
                            [collection_id], envelope, now, self._guard,
                            _RETRIEVE_LABELS)

    def handle_search_session(self, session_key: bytes,
                              collection_id: bytes, envelope: Envelope,
                              now: float) -> Envelope:
        """The cross-domain variant (§IV.D note): identical flow, but the
        shared key was established through the HIBC handshake instead of
        the same-domain SOK pairing."""
        return self._search(session_key, b"hibc-session", [collection_id],
                            envelope, now, self._guard, _RETRIEVE_LABELS)

    def handle_search_batch(self, requests: "list[SearchRequest]",
                            now: float) -> list[Envelope]:
        """:meth:`handle_search` per request, in order; the first error
        propagates."""
        return [self.handle_search(r.pseudonym, r.collection_id, r.envelope,
                                   now) for r in requests]

    def handle_search_each(self, requests: "list[SearchRequest]",
                           now: float) -> "list[tuple[Envelope | None, Exception | None]]":
        """Per-request outcomes for the batched wire op (OP_SEARCH_BATCH).

        Each request resolves independently to ``(reply, None)`` or
        ``(None, exception)``, its SOK key derivation included: a bad
        pseudonym (say, the point at infinity) fails only its own entry,
        before that entry touches the replay guard.  Independence is
        what lets the federation router splice per-shard sub-batches
        back together with responses byte-identical to one server
        handling the whole batch: entry k's outcome depends only on
        entry k, never on its neighbours.
        """
        outcomes: list[tuple[Envelope | None, Exception | None]] = []
        for req in requests:
            try:
                outcomes.append((self._search(
                    self.session_key(req.pseudonym), req.pseudonym.to_bytes(),
                    [req.collection_id], req.envelope, now, self._guard,
                    _RETRIEVE_LABELS), None))
            except ReproError as exc:
                outcomes.append((None, exc))
        return outcomes

    def handle_search_shard(self, pseudonym: Point,
                            collection_ids: list[bytes], envelope: Envelope,
                            now: float) -> list[list[bytes]]:
        """The guard-free shard leg of a scattered multi-collection search.

        Verifies the envelope fully — label, HMAC_ν, freshness — but does
        **not** consume the replay window and seals nothing: the merge
        shard (the one collection-owner that splices the combined reply,
        :meth:`handle_search_merge`) performs the single guarded open, so
        a scattered request burns exactly one replay-guard commitment —
        the same as one server serving OP_SEARCH_MULTI alone.  Returns
        one raw ``fid ‖ ct`` result list per requested collection, in
        the caller's collection order.
        """
        return self._search(self.session_key(pseudonym), pseudonym.to_bytes(),
                            collection_ids, envelope, now, None, sealed=False)

    def handle_search_merge(self, pseudonym: Point,
                            collection_ids: list[bytes], envelope: Envelope,
                            foreign_chunks: "dict[bytes, list[bytes]]",
                            now: float) -> Envelope:
        """The guarded merge leg of a scattered multi-collection search.

        Opens the envelope exactly like :meth:`handle_search_multi`
        (consuming the replay window), searches the locally-owned
        collections, and splices the foreign shards' pre-computed result
        chunks in at their positions in the caller's collection order —
        so the sealed reply is byte-identical to one server that held
        every collection.  The router sends this leg *last*: if any
        foreign shard fails, the guard here was never consumed and the
        client's retry replays cleanly.
        """
        return self._search(self.session_key(pseudonym), pseudonym.to_bytes(),
                            collection_ids, envelope, now, self._guard,
                            foreign=foreign_chunks)

    def handle_search_multi(self, pseudonym: Point,
                            collection_ids: list[bytes], envelope: Envelope,
                            now: float) -> Envelope:
        """One trapdoor set searched across several collections.

        Single envelope, single HMAC/replay check; the same trapdoors run
        against every listed collection and the results concatenate in
        the caller's collection order — so the reply is byte-identical to
        a serial loop over the ids.
        """
        return self._search(self.session_key(pseudonym), pseudonym.to_bytes(),
                            collection_ids, envelope, now, self._guard)

    # -- family / P-device retrieval (§IV.E.1) ---------------------------------
    def handle_get_broadcast(self, pseudonym: Point, collection_id: bytes,
                             envelope: Envelope, now: float) -> Envelope:
        """Steps 1→2 of the family protocol: return BE_U(d)."""
        key = self.session_key(pseudonym)
        open_envelope(key, envelope, now, self._guard,
                      expected_label="emergency/get-d")
        collection = self._collection(collection_id)
        self._observe("get-broadcast", pseudonym.to_bytes(), collection_id,
                      b"", now)
        blob = _serialize_broadcast(collection.broadcast_d)
        return seal(key, "broadcast-d", blob, now)

    def handle_search_wrapped(self, pseudonym: Point, collection_id: bytes,
                              envelope: Envelope, now: float) -> Envelope:
        """Steps 3→4: unwrap TD_U = θ_d(TD), validate, SEARCH, return files.

        Raises :class:`AccessDenied` for wraps under a stale (revoked) d.
        """
        return self._search(self.session_key(pseudonym), pseudonym.to_bytes(),
                            [collection_id], envelope, now, self._guard,
                            "emergency/search", wrapped=True)

    # -- REVOKE (§IV.C) ----------------------------------------------------
    def handle_revoke(self, pseudonym: Point, collection_id: bytes,
                      envelope: Envelope, now: float) -> None:
        """patient → S-server: E′_ν(d′ ‖ BE′_U′(d′)) — replace d and BE_U(d)."""
        key = self.session_key(pseudonym)
        payload = open_envelope(key, envelope, now, self._guard,
                                expected_label=("group-update", "revoke"))
        plaintext = AuthenticatedCipher(key).decrypt(payload)
        d_new, broadcast_blob = unpack_fields(plaintext, expected=2)
        collection = self._collection(collection_id)
        # Publish the new group state as one reference swap: a search
        # running concurrently with the (single-writer) revoke sees the
        # old (d, BE_U(d)) pair or the new one, never a d′ paired with a
        # stale broadcast.
        self._collections[collection_id] = replace(
            collection, group_secret_d=d_new,
            broadcast_d=_deserialize_broadcast(broadcast_blob))
        self._observe("revoke", pseudonym.to_bytes(), collection_id, b"", now)

    # -- MHI (§IV.E.2) -------------------------------------------------------
    def handle_mhi_store(self, pseudonym: Point, envelope: Envelope,
                         role_identity: str, ciphertext: IbeCiphertext,
                         tag: MultiKeywordTag, now: float) -> None:
        """P-device → S-server: TP_p, IBE_IDr(MHI) ‖ PEKS_σ(IDr, kw)."""
        key = self.session_key(pseudonym)
        open_envelope(key, envelope, now, self._guard,
                      expected_label="mhi-store")
        self._mhi.append(StoredMhi(role_identity=role_identity,
                                   ciphertext=ciphertext, tag=tag))
        self._observe("mhi-store", pseudonym.to_bytes(), b"",
                      role_identity.encode(), now)

    def handle_mhi_search(self, role_identity: str, envelope: Envelope,
                          trapdoor: PeksTrapdoor, pkg_public: Point,
                          now: float) -> tuple[Envelope, list[IbeCiphertext]]:
        """physician → S-server under HMAC_ρ; returns matching IBE_IDr(MHI).

        ρ is derived from the *role* public key PK_r = H1(ID_r): the
        physician pairs Γ_r with PK_S, the server pairs Γ_S with PK_r.
        """
        role_public = h1_identity(self.params, role_identity)
        key = self.session_key(role_public)
        open_envelope(key, envelope, now, self._guard,
                      expected_label="mhi-search")
        candidates = [entry for entry in self._mhi
                      if entry.role_identity == role_identity]
        # One pairing per stored tag: the batch test fans out across the
        # process default crypto engine's workers when one is configured,
        # serial otherwise — the match set is identical either way.
        flags = MultiKeywordPeks.test_batch([e.tag for e in candidates],
                                            trapdoor)
        matches = [entry.ciphertext
                   for entry, hit in zip(candidates, flags) if hit]
        self._observe("mhi-search", role_public.to_bytes(), b"",
                      role_identity.encode(), now)
        reply = seal(key, "mhi-results",
                     pack_fields(*[c.to_bytes() for c in matches]), now)
        return reply, matches

    # -- durable state ------------------------------------------------------
    def export_state(self) -> bytes:
        """Serialize the protocol-critical state for a snapshot.

        Covers collections (index, files, group secret, broadcast), MHI
        entries, and the replay-guard window.  The ``observations`` log
        and DoS counters are diagnostics, not protocol state, and are
        deliberately excluded.
        """
        collections = [self._serialize_collection(self._collections[cid])
                       for cid in sorted(self._collections)]
        mhi = [_serialize_mhi(m) for m in self._mhi]
        guard = [pack_fields(tag, str(ts).encode())
                 for tag, ts in self._guard.export_state()]
        return pack_fields(pack_fields(*collections), pack_fields(*mhi),
                           pack_fields(*guard))

    def load_state(self, blob: bytes) -> None:
        """Inverse of :meth:`export_state` — restore from a snapshot."""
        collections_b, mhi_b, guard_b = unpack_fields(blob, expected=3)
        curve = self.params.curve
        self._collections = {}
        for entry in unpack_fields(collections_b):
            collection = _deserialize_collection(entry)
            self._collections[collection.collection_id] = collection
        self._mhi = [_deserialize_mhi(entry, curve)
                     for entry in unpack_fields(mhi_b)]
        entries = []
        for entry in unpack_fields(guard_b):
            tag, ts = unpack_fields(entry, expected=2)
            entries.append((tag, float(ts.decode())))
        self._guard.load_state(entries)

    @staticmethod
    def _serialize_collection(c: StoredCollection) -> bytes:
        blob = c.index_blob if c.index_blob is not None \
            else c.index.to_bytes()
        files = pack_fields(*[pack_fields(fid, c.files[fid])
                              for fid in sorted(c.files)])
        return pack_fields(
            c.collection_id, blob, files, c.group_secret_d,
            _serialize_broadcast(c.broadcast_d),
            b"blob" if c.index_blob is not None else b"live")

    # -- shard migration -----------------------------------------------------
    # The federation's rebalance (repro.core.federation) moves whole
    # collections / MHI role windows between shards through these
    # primitives.  They speak the exact snapshot codec of export_state,
    # so a migrated collection round-trips bit-for-bit.

    def held_keys(self) -> "tuple[list[bytes], list[bytes]]":
        """The stable routing keys this server currently serves:
        (sorted collection ids, sorted unique role-identity bytes)."""
        roles = sorted({m.role_identity.encode() for m in self._mhi})
        return sorted(self._collections), roles

    def export_partition(self, cids: "list[bytes]",
                         roles: "list[bytes]") -> bytes:
        """Serialize a slice of state for migration: the named
        collections, every MHI window of the named roles, and the full
        replay-guard window (the guard travels with every slice so a
        request absorbed by the source cannot be replayed against the
        destination after the handoff)."""
        collections = []
        for cid in cids:
            collections.append(self._serialize_collection(
                self._collection(cid)))
        wanted = {role.decode() for role in roles}
        mhi = [_serialize_mhi(m) for m in self._mhi
               if m.role_identity in wanted]
        guard = [pack_fields(tag, str(ts).encode())
                 for tag, ts in self._guard.export_state()]
        return pack_fields(pack_fields(*collections), pack_fields(*mhi),
                           pack_fields(*guard))

    def install_partition(self, blob: bytes) -> "tuple[int, int]":
        """Adopt a migrated slice; returns (collections, MHI windows).

        Idempotent — re-installing the same slice (a resumed migration,
        or a journal replay after a crash) overwrites collections with
        identical bytes, skips MHI windows already present, and seeds
        guard entries through the guard's idempotent insert.
        """
        collections_b, mhi_b, guard_b = unpack_fields(blob, expected=3)
        curve = self.params.curve
        installed = 0
        for entry in unpack_fields(collections_b):
            collection = _deserialize_collection(entry)
            self._collections[collection.collection_id] = collection
            installed += 1
        present = {(m.role_identity, m.ciphertext.to_bytes(),
                    m.tag.to_bytes()) for m in self._mhi}
        mhi_installed = 0
        for entry in unpack_fields(mhi_b):
            m = _deserialize_mhi(entry, curve)
            key = (m.role_identity, m.ciphertext.to_bytes(),
                   m.tag.to_bytes())
            if key not in present:
                present.add(key)
                self._mhi.append(m)
                mhi_installed += 1
        for entry in unpack_fields(guard_b):
            tag, ts = unpack_fields(entry, expected=2)
            self._guard.insert(tag, float(ts.decode()))
        return installed, mhi_installed

    def release_partition(self, cids: "list[bytes]",
                          roles: "list[bytes]") -> None:
        """Drop a migrated-away slice (idempotent; the destination has
        durably acked it).  Guard entries stay — the window self-prunes
        and keeping it closes, not opens, the replay surface."""
        for cid in cids:
            self._collections.pop(cid, None)
        dropped = {role.decode() for role in roles}
        if dropped:
            self._mhi = [m for m in self._mhi
                         if m.role_identity not in dropped]

    # -- accounting -----------------------------------------------------------
    def total_storage_bytes(self) -> int:
        phi = sum(c.storage_bytes() for c in self._collections.values())
        mhi = sum(m.ciphertext.size_bytes() + m.tag.size_bytes()
                  for m in self._mhi)
        return phi + mhi

    def collection_count(self) -> int:
        return len(self._collections)

    def mhi_count(self) -> int:
        return len(self._mhi)


def _deserialize_collection(entry: bytes) -> StoredCollection:
    cid, index_blob, files_b, d, bcast_b, mode = \
        unpack_fields(entry, expected=6)
    files = {}
    for chunk in unpack_fields(files_b):
        fid, ciphertext = unpack_fields(chunk, expected=2)
        files[fid] = ciphertext
    if mode == b"blob":
        index, stored_blob = None, index_blob
    else:
        index, stored_blob = SecureIndex.from_bytes(index_blob), None
    return StoredCollection(
        collection_id=cid, index=index, files=files, group_secret_d=d,
        broadcast_d=_deserialize_broadcast(bcast_b),
        index_blob=stored_blob)


def _serialize_mhi(m: StoredMhi) -> bytes:
    return pack_fields(m.role_identity.encode(), m.ciphertext.to_bytes(),
                       m.tag.to_bytes())


def _deserialize_mhi(entry: bytes, curve) -> StoredMhi:
    role, ct_b, tag_b = unpack_fields(entry, expected=3)
    return StoredMhi(role_identity=role.decode(),
                     ciphertext=IbeCiphertext.from_bytes(ct_b, curve),
                     tag=MultiKeywordTag.from_bytes(tag_b, curve))


def _serialize_broadcast(broadcast: BroadcastCiphertext) -> bytes:
    entries = []
    for node_id, body in broadcast.cover:
        entries.append(node_id.to_bytes(8, "big") + body)
    revoked = b",".join(str(leaf).encode() for leaf in sorted(broadcast.revoked))
    return pack_fields(revoked, *entries)


def _deserialize_broadcast(blob: bytes) -> BroadcastCiphertext:
    fields = unpack_fields(blob)
    if not fields:
        raise ParameterError("empty broadcast blob")
    revoked_blob, entries = fields[0], fields[1:]
    try:
        revoked = frozenset(int(x) for x in revoked_blob.decode().split(",")
                            if x)
    except ValueError:  # UnicodeDecodeError is a ValueError too
        raise ParameterError("malformed revoked-leaf list in broadcast "
                             "blob") from None
    cover = tuple((int.from_bytes(e[:8], "big"), e[8:]) for e in entries)
    return BroadcastCiphertext(cover=cover, revoked=revoked)
