"""The secure index SI = (A, T) — the paper's Fig. 2 construction.

Data structures (paper §IV.B):

* **Array A** stores a collection of encrypted linked lists, one list L_i
  per keyword kw_i.  A node is ``fid ‖ λ ‖ pr``: the file identifier, the
  secret key that decrypts the *next* node, and the pointer (an output of
  the PRP φ) to the next node's address in A.  Nodes are scrambled across
  A by φ so the server cannot tell which nodes belong to the same list.
* **Lookup table T** maps virtual addresses ℓ_c(kw_i) to the encrypted
  head of L_i: ``T[ℓ_c(kw_i)] = (addr_{i,1} ‖ λ_{i,0}) ⊕ f_b(kw_i)`` —
  one-time-pad-masked by the PRF so only a holder of the trapdoor
  ``TD(kw) = (ℓ_c(kw), f_b(kw))`` can unmask it.  T is backed by the FKS
  perfect-hash table for the O(1) search the paper claims (§V.B.3).

Following Fig. 2's flowchart: a global counter C walks the nodes of all
lists in order; node L_{i,j} is written at A[φ_a(C)] encrypted under
λ_{i,j−1}; the head address addr_{i,1} = φ_a(C at head) and the head key
λ_{i,0} go into T.  After all real nodes are placed, A is padded with
random dummy blocks up to its full size α so the server cannot learn the
number of distinct (keyword, file) pairs.

Node wire format (τ bytes before encryption):
``fid (16) ‖ λ_next (16) ‖ next_addr (8) ‖ flags (1)`` where flag bit 0
marks the tail of a list.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.mathutil import xor_bytes
from repro.crypto.modes import SemanticCipher
from repro.crypto.prf import Prf
from repro.crypto.prp import DomainPrp
from repro.crypto.rng import HmacDrbg
from repro.sse.fks import FksTable
from repro.exceptions import ParameterError, SearchError

FID_BYTES = 16
LAMBDA_BYTES = 16          # γ = 128 bits
ADDR_BYTES = 8
FLAG_BYTES = 1
NODE_PLAINTEXT_BYTES = FID_BYTES + LAMBDA_BYTES + ADDR_BYTES + FLAG_BYTES
NODE_CIPHERTEXT_BYTES = NODE_PLAINTEXT_BYTES + SemanticCipher.OVERHEAD
MASK_BYTES = ADDR_BYTES + LAMBDA_BYTES  # the (addr ‖ λ) value masked by f_b

_FLAG_TAIL = 0x01


@dataclass(frozen=True)
class Trapdoor:
    """TD(kw) = (ℓ_c(kw), f_b(kw)) — all the server needs to search kw."""

    address: int   # ℓ_c(kw): virtual address into T (β-bit)
    mask: bytes    # f_b(kw): the PRF pad over (addr ‖ λ)

    def to_bytes(self) -> bytes:
        return self.address.to_bytes(16, "big") + self.mask

    @classmethod
    def from_bytes(cls, data: bytes) -> "Trapdoor":
        if len(data) != 16 + MASK_BYTES:
            raise ParameterError("bad trapdoor encoding")
        return cls(address=int.from_bytes(data[:16], "big"), mask=data[16:])

    WIRE_BYTES = 16 + MASK_BYTES


def _pack_node(fid: bytes, next_key: bytes, next_addr: int, tail: bool) -> bytes:
    if len(fid) != FID_BYTES or len(next_key) != LAMBDA_BYTES:
        raise ParameterError("bad node field sizes")
    flags = _FLAG_TAIL if tail else 0
    return (fid + next_key + next_addr.to_bytes(ADDR_BYTES, "big")
            + bytes([flags]))


def _unpack_node(data: bytes) -> tuple[bytes, bytes, int, bool]:
    if len(data) != NODE_PLAINTEXT_BYTES:
        raise SearchError("decrypted node has wrong size (bad key?)")
    fid = data[:FID_BYTES]
    next_key = data[FID_BYTES:FID_BYTES + LAMBDA_BYTES]
    offset = FID_BYTES + LAMBDA_BYTES
    next_addr = int.from_bytes(data[offset:offset + ADDR_BYTES], "big")
    tail = bool(data[-1] & _FLAG_TAIL)
    return fid, next_key, next_addr, tail


@dataclass
class SecureIndex:
    """SI = (A, T): what the patient uploads and the S-server searches.

    Contains **no plaintext**: A holds only ciphertext nodes (real ones
    interleaved with indistinguishable random padding), T holds only
    PRF-masked values behind PRP-randomized virtual addresses.
    """

    array: list[bytes]       # A: α slots of NODE_CIPHERTEXT_BYTES each
    table: FksTable          # T: virtual address -> masked (addr ‖ λ)
    array_size: int          # α

    def size_bytes(self) -> int:
        """Serialized size of the index (storage-cost experiments)."""
        return sum(len(slot) for slot in self.array) + self.table.size_bytes()

    def digest(self) -> bytes:
        """SHA-256 over SI = (A, T) — the value the upload HMAC binds.

        Binds *both* components: the array A and the serialized FKS lookup
        table T.  (T carries the masked list heads; leaving it out of the
        digest would let the storage server swap lookup tables between
        collections without the integrity check noticing.)
        """
        from repro.sse.fks import serialize_fks
        hasher = hashlib.sha256(b"secure-index:")
        hasher.update(self.array_size.to_bytes(8, "big"))
        for slot in self.array:
            hasher.update(slot)
        table_blob = serialize_fks(self.table)
        hasher.update(len(table_blob).to_bytes(8, "big"))
        hasher.update(table_blob)
        return hasher.digest()

    def to_bytes(self) -> bytes:
        """Full wire/persistence encoding of SI = (A, T)."""
        from repro.sse.fks import serialize_fks
        table_blob = serialize_fks(self.table)
        out = bytearray()
        out += self.array_size.to_bytes(8, "big")
        out += len(self.array).to_bytes(8, "big")
        for slot in self.array:
            out += len(slot).to_bytes(4, "big")
            out += slot
        out += len(table_blob).to_bytes(8, "big")
        out += table_blob
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SecureIndex":
        """Inverse of :meth:`to_bytes` (server-side load from disk)."""
        from repro.sse.fks import deserialize_fks
        offset = 0

        def read(n: int) -> bytes:
            nonlocal offset
            chunk = data[offset:offset + n]
            if len(chunk) != n:
                raise ParameterError("truncated SecureIndex encoding")
            offset += n
            return chunk

        array_size = int.from_bytes(read(8), "big")
        n_slots = int.from_bytes(read(8), "big")
        array = []
        for _ in range(n_slots):
            length = int.from_bytes(read(4), "big")
            array.append(read(length))
        table_length = int.from_bytes(read(8), "big")
        table = deserialize_fks(read(table_length))
        return cls(array=array, table=table, array_size=array_size)

    def search(self, trapdoor: Trapdoor) -> list[bytes]:
        """The S-server's SEARCH algorithm (paper §IV.D).

        δ = T[ℓ_c(kw)];  υ = δ ⊕ f_b(kw) = (addr ‖ λ);  then walk the
        linked list, decrypting each node with the key carried by its
        predecessor.  Returns the file identifiers, in list order.
        Unknown keywords return an empty list (δ absent from T).
        """
        masked = self.table.get(trapdoor.address)
        if masked is None:
            return []
        if len(masked) != MASK_BYTES or len(trapdoor.mask) != MASK_BYTES:
            raise SearchError("malformed table entry or trapdoor")
        value = xor_bytes(masked, trapdoor.mask)
        addr = int.from_bytes(value[:ADDR_BYTES], "big")
        key = value[ADDR_BYTES:]
        fids: list[bytes] = []
        for _ in range(self.array_size + 1):  # cycle guard
            if addr >= self.array_size:
                raise SearchError("node pointer out of range (bad trapdoor?)")
            cipher = SemanticCipher(key)
            try:
                node = cipher.decrypt(self.array[addr])
            except Exception as exc:
                raise SearchError("node decryption failed") from exc
            fid, key, addr, tail = _unpack_node(node)
            fids.append(fid)
            if tail:
                return fids
        raise SearchError("linked list does not terminate (corrupt index)")


def build_secure_index(
    keyword_to_fids: dict[str, list[bytes]],
    key_a: bytes,
    prf_b: Prf,
    address_for: "callable",
    array_size: int | None,
    rng: HmacDrbg,
) -> SecureIndex:
    """Fig. 2: construct SI = (A, T) from the keyword → file-ids map.

    ``address_for(kw) -> int`` supplies ℓ_c(kw) (the scheme passes a PRP
    evaluation); ``prf_b`` is the masking PRF f_b; ``key_a`` keys the
    address-scrambling PRP φ_a.  ``array_size`` is α; when ``None`` it is
    sized to the real node count padded ~25% (and at least 8) so padding
    hides the exact pair count.
    """
    total_nodes = sum(len(fids) for fids in keyword_to_fids.values())
    if array_size is None:
        array_size = max(8, total_nodes + max(2, total_nodes // 4))
    if array_size < total_nodes:
        raise ParameterError("array size α smaller than the node count")
    phi = DomainPrp(key_a, array_size)

    array: list[bytes | None] = [None] * array_size
    table_entries: dict[int, bytes] = {}
    counter = 0  # Fig. 2's global counter C (0-based here)

    # Deterministic keyword order keeps builds reproducible from one seed.
    for keyword in sorted(keyword_to_fids):
        fids = keyword_to_fids[keyword]
        if not fids:
            continue
        head_addr = phi.encrypt(counter)
        # λ_{i,0}: the key stored (masked) in T that opens the head node.
        lam_prev = rng.random_bytes(LAMBDA_BYTES)
        head_key = lam_prev
        # Each node's slot φ_a(C) is its predecessor's next_addr, so φ_a
        # is evaluated once per counter value.
        slot = head_addr
        for j, fid in enumerate(fids):
            tail = j == len(fids) - 1
            lam_next = rng.random_bytes(LAMBDA_BYTES)
            next_addr = 0 if tail else phi.encrypt(counter + 1)
            node = _pack_node(fid, lam_next if not tail else bytes(LAMBDA_BYTES),
                              next_addr, tail)
            array[slot] = SemanticCipher(lam_prev).encrypt(node, rng)
            lam_prev = lam_next
            slot = next_addr
            counter += 1
        value = head_addr.to_bytes(ADDR_BYTES, "big") + head_key
        mask = prf_b(keyword.encode())
        if len(mask) != MASK_BYTES:
            raise ParameterError("PRF f_b output must be %d bytes" % MASK_BYTES)
        virtual_address = address_for(keyword)
        if virtual_address in table_entries:
            raise ParameterError("virtual-address collision in T "
                                 "(increase β)")
        table_entries[virtual_address] = xor_bytes(value, mask)

    # Pad A: unused slots get random blocks indistinguishable from nodes.
    for i, slot in enumerate(array):
        if slot is None:
            array[i] = rng.random_bytes(NODE_CIPHERTEXT_BYTES)

    table = FksTable.build(table_entries, rng)
    return SecureIndex(array=array, table=table,  # type: ignore[arg-type]
                       array_size=array_size)


# ---------------------------------------------------------------------------
# Deserialization cache: the S-server persists indexes as blobs and pays a
# full `from_bytes` (FKS rebuild included) on every search of a blob-backed
# collection.  Cache the deserialized object per blob hash so repeated
# searches of hot collections skip the parse entirely.
#
# Two deployment realities shape the implementation (federation PR):
#
# * N co-located S-server shards (loopback/sim transports, tests, the
#   CLI with --shards) share this one process-global cache, so the old
#   fixed 32-entry capacity thrashed.  ``HCPP_INDEX_CACHE`` (read at
#   call time) sizes it per deployment.
# * Concurrent misses on the *same* blob — concurrent TCP searches of
#   one hot collection — each paid a full duplicate ``from_bytes``.
#   Misses now collapse: the first caller becomes the loader, later
#   callers wait on its event and share the one deserialized object
#   (counted in ``index_cache_stats["collapsed"]``).
# ---------------------------------------------------------------------------

_INDEX_CACHE_CAPACITY = 32          # default when HCPP_INDEX_CACHE is unset
_INDEX_CACHE_ENV = "HCPP_INDEX_CACHE"
_index_cache: "OrderedDict[bytes, SecureIndex]" = OrderedDict()
_index_cache_lock = threading.Lock()
#: In-flight loads by blob hash; waiters block on the event instead of
#: re-parsing.  Guarded by _index_cache_lock.
_index_loading: "dict[bytes, threading.Event]" = {}
index_cache_stats = {"hits": 0, "misses": 0, "collapsed": 0}


def index_cache_capacity() -> int:
    """Resolved cache capacity: ``HCPP_INDEX_CACHE`` or the default.

    Read per call so tests and long-lived deployments can retune
    without reimporting; invalid or negative values fall back to the
    default (a cache must never crash a search).
    """
    raw = os.environ.get(_INDEX_CACHE_ENV)
    if raw:
        try:
            capacity = int(raw)
        except ValueError:
            return _INDEX_CACHE_CAPACITY
        if capacity >= 1:
            return capacity
    return _INDEX_CACHE_CAPACITY


def load_index_cached(blob: bytes) -> SecureIndex:
    """``SecureIndex.from_bytes(blob)``, memoised by SHA-256 of the blob.

    Callers must treat the returned index as read-only — it is shared
    between every caller that presents the same blob (including concurrent
    search workers; :meth:`SecureIndex.search` never mutates the index).

    Concurrent misses on one key collapse to a single deserialization:
    one thread loads, the rest wait and share its result.  If the load
    raises, waiters retry the load themselves (counted as their own
    misses) rather than inheriting the leader's exception blindly.
    """
    key = hashlib.sha256(blob).digest()
    while True:
        with _index_cache_lock:
            hit = _index_cache.get(key)
            if hit is not None:
                _index_cache.move_to_end(key)
                index_cache_stats["hits"] += 1
                return hit
            pending = _index_loading.get(key)
            if pending is None:
                # This thread is the loader for `key`.
                _index_loading[key] = threading.Event()
                index_cache_stats["misses"] += 1
                break
            index_cache_stats["collapsed"] += 1
        pending.wait()
        # Loader finished (or failed); loop to re-check the cache.
    loaded = None
    try:
        loaded = SecureIndex.from_bytes(blob)
        return loaded
    finally:
        with _index_cache_lock:
            if loaded is not None:
                _index_cache[key] = loaded
                _index_cache.move_to_end(key)
                capacity = index_cache_capacity()
                while len(_index_cache) > capacity:
                    _index_cache.popitem(last=False)
            event = _index_loading.pop(key, None)
        if event is not None:
            event.set()


def clear_index_cache() -> None:
    """Drop all cached indexes and reset every counter.

    In-flight loads are left to finish (their events still fire); their
    results land in the now-empty cache.
    """
    with _index_cache_lock:
        _index_cache.clear()
        index_cache_stats["hits"] = 0
        index_cache_stats["misses"] = 0
        index_cache_stats["collapsed"] = 0

