"""Known-answer regression tests.

These pin concrete output values of the deterministic primitives so that
any future refactor that silently changes semantics (a different hash
domain tag, a flipped byte order, an off-by-one in the Miller loop) fails
loudly instead of invalidating previously recorded experiments.

The pinned values are literal outputs recorded before the symmetric
hot path was optimised, and cross-validated structurally (bilinearity,
subgroup orders, FIPS/RFC vectors elsewhere in the suite).  Each pin is
compared with a recorded literal, never with a recomputation, so a
refactor that changes one output byte fails here.
"""

import hashlib

from repro.crypto.params import test_params as _test_params
from repro.crypto.pairing import tate_pairing
from repro.crypto.rng import HmacDrbg

PARAMS = _test_params()


class TestPinnedValues:
    def test_test_parameters_pinned(self):
        """The SS160 test curve must never silently change."""
        assert PARAMS.r == (1 << 79) + (1 << 57) + 1
        assert PARAMS.curve.h == 1208925819614629174706500
        assert PARAMS.p == PARAMS.curve.h * PARAMS.r - 1
        assert PARAMS.p % 4 == 3

    def test_generator_deterministic(self):
        """The generator derivation is seed-stable across runs."""
        from repro.crypto.params import _build
        _build.cache_clear()
        fresh = _test_params()
        assert fresh.generator == PARAMS.generator

    def test_pairing_digest_pinned(self):
        """Fingerprint of ê(P, P) on the test curve."""
        value = tate_pairing(PARAMS.generator, PARAMS.generator)
        # Pinned so any Miller-loop change shows up, plus an order check.
        assert hashlib.sha256(value.to_bytes()).hexdigest() == (
            "da578c7d7c733b0dc01a881bf5311916850f6538d2d313898d22b915616a0330")
        assert (value ** PARAMS.r).is_one()

    def test_drbg_stream_pinned(self):
        """The HMAC-DRBG byte stream for a fixed seed is frozen."""
        assert HmacDrbg(b"regression-seed").random_bytes(64).hex() == (
            "b7d54a52e0f28290111145f560b5c7dad0fd13859fd31d15cb561292ee23d423"
            "b0a087bd34d557d9e36e68f0c0517a9ab5ec7f869645647b3f90218e706feb87")

    def test_prf_pinned(self):
        from repro.crypto.prf import Prf
        # 203 bits: the masked first byte and a two-block expansion.
        assert Prf(b"seed", 203)(b"x").hex() == (
            "021677079248525c3e5eb0a2b9fba1bcc91db39453264aeded56")

    def test_prp_pinned(self):
        from repro.crypto.prp import DomainPrp, FeistelPrp
        feistel = FeistelPrp(b"k", 32)
        inputs = (0, 1, 2, 12345, 2 ** 31, 2 ** 32 - 1)
        outputs = [1810805510, 2213712540, 2019424285, 3993119895,
                   2011477359, 2894502410]
        assert [feistel.encrypt(x) for x in inputs] == outputs
        assert [feistel.decrypt(y) for y in outputs] == list(inputs)
        domain = DomainPrp(b"k", 999)
        inputs = (0, 1, 2, 123, 500, 998)
        outputs = [84, 375, 875, 111, 647, 460]
        assert [domain.encrypt(x) for x in inputs] == outputs
        assert [domain.decrypt(y) for y in outputs] == list(inputs)

    def test_cipher_modes_pinned(self):
        """Nonce draw, KDF, AES-CTR keystream and the EtM tag are frozen."""
        from repro.crypto.modes import AuthenticatedCipher, SemanticCipher
        rng = HmacDrbg(b"cipher-pin")
        plaintext = b"pinned plaintext of 37 bytes, odd len"
        assert SemanticCipher(b"semantic-key").encrypt(
            plaintext, rng).hex() == (
            "37d21b00f8cfe7c2d13fb369891da71642e11c4718376a382cb1bef933793136"
            "4088a3f35a302f0ec1066b8f71b76fd59e")
        assert AuthenticatedCipher(b"auth-key").encrypt(
            plaintext, rng, b"ad").hex() == (
            "ff70b9dcc0d63cd0f04e3d002ac296d4d3d829a00d460644b75e45980318a259"
            "fc5efd1c1a4650c4366c09622d17d3e5d3e4e1c602017203ed20c1812d9e3344"
            "888d2e710c2bb78ec8c38a2009f34c5228")

    def test_prf_prp_determinism_across_instances(self):
        from repro.crypto.prf import Prf
        from repro.crypto.prp import DomainPrp, FeistelPrp
        assert Prf(b"seed", 128)(b"x") == Prf(b"seed", 128)(b"x")
        assert FeistelPrp(b"k", 32).encrypt(12345) \
            == FeistelPrp(b"k", 32).encrypt(12345)
        assert DomainPrp(b"k", 999).encrypt(123) \
            == DomainPrp(b"k", 999).encrypt(123)

    def test_hash_to_curve_stable(self):
        from repro.crypto.hashes import h1_identity
        a = h1_identity(PARAMS, "stability-probe")
        b = h1_identity(PARAMS, "stability-probe")
        assert a == b and a.is_in_subgroup()

    def test_whole_system_deterministic_from_seed(self):
        """Two builds from one seed produce byte-identical uploads."""
        from repro.ehr.records import Category

        records = [(Category.XRAY, ["xray"], "note")]
        # Index A and T plus every file ciphertext, frozen byte for byte.
        assert _upload_digest(b"det-check", records) == (
            "06f796de205802470374ef07e02ffd3e3dada72f103cb129edf696ba2d0622d8")
        assert _upload_digest(b"det-check", records) \
            != _upload_digest(b"det-other", records)

    def test_multi_node_lists_upload_pinned(self):
        """Keyword lists of two and three nodes: the φ_a slot chaining."""
        from repro.ehr.records import Category

        records = [
            (Category.XRAY, ["xray", "fracture"], "wrist"),
            (Category.CARDIOLOGY, ["fracture", "arrhythmia"], "ecg"),
            (Category.ALLERGIES, ["fracture", "arrhythmia", "penicillin"],
             "rash"),
        ]
        assert _upload_digest(b"det-check", records) == (
            "5d460cea879cc75d716ed965b65b7944181734030a901d814e8e87859461faea")


def _upload_digest(seed: bytes, records) -> str:
    """SHA-256 over a fresh system's upload: index digest, then files."""
    from repro.core.system import build_system

    system = build_system(seed=seed)
    for category, keywords, note in records:
        system.patient.add_record(category, keywords, note,
                                  system.sserver.address)
    index, files = system.patient.build_upload()
    hasher = hashlib.sha256(index.digest())
    for fid in sorted(files):
        hasher.update(files[fid])
    return hasher.hexdigest()
