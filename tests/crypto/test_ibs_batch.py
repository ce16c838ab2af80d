"""IBS batch verification: equal to per-signature verify."""

import dataclasses

import pytest

from repro.crypto.ibe import PrivateKeyGenerator
from repro.crypto.ibs import IbsSignature, batch_verify, sign, verify
from repro.crypto.params import test_params as _test_params
from repro.crypto.rng import HmacDrbg

PARAMS = _test_params()


@pytest.fixture()
def pkg():
    return PrivateKeyGenerator(PARAMS, HmacDrbg(b"ibs-batch-pkg"))


def _make_items(pkg, count, seed=b"ibs-batch"):
    rng = HmacDrbg(seed)
    items = []
    for i in range(count):
        identity = "physician-%d" % i
        key = pkg.extract(identity)
        message = b"passcode-request-%d" % i
        items.append((identity, message, sign(PARAMS, key, message, rng)))
    return items


def _from_wire(signature: IbsSignature) -> IbsSignature:
    """A wire-roundtripped signature: what a verifier actually receives."""
    return IbsSignature.from_bytes(signature.to_bytes(), PARAMS.curve)


class TestBatchVerify:
    def test_valid_batch_accepts(self, pkg):
        items = _make_items(pkg, 6)
        assert all(verify(PARAMS, pkg.public_key, i, m, s)
                   for i, m, s in items)
        assert batch_verify(PARAMS, pkg.public_key, items)

    def test_empty_batch_accepts(self, pkg):
        assert batch_verify(PARAMS, pkg.public_key, [])

    def test_single_element_batch(self, pkg):
        items = _make_items(pkg, 1)
        assert batch_verify(PARAMS, pkg.public_key, items)

    def test_tampered_message_rejected(self, pkg):
        items = _make_items(pkg, 4)
        identity, _, signature = items[2]
        items[2] = (identity, b"forged-message", signature)
        assert not batch_verify(PARAMS, pkg.public_key, items)

    def test_tampered_u_rejected(self, pkg):
        items = _make_items(pkg, 4)
        identity, message, signature = items[1]
        bad = dataclasses.replace(signature, u=signature.u * 2)
        items[1] = (identity, message, bad)
        assert not batch_verify(PARAMS, pkg.public_key, items)

    def test_tampered_v_rejected(self, pkg):
        items = _make_items(pkg, 4)
        identity, message, signature = items[3]
        bad = dataclasses.replace(signature, v=(signature.v + 1) % PARAMS.r)
        items[3] = (identity, message, bad)
        assert not batch_verify(PARAMS, pkg.public_key, items)

    def test_wrong_identity_rejected(self, pkg):
        items = _make_items(pkg, 3)
        _, message, signature = items[0]
        items[0] = ("someone-else", message, signature)
        assert not batch_verify(PARAMS, pkg.public_key, items)

    # "Stripped" signatures are wire-decoded ones: the form every
    # production verifier receives.
    def test_stripped_hints_fall_back_to_recompute(self, pkg):
        items = [(i, m, _from_wire(s)) for i, m, s in _make_items(pkg, 4)]
        assert batch_verify(PARAMS, pkg.public_key, items)

    def test_stripped_hints_still_reject_forgeries(self, pkg):
        items = [(i, m, _from_wire(s)) for i, m, s in _make_items(pkg, 4)]
        identity, _, signature = items[0]
        items[0] = (identity, b"other", signature)
        assert not batch_verify(PARAMS, pkg.public_key, items)

    def test_mixed_hinted_and_stripped(self, pkg):
        items = _make_items(pkg, 4)
        items[1] = (items[1][0], items[1][1], _from_wire(items[1][2]))
        items[3] = (items[3][0], items[3][1], _from_wire(items[3][2]))
        assert batch_verify(PARAMS, pkg.public_key, items)

    def test_matches_serial_verify_on_mixed_batch(self, pkg):
        """Equivalence: batch result == all(verify(...)) on good and bad."""
        good = _make_items(pkg, 3)
        bad = _make_items(pkg, 2, seed=b"ibs-batch-2")
        bad[0] = (bad[0][0], b"tampered", bad[0][2])
        for items in (good, bad, good + bad):
            expected = all(verify(PARAMS, pkg.public_key, i, m, s)
                           for i, m, s in items)
            assert batch_verify(PARAMS, pkg.public_key, items) == expected

