"""Equivalence of the fast symmetric paths with straightforward references.

The T-table AES round, the prepared HMAC key, the batched CTR keystream
and the integer XOR must reproduce, byte for byte, what the textbook
formulations compute.  The byte-oriented FIPS-197 round lives here only,
as the oracle for :meth:`AES.encrypt_block`.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import _SBOX, AES, BLOCK_SIZE
from repro.crypto.hmac_impl import HmacKey, hmac_sha256
from repro.crypto.mathutil import xor_bytes
from repro.crypto.modes import NONCE_SIZE, ctr_transform
from repro.exceptions import ParameterError

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x11B) & 0xFF if a & 0x100 else a


def _reference_round_keys(key: bytes) -> list[list[int]]:
    """FIPS 197 §5.2 key expansion on byte lists, one 16-list per round."""
    nk = len(key) // 4
    rounds = nk + 6
    words = [list(key[4 * i: 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = [_SBOX[b] for b in temp[1:] + temp[:1]]
            temp[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            temp = [_SBOX[b] for b in temp]
        words.append([a ^ b for a, b in zip(words[i - nk], temp)])
    return [sum(words[4 * r: 4 * r + 4], []) for r in range(rounds + 1)]


def _shift_rows(s: list[int]) -> list[int]:
    return [s[0], s[5], s[10], s[15], s[4], s[9], s[14], s[3],
            s[8], s[13], s[2], s[7], s[12], s[1], s[6], s[11]]


def _mix_columns(s: list[int]) -> list[int]:
    out = [0] * 16
    for c in range(0, 16, 4):
        a0, a1, a2, a3 = s[c:c + 4]
        out[c] = _xtime(a0) ^ _xtime(a1) ^ a1 ^ a2 ^ a3
        out[c + 1] = a0 ^ _xtime(a1) ^ _xtime(a2) ^ a2 ^ a3
        out[c + 2] = a0 ^ a1 ^ _xtime(a2) ^ _xtime(a3) ^ a3
        out[c + 3] = _xtime(a0) ^ a0 ^ a1 ^ a2 ^ _xtime(a3)
    return out


def reference_encrypt_block(key: bytes, block: bytes) -> bytes:
    """The byte-oriented SubBytes/ShiftRows/MixColumns/AddRoundKey AES."""
    round_keys = _reference_round_keys(key)
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for rk in round_keys[1:-1]:
        state = _mix_columns(_shift_rows([_SBOX[b] for b in state]))
        state = [b ^ k for b, k in zip(state, rk)]
    state = _shift_rows([_SBOX[b] for b in state])
    return bytes(b ^ k for b, k in zip(state, round_keys[-1]))


class TestReferenceOracle:
    """The oracle itself must meet the FIPS-197 Appendix C vectors."""

    @pytest.mark.parametrize("key_hex, ct_hex", [
        ("000102030405060708090a0b0c0d0e0f",
         "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617",
         "dda97ca4864cdfe06eaf70a0ec0d7191"),
        ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
         "8ea2b7ca516745bfeafc49904b496089"),
    ])
    def test_fips197_vectors(self, key_hex, ct_hex):
        pt = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert reference_encrypt_block(bytes.fromhex(key_hex), pt).hex() \
            == ct_hex


class TestTTableAes:
    @pytest.mark.parametrize("key_size", [16, 24, 32])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_encrypt_matches_byte_round(self, key_size, data):
        key = data.draw(st.binary(min_size=key_size, max_size=key_size))
        block = data.draw(st.binary(min_size=16, max_size=16))
        expected = reference_encrypt_block(key, block)
        cipher = AES(key)
        assert cipher.encrypt_block(block) == expected
        # decrypt_block reads the same word key schedule.
        assert cipher.decrypt_block(expected) == block

    @pytest.mark.parametrize("key_size", [16, 24, 32])
    def test_all_ones_and_zero_blocks(self, key_size):
        for fill in (0x00, 0xFF):
            key, block = bytes([fill]) * key_size, bytes([fill ^ 0xFF]) * 16
            assert AES(key).encrypt_block(block) \
                == reference_encrypt_block(key, block)

    def test_accepts_bytearray_and_memoryview(self):
        key, block = bytes(range(16)), bytes(range(16, 32))
        expected = reference_encrypt_block(key, block)
        cipher = AES(key)
        assert cipher.encrypt_block(bytearray(block)) == expected
        assert cipher.encrypt_block(memoryview(block)) == expected


class TestPreparedHmacKey:
    @pytest.mark.parametrize("key_len", [0, 1, 32, 63, 64, 65, 128, 200])
    def test_key_length_edges(self, key_len):
        key = bytes((7 * i + 3) & 0xFF for i in range(key_len))
        prepared = HmacKey(key)
        for message in (b"", b"m", bytes(range(256))):
            expected = hmac.new(key, message, hashlib.sha256).digest()
            assert hmac_sha256(key, message) == expected
            assert prepared.mac(message) == expected

    @given(st.binary(max_size=150), st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_matches_one_shot(self, key, message):
        assert HmacKey(key).mac(message) == hmac_sha256(key, message)

    def test_reusable_across_messages(self):
        prepared = HmacKey(b"round key")
        first = prepared.mac(b"a")
        prepared.mac(b"something else entirely")
        assert prepared.mac(b"a") == first == hmac_sha256(b"round key", b"a")


def _reference_ctr(cipher: AES, nonce: bytes, data: bytes) -> bytes:
    """Per-byte keystream XOR, one counter block at a time."""
    out = bytearray()
    for i, byte in enumerate(data):
        if i % BLOCK_SIZE == 0:
            keystream = cipher.encrypt_block(
                nonce + (i // BLOCK_SIZE).to_bytes(4, "big"))
        out.append(byte ^ keystream[i % BLOCK_SIZE])
    return bytes(out)


class TestCtrKeystream:
    def test_every_length_up_to_100(self):
        cipher = AES(bytes(range(16)))
        nonce = bytes(range(100, 100 + NONCE_SIZE))
        data = bytes((31 * i + 5) & 0xFF for i in range(100))
        for length in range(101):
            chunk = data[:length]
            assert ctr_transform(cipher, nonce, chunk) \
                == _reference_ctr(cipher, nonce, chunk)
        assert ctr_transform(cipher, nonce, b"") == b""

    @given(st.binary(min_size=16, max_size=16),
           st.binary(min_size=NONCE_SIZE, max_size=NONCE_SIZE),
           st.binary(max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_matches_per_byte_xor(self, key, nonce, data):
        cipher = AES(key)
        assert ctr_transform(cipher, nonce, data) \
            == _reference_ctr(cipher, nonce, data)

    def test_leading_zero_bytes_survive(self):
        """The integer XOR must keep the full length, zeros included."""
        cipher = AES(bytes(16))
        nonce = bytes(NONCE_SIZE)
        keystream = _reference_ctr(cipher, nonce, bytes(40))
        # Plaintext equal to the keystream encrypts to all zero bytes.
        assert ctr_transform(cipher, nonce, keystream) == bytes(40)


class TestXorBytes:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_byte_xor(self, data):
        a = data.draw(st.binary(max_size=300))
        b = data.draw(st.binary(min_size=len(a), max_size=len(a)))
        assert xor_bytes(a, b) == bytes(x ^ y for x, y in zip(a, b))

    def test_zero_result_keeps_length(self):
        assert xor_bytes(b"\x00\xab", b"\x00\xab") == b"\x00\x00"
        assert xor_bytes(b"", b"") == b""

    def test_length_mismatch_raises(self):
        with pytest.raises(ParameterError):
            xor_bytes(b"ab", b"abc")
