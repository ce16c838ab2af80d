"""AES (FIPS 197) block cipher implemented from scratch.

This is the instantiation of the paper's semantically secure symmetric
encryptions E (node encryption inside the secure index) and E′ (the PHI
file-collection cipher), via the CTR / encrypt-then-MAC modes in
:mod:`repro.crypto.modes`.

The S-box is generated at import time from the GF(2⁸) inverse + affine
map (rather than pasted as a magic table), and so are the four 32-bit
"T-tables" derived from it.  Key expansion follows FIPS 197 §5.2 on
32-bit words.  Encryption runs the classic T-table round: each
SubBytes/ShiftRows/MixColumns/AddRoundKey round is sixteen table
lookups XORed into four column words.  Decryption (used only by CBC)
keeps the byte-oriented inverse round on a 16-byte column-major state,
reading the same word key schedule.  Supports 128/192/256-bit keys.

Performance note: the T-table round encrypts about 1.2 MiB/s (13 µs per
block) on one core of a 2-core x86-64 host under CPython 3.11, about 3x
the byte-oriented round it replaced, which ran at 327-406 KiB/s there.
That is ample for the protocol experiments (PHI files are small) and
keeps the entire cipher inside the reproduction as the scope rules
require.
"""

from __future__ import annotations

from repro.exceptions import ParameterError

BLOCK_SIZE = 16


def _generate_sbox() -> tuple[bytes, bytes]:
    """Build the AES S-box from first principles (GF(2⁸) inverse + affine)."""

    def gf_mul(a: int, b: int) -> int:
        result = 0
        for _ in range(8):
            if b & 1:
                result ^= a
            high = a & 0x80
            a = (a << 1) & 0xFF
            if high:
                a ^= 0x1B  # x^8 + x^4 + x^3 + x + 1
            b >>= 1
        return result

    # Multiplicative inverses via exponentiation: a^254 = a^-1 in GF(2^8).
    def gf_inv(a: int) -> int:
        if a == 0:
            return 0
        result = 1
        exponent = 254
        base = a
        while exponent:
            if exponent & 1:
                result = gf_mul(result, base)
            base = gf_mul(base, base)
            exponent >>= 1
        return result

    sbox = bytearray(256)
    for value in range(256):
        inv = gf_inv(value)
        transformed = 0
        for bit in range(8):
            transformed |= (
                ((inv >> bit) ^ (inv >> ((bit + 4) % 8)) ^ (inv >> ((bit + 5) % 8))
                 ^ (inv >> ((bit + 6) % 8)) ^ (inv >> ((bit + 7) % 8))
                 ^ (0x63 >> bit)) & 1
            ) << bit
        sbox[value] = transformed
    inv_sbox = bytearray(256)
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return bytes(sbox), bytes(inv_sbox)


_SBOX, _INV_SBOX = _generate_sbox()


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gf_mul_small(a: int, b: int) -> int:
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


# Precomputed GF(2^8) multiply tables for the InvMixColumns coefficients.
_MUL9 = bytes(_gf_mul_small(i, 9) for i in range(256))
_MUL11 = bytes(_gf_mul_small(i, 11) for i in range(256))
_MUL13 = bytes(_gf_mul_small(i, 13) for i in range(256))
_MUL14 = bytes(_gf_mul_small(i, 14) for i in range(256))


def _t_tables() -> tuple[tuple[int, ...], ...]:
    """Encryption T-tables: SubBytes then one MixColumns column, as words.

    ``_TE0[x]`` is the column ``(2·S[x], S[x], S[x], 3·S[x])`` packed
    big-endian; ``_TE1``..``_TE3`` are its byte rotations, one per row
    that ShiftRows brings into the column.
    """
    te0 = []
    for x in range(256):
        s = _SBOX[x]
        te0.append((_xtime(s) << 24) | (s << 16) | (s << 8) | (_xtime(s) ^ s))
    te1 = [(w >> 8) | ((w & 0xFF) << 24) for w in te0]
    te2 = [(w >> 8) | ((w & 0xFF) << 24) for w in te1]
    te3 = [(w >> 8) | ((w & 0xFF) << 24) for w in te2]
    return tuple(te0), tuple(te1), tuple(te2), tuple(te3)


_TE0, _TE1, _TE2, _TE3 = _t_tables()
# The S-box pre-shifted into each byte lane (final round, SubWord).
_S24 = tuple(b << 24 for b in _SBOX)
_S16 = tuple(b << 16 for b in _SBOX)
_S8 = tuple(b << 8 for b in _SBOX)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36,
         0x6C, 0xD8, 0xAB, 0x4D)


def _sub_word(w: int) -> int:
    return (_S24[w >> 24] | _S16[(w >> 16) & 0xFF] | _S8[(w >> 8) & 0xFF]
            | _SBOX[w & 0xFF])


class AES:
    """The AES block cipher with a fixed key.

    >>> cipher = AES(bytes(16))
    >>> cipher.decrypt_block(cipher.encrypt_block(b"sixteen byte msg"))
    b'sixteen byte msg'
    """

    def __init__(self, key: bytes) -> None:
        if len(key) not in (16, 24, 32):
            raise ParameterError("AES key must be 16, 24 or 32 bytes")
        self.key_size = len(key)
        self.rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        self._round_keys = self._expand_key(key)

    def _expand_key(self, key: bytes) -> list[int]:
        """FIPS 197 key schedule: 4·(rounds + 1) big-endian 32-bit words.

        Round key r is words ``4r .. 4r + 3``, one per state column.
        """
        nk = len(key) // 4
        words = [int.from_bytes(key[4 * i: 4 * i + 4], "big")
                 for i in range(nk)]
        for i in range(nk, 4 * (self.rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) & 0xFFFFFFFF) | (temp >> 24)  # RotWord
                temp = _sub_word(temp) ^ (_RCON[i // nk - 1] << 24)
            elif nk > 6 and i % nk == 4:
                temp = _sub_word(temp)
            words.append(words[i - nk] ^ temp)
        return words

    def _round_key_bytes(self, round_index: int) -> bytes:
        w = self._round_keys[4 * round_index: 4 * round_index + 4]
        return ((w[0] << 96) | (w[1] << 64) | (w[2] << 32)
                | w[3]).to_bytes(16, "big")

    # -- block operations ---------------------------------------------------
    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        rk = self._round_keys
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        x = int.from_bytes(block, "big")
        s0 = (x >> 96) ^ rk[0]
        s1 = ((x >> 64) & 0xFFFFFFFF) ^ rk[1]
        s2 = ((x >> 32) & 0xFFFFFFFF) ^ rk[2]
        s3 = (x & 0xFFFFFFFF) ^ rk[3]
        last = 4 * self.rounds
        for i in range(4, last, 4):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[i],
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[i + 1],
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[i + 2],
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[i + 3],
            )
        # Final round: SubBytes and ShiftRows only, no MixColumns.
        s24, s16, s8, s_ = _S24, _S16, _S8, _SBOX
        out = ((s24[s0 >> 24] | s16[(s1 >> 16) & 0xFF]
                | s8[(s2 >> 8) & 0xFF] | s_[s3 & 0xFF]) ^ rk[last]) << 96
        out |= ((s24[s1 >> 24] | s16[(s2 >> 16) & 0xFF]
                 | s8[(s3 >> 8) & 0xFF] | s_[s0 & 0xFF]) ^ rk[last + 1]) << 64
        out |= ((s24[s2 >> 24] | s16[(s3 >> 16) & 0xFF]
                 | s8[(s0 >> 8) & 0xFF] | s_[s1 & 0xFF]) ^ rk[last + 2]) << 32
        out |= ((s24[s3 >> 24] | s16[(s0 >> 16) & 0xFF]
                 | s8[(s1 >> 8) & 0xFF] | s_[s2 & 0xFF]) ^ rk[last + 3])
        return out.to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        if len(block) != BLOCK_SIZE:
            raise ParameterError("AES block must be 16 bytes")
        rk = self._round_key_bytes(self.rounds)
        state = [block[i] ^ rk[i] for i in range(16)]
        state = self._inv_shift_rows(state)
        state = [_INV_SBOX[b] for b in state]
        for round_index in range(self.rounds - 1, 0, -1):
            rk = self._round_key_bytes(round_index)
            state = [state[i] ^ rk[i] for i in range(16)]
            state = self._inv_mix_columns(state)
            state = self._inv_shift_rows(state)
            state = [_INV_SBOX[b] for b in state]
        rk = self._round_key_bytes(0)
        return bytes(state[i] ^ rk[i] for i in range(16))

    # -- inverse round building blocks (flat 16-list, column-major) ---------
    @staticmethod
    def _inv_shift_rows(s: list[int]) -> list[int]:
        return [
            s[0], s[13], s[10], s[7],
            s[4], s[1], s[14], s[11],
            s[8], s[5], s[2], s[15],
            s[12], s[9], s[6], s[3],
        ]

    @staticmethod
    def _inv_mix_columns(s: list[int]) -> list[int]:
        out = [0] * 16
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c], s[c + 1], s[c + 2], s[c + 3]
            out[c] = _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3]
            out[c + 1] = _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3]
            out[c + 2] = _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3]
            out[c + 3] = _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3]
        return out
