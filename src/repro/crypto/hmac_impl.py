"""HMAC (RFC 2104) implemented from scratch over :mod:`hashlib` SHA-256.

HCPP attaches ``HMAC_ν(message ‖ timestamp)`` to every protocol message for
integrity (paper §IV.B–E).  We implement the inner/outer padding
construction directly rather than using :mod:`hmac` so the whole MAC path
is part of the reproduction, and expose a constant-time comparison to avoid
timing side channels in verification.
"""

from __future__ import annotations

import hashlib

from repro.exceptions import IntegrityError

_BLOCK_SIZE = 64  # SHA-256 block size in bytes
# Byte-translation tables that XOR every key byte with ipad / opad at once.
_IPAD_TABLE = bytes(x ^ 0x36 for x in range(256))
_OPAD_TABLE = bytes(x ^ 0x5C for x in range(256))

HMAC_OUTPUT_SIZE = 32


def _padded_keys(key: bytes) -> tuple[bytes, bytes]:
    """RFC 2104 key blocks: ``(K ⊕ ipad, K ⊕ opad)`` for a zero-padded K."""
    if len(key) > _BLOCK_SIZE:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_BLOCK_SIZE, b"\x00")
    return key.translate(_IPAD_TABLE), key.translate(_OPAD_TABLE)


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256(key, message) per RFC 2104."""
    inner_key, outer_key = _padded_keys(key)
    inner = hashlib.sha256(inner_key + message).digest()
    return hashlib.sha256(outer_key + inner).digest()


class HmacKey:
    """A fixed HMAC-SHA256 key whose two padded blocks are hashed once.

    ``HmacKey(key).mac(m) == hmac_sha256(key, m)``; each call then only
    copies the two prepared hash states, which pays off for keys used
    many times (the Feistel round keys).
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        inner_key, outer_key = _padded_keys(key)
        self._inner = hashlib.sha256(inner_key)
        self._outer = hashlib.sha256(outer_key)

    def mac(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without early exit on mismatch."""
    if len(a) != len(b):
        return False
    diff = 0
    for x, y in zip(a, b):
        diff |= x ^ y
    return diff == 0


def verify_hmac(key: bytes, message: bytes, tag: bytes) -> None:
    """Raise :class:`IntegrityError` unless ``tag`` authenticates ``message``."""
    expected = hmac_sha256(key, message)
    if not constant_time_equal(expected, tag):
        raise IntegrityError("HMAC verification failed: message was tampered "
                             "with or the key is wrong")
