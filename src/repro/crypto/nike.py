"""Sakai–Ohgishi–Kasai non-interactive key agreement.

HCPP derives every protocol-protecting shared key without any key-exchange
messages, exactly as the paper specifies:

* ν = ê(Γ_p, PK_S) = ê(TP_p, Γ_S)   — patient ↔ S-server (storage/retrieval)
* ϖ = ê(Γ_i, PK_A) = ê(PK_i, Γ_A)   — physician ↔ A-server (emergency auth)
* ρ = ê(Γ_r, PK_S) = ê(PK_r, Γ_S)   — role-key holder ↔ S-server (MHI)

Each party pairs *its own private key* with the *other's public key*;
bilinearity makes both sides equal (both are ê(PK_a, PK_b)^s0).  The raw
G2 element is passed through a KDF to obtain HMAC/AES key material.
"""

from __future__ import annotations

import hashlib

from repro.crypto.ec import Point
from repro.crypto.ibe import IdentityKeyPair
from repro.crypto.pairing import prepared
from repro.exceptions import ParameterError

__all__ = ["shared_key", "shared_key_from_points", "SHARED_KEY_SIZE"]

SHARED_KEY_SIZE = 32


def shared_key_from_points(my_private: Point, their_public: Point) -> bytes:
    """Derive the SOK shared key ê(my_private, their_public) → 32 bytes.

    The caller's own private key is the long-lived side (the S-server pairs
    its fixed Γ_S against every client), so it takes the prepared slot.
    """
    if my_private.is_infinity or their_public.is_infinity:
        raise ParameterError("NIKE inputs must be non-infinity points")
    value = prepared(my_private).pair(their_public)
    return hashlib.sha256(b"HCPP-NIKE:" + value.to_bytes()).digest()[:SHARED_KEY_SIZE]


def shared_key(my_key: IdentityKeyPair, their_public: Point) -> bytes:
    """Convenience wrapper taking a full :class:`IdentityKeyPair`."""
    return shared_key_from_points(my_key.private, their_public)

