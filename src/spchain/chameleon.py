"""Key-exposure-free chameleon hash with trapdoor collisions.

The digest of a message m under randomness r is h = r*h1 + m*h2 (additive
notation), with witness R = r*g. The trapdoor holder can move the digest
to any new message without changing h, which is what makes records
redactable while keeping every hash link intact.

A digest is the triple (h, R, m). It verifies when the pairing check
e(h - m*h2, g2) == e(R, h1_hat) holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .group import BilinearGroup, default_group
from .wire import DecodeError, Reader, u32

PROOF_TAG = b"TRV1"


@dataclass(frozen=True)
class ChameleonHashKey:
    """Public hashing key (h1, h1_hat, h2)."""

    h1: int
    h1_hat: int
    h2: int
    group: BilinearGroup


@dataclass(frozen=True)
class ChameleonTrapdoor:
    x: int


@dataclass(frozen=True)
class ChameleonKeys:
    hk: ChameleonHashKey
    tk: ChameleonTrapdoor


@dataclass(frozen=True)
class ChameleonDigest:
    """Digest h with its witness R and the message m it binds."""

    h: int
    witness: int
    message: int


def ch_keygen(group: BilinearGroup, rng: random.Random) -> ChameleonKeys:
    """Draw a trapdoor x and derive (hk, tk).

    The trapdoor is redrawn if zero since collisions divide by it; h2 is
    uniform nonzero in G1.
    """
    x = group.random_nonzero_scalar(rng)
    h2 = group.scalar_mul(group.random_nonzero_scalar(rng), group.g1)
    hk = ChameleonHashKey(
        h1=group.scalar_mul(x, group.g1),
        h1_hat=group.scalar_mul(x, group.g2),
        h2=h2,
        group=group,
    )
    return ChameleonKeys(hk=hk, tk=ChameleonTrapdoor(x=x))


def ch_hash(hk: ChameleonHashKey, m: int, r: int) -> ChameleonDigest:
    """Hash message m under randomness r; deterministic given (m, r)."""
    g = hk.group
    m = g.reduce_scalar(m)
    r = g.reduce_scalar(r)
    if r == 0:
        raise ValueError("randomness r must be nonzero")
    h = g.add(g.scalar_mul(r, hk.h1), g.scalar_mul(m, hk.h2))
    return ChameleonDigest(h=h, witness=g.scalar_mul(r, g.g1), message=m)


def ch_verify(hk: ChameleonHashKey, digest: ChameleonDigest) -> bool:
    """Check e(h - m*h2, g2) == e(R, h1_hat) for the digest's own m."""
    g = hk.group
    lhs = g.pair(g.sub(digest.h, g.scalar_mul(digest.message, hk.h2)), g.g2)
    return lhs == g.pair(digest.witness, hk.h1_hat)


def ch_collide(
    tk: ChameleonTrapdoor,
    hk: ChameleonHashKey,
    old: ChameleonDigest,
    m_new: int,
) -> ChameleonDigest:
    """Move a verified digest to message m_new without changing h.

    New witness R' = x^-1 * (h - m_new*h2). A trapdoor that does not match
    the hash key is detected by the post-collision verification.
    """
    g = hk.group
    if not ch_verify(hk, old):
        raise ValueError("invalid source digest")
    m_new = g.reduce_scalar(m_new)
    witness = g.scalar_mul(g.inv_scalar(tk.x), g.sub(old.h, g.scalar_mul(m_new, hk.h2)))
    out = ChameleonDigest(h=old.h, witness=witness, message=m_new)
    if not ch_verify(hk, out):
        raise ValueError("trapdoor does not match hash key")
    return out


def message_scalar(data: bytes, group: BilinearGroup) -> int:
    """Map arbitrary bytes into Z_p via a content hash reduced mod p."""
    return group.hash_to_scalar(data)


# -- wire format: h || u32(len(proof)) || proof, proof = "TRV1" || R || m --
# Every element is written in the default group's encoding: 32 bytes,
# each value below DEFAULT_PRIME.

_WIRE = default_group()
_PROOF_LEN = len(PROOF_TAG) + 2 * _WIRE.element_width


def encode_digest(digest: ChameleonDigest) -> bytes:
    return (
        _WIRE.encode_element(digest.h)
        + u32(_PROOF_LEN)
        + PROOF_TAG
        + _WIRE.encode_element(digest.witness)
        + _WIRE.encode_element(digest.message)
    )


def _decode_element(reader: Reader) -> int:
    start = reader.pos
    raw = reader.take(_WIRE.element_width)
    try:
        return _WIRE.decode_element(raw)
    except ValueError as exc:
        raise DecodeError(str(exc), start) from None


def decode_digest(reader: Reader) -> ChameleonDigest:
    h = _decode_element(reader)
    start = reader.pos
    if reader.u32() != _PROOF_LEN:
        raise DecodeError("chameleon proof has the wrong length", start)
    if reader.take(len(PROOF_TAG)) != PROOF_TAG:
        raise DecodeError("unknown chameleon proof tag", start + 4)
    witness = _decode_element(reader)
    return ChameleonDigest(h=h, witness=witness, message=_decode_element(reader))
