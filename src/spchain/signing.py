"""Ed25519 signatures with seed-deterministic key derivation."""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    # built once: loading the key costs as much as a signature
    private_key: Ed25519PrivateKey = field(repr=False, compare=False)


def keypair_from_seed(seed: bytes) -> KeyPair:
    sk = Ed25519PrivateKey.from_private_bytes(
        hashlib.sha256(b"spchain/sigkey/" + seed).digest()
    )
    return KeyPair(public_key=sk.public_key().public_bytes_raw(), private_key=sk)


def sign(msg: bytes, keypair: KeyPair) -> bytes:
    return keypair.private_key.sign(msg)


@functools.lru_cache(maxsize=4096)
def _load_public_key(public_key: bytes) -> Ed25519PublicKey:
    """Each member and patient key verifies many signatures, so it is
    loaded once; a malformed key raises on every call, as the cache keeps
    no exceptions."""
    return Ed25519PublicKey.from_public_bytes(public_key)


def verify_sig(msg: bytes, signature: bytes, public_key: bytes) -> bool:
    """Deterministic verification; malformed inputs return False."""
    try:
        _load_public_key(public_key).verify(signature, msg)
        return True
    except (InvalidSignature, ValueError):
        return False


def address_of(public_key: bytes) -> str:
    """Short stable identifier derived from a public key."""
    return hashlib.sha256(public_key).hexdigest()[:20]
