"""Double symmetric encryption envelope for medical records.

A record is sealed inner-first with the patient's key, then with the
institution's key (AES-256-GCM both times). Either layer fails closed on
the wrong key: authentication errors release no partial plaintext.
Nonces are derived deterministically from (key, payload) so simulations
replay bit-exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

_NONCE_LEN = 12


class EnvelopeAuthError(Exception):
    """Authenticated decryption failed (wrong key or tampered data)."""


@dataclass(frozen=True)
class SymmetricKey:
    key_id: str
    secret: bytes


@dataclass(frozen=True)
class SealedEmr:
    ciphertext: bytes
    patient_key_id: str
    institution_key_id: str
    plaintext_len: int


def symmetric_key_from_seed(seed: bytes) -> SymmetricKey:
    secret = hashlib.sha256(b"spchain/symkey/" + seed).digest()
    key_id = hashlib.sha256(secret).hexdigest()[:16]
    return SymmetricKey(key_id=key_id, secret=secret)


def _encrypt(key: SymmetricKey, payload: bytes) -> bytes:
    nonce = hashlib.sha256(b"nonce" + key.secret + payload).digest()[:_NONCE_LEN]
    ct = AESGCM(key.secret).encrypt(nonce, payload, key.key_id.encode())
    return nonce + ct


def _decrypt(key: SymmetricKey, blob: bytes) -> bytes:
    if len(blob) < _NONCE_LEN + 16:
        raise EnvelopeAuthError("ciphertext too short")
    nonce, ct = blob[:_NONCE_LEN], blob[_NONCE_LEN:]
    try:
        return AESGCM(key.secret).decrypt(nonce, ct, key.key_id.encode())
    except InvalidTag:
        raise EnvelopeAuthError("authentication failed") from None


def seal_emr(record: bytes, patient_key: SymmetricKey, institution_key: SymmetricKey) -> SealedEmr:
    """Apply the patient layer, then the institution layer."""
    inner = _encrypt(patient_key, record)
    outer = _encrypt(institution_key, inner)
    return SealedEmr(
        ciphertext=outer,
        patient_key_id=patient_key.key_id,
        institution_key_id=institution_key.key_id,
        plaintext_len=len(record),
    )


def unseal_layer(sealed: "SealedEmr | bytes", key: SymmetricKey) -> bytes:
    """Strip the layer that ``key`` sealed.

    The institution key takes the SealedEmr (or its ciphertext) and yields
    the inner ciphertext; the patient key takes that inner ciphertext and
    yields the record.
    """
    blob = sealed.ciphertext if isinstance(sealed, SealedEmr) else sealed
    return _decrypt(key, blob)
