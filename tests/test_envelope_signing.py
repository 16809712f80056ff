import pytest

from spchain.envelope import (
    EnvelopeAuthError,
    seal_emr,
    symmetric_key_from_seed,
    unseal_layer,
)
from spchain.signing import address_of, keypair_from_seed, sign, verify_sig


def keys():
    return symmetric_key_from_seed(b"patient-1"), symmetric_key_from_seed(b"hospital-1")


def test_double_envelope_roundtrip():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"blood panel: normal", patient_key, institution_key)
    inner = unseal_layer(sealed, institution_key, "outer")
    assert unseal_layer(inner, patient_key, "inner") == b"blood panel: normal"


def test_deterministic_sealing():
    patient_key, institution_key = keys()
    a = seal_emr(b"x", patient_key, institution_key)
    b = seal_emr(b"x", patient_key, institution_key)
    assert a == b
    assert a.plaintext_len == 1


def test_wrong_key_fails_closed():
    patient_key, institution_key = keys()
    stranger = symmetric_key_from_seed(b"someone-else")
    sealed = seal_emr(b"secret", patient_key, institution_key)
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(sealed, stranger, "outer")
    inner = unseal_layer(sealed, institution_key, "outer")
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(inner, stranger, "inner")


def test_layer_order_enforced():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"secret", patient_key, institution_key)
    # the patient key cannot open the outer layer
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(sealed, patient_key, "outer")


def test_tampered_ciphertext_rejected():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"secret", patient_key, institution_key)
    corrupted = bytearray(sealed.ciphertext)
    corrupted[-1] ^= 0x01
    with pytest.raises(EnvelopeAuthError):
        unseal_layer(bytes(corrupted), institution_key, "outer")


def test_key_ids_recorded():
    patient_key, institution_key = keys()
    sealed = seal_emr(b"secret", patient_key, institution_key)
    assert sealed.patient_key_id == patient_key.key_id
    assert sealed.institution_key_id == institution_key.key_id


# -- signatures ---------------------------------------------------------------


def test_sign_verify_roundtrip():
    kp = keypair_from_seed(b"signer")
    sig = sign(b"message", kp)
    assert verify_sig(b"message", sig, kp.public_key)


def test_seed_determinism():
    assert keypair_from_seed(b"s").public_key == keypair_from_seed(b"s").public_key
    assert keypair_from_seed(b"s").public_key != keypair_from_seed(b"t").public_key


def test_verify_rejects_tampering():
    kp = keypair_from_seed(b"signer")
    other = keypair_from_seed(b"other")
    sig = sign(b"message", kp)
    assert not verify_sig(b"message2", sig, kp.public_key)
    assert not verify_sig(b"message", sig, other.public_key)
    assert not verify_sig(b"message", sig[:-1], kp.public_key)
    assert not verify_sig(b"message", b"", kp.public_key)
    assert not verify_sig(b"message", sig, b"not-a-key")


def test_each_key_is_loaded_once_and_a_malformed_one_every_time(key_loads):
    kp = keypair_from_seed(b"signer")
    sig = sign(b"message", kp)
    assert verify_sig(b"message", sig, kp.public_key)
    assert verify_sig(b"message", sig, kp.public_key)
    assert not verify_sig(b"message", sig, b"not-a-key")
    assert not verify_sig(b"message", sig, b"not-a-key")
    # a failed load is not cached, so the malformed key is tried again
    assert key_loads == [kp.public_key, b"not-a-key", b"not-a-key"]


def test_address_is_truncated_pk_hash():
    kp = keypair_from_seed(b"signer")
    addr = address_of(kp.public_key)
    assert len(addr) == 20  # truncated hex content hash
    assert addr == address_of(kp.public_key)
    int(addr, 16)  # valid hex
