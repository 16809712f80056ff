import dataclasses
import random

import pytest

from spchain.chameleon import (
    PROOF_TAG,
    ChameleonHashKey,
    ChameleonTrapdoor,
    ch_collide,
    ch_hash,
    ch_keygen,
    ch_verify,
    decode_digest,
    encode_digest,
    message_scalar,
)
from spchain.group import DEFAULT_PRIME, BilinearGroup, default_group
from spchain.wire import DecodeError, Reader


def worked_key(small_group):
    """x=7, h2=5 over p=101; hand-checked oracle values used below."""
    hk = ChameleonHashKey(h1=7, h1_hat=7, h2=5, group=small_group)
    return hk, ChameleonTrapdoor(x=7)


def test_worked_example_hash(small_group):
    # h = r*h1 + m*h2 = 10*7 + 3*5 = 85 mod 101, witness R = r*g = 10
    hk, _ = worked_key(small_group)
    digest = ch_hash(hk, m=3, r=10)
    assert digest.h == 85
    assert digest.witness == 10
    assert ch_verify(hk, digest)


def test_worked_example_collision(small_group):
    # x^-1 = 29 mod 101; R' = 29*(85 - 4*5) = 29*65 = 67 mod 101
    hk, tk = worked_key(small_group)
    old = ch_hash(hk, m=3, r=10)
    new = ch_collide(tk, hk, old, m_new=4)
    assert new.h == 85  # digest unchanged
    assert new.witness == 67
    assert ch_verify(hk, new)


def test_proof_binds_message(small_group):
    hk, _ = worked_key(small_group)
    digest = ch_hash(hk, m=3, r=10)
    # same h would also open at other (m, r) pairs, but the witness pins m
    assert not ch_verify(hk, dataclasses.replace(digest, message=4))
    assert not ch_verify(hk, dataclasses.replace(digest, message=0))
    assert not ch_verify(hk, dataclasses.replace(digest, witness=11))


def test_exhaustive_binding_small_prime(small_group):
    """Brute force over all messages: only the bound message verifies."""
    hk, _ = worked_key(small_group)
    digest = ch_hash(hk, m=3, r=10)
    verifying = [
        m for m in range(101) if ch_verify(hk, dataclasses.replace(digest, message=m))
    ]
    assert verifying == [3]


def test_keygen_shapes_and_determinism(small_group):
    keys1 = ch_keygen(small_group, random.Random(42))
    keys2 = ch_keygen(small_group, random.Random(42))
    assert keys1 == keys2
    g = small_group
    assert keys1.hk.h1 == g.scalar_mul(keys1.tk.x, g.g1)
    assert keys1.hk.h1_hat == g.scalar_mul(keys1.tk.x, g.g2)
    assert keys1.hk.h2 != 0
    assert keys1.tk.x != 0


def test_hash_rejects_zero_randomness(small_group):
    hk, _ = worked_key(small_group)
    with pytest.raises(ValueError):
        ch_hash(hk, m=3, r=0)
    with pytest.raises(ValueError):
        ch_hash(hk, m=3, r=101)  # reduces to zero


def test_collide_requires_valid_source(small_group):
    hk, tk = worked_key(small_group)
    digest = ch_hash(hk, m=3, r=10)
    for broken in (
        dataclasses.replace(digest, witness=11),
        dataclasses.replace(digest, message=4),
    ):
        with pytest.raises(ValueError, match="invalid source digest"):
            ch_collide(tk, hk, broken, m_new=4)


def test_collide_detects_wrong_trapdoor(small_group):
    hk, _ = worked_key(small_group)
    digest = ch_hash(hk, m=3, r=10)
    with pytest.raises(ValueError, match="trapdoor does not match"):
        ch_collide(ChameleonTrapdoor(x=8), hk, digest, m_new=4)


def test_randomized_hash_collide_cycle(group):
    rng = random.Random(99)
    keys = ch_keygen(group, rng)
    for _ in range(50):
        m = rng.randrange(group.p)
        r = rng.randrange(1, group.p)
        digest = ch_hash(keys.hk, m, r)
        assert ch_verify(keys.hk, digest)
        m_new = rng.randrange(group.p)
        new = ch_collide(keys.tk, keys.hk, digest, m_new)
        assert (new.h, new.message) == (digest.h, m_new)
        assert ch_verify(keys.hk, new)
        if m_new != m:
            assert not ch_verify(keys.hk, dataclasses.replace(new, message=m))


def test_digest_wire_format_is_h_len_proof(group):
    """h || u32(len(proof)) || "TRV1" || R || m, for a hashed and a
    collided digest; decoding gives the digest back."""
    keys = ch_keygen(group, random.Random(5))
    hashed = ch_hash(keys.hk, 12345, 678)
    collided = ch_collide(keys.tk, keys.hk, hashed, 999)
    w = group.element_width
    for digest in (hashed, collided):
        encoded = encode_digest(digest)
        assert encoded == (
            group.encode_element(digest.h)
            + (4 + 2 * w).to_bytes(4, "big")
            + b"TRV1"
            + group.encode_element(digest.witness)
            + group.encode_element(digest.message)
        )
        reader = Reader(encoded)
        decoded = decode_digest(reader)
        reader.expect_end()
        assert decoded == digest
        assert ch_verify(keys.hk, decoded)


def element(value: int) -> bytes:
    """A wire element: 32 bytes, as the default group writes it."""
    return value.to_bytes(32, "big")


def worked_encoding(small_group):
    """The worked digest's bytes, its proof, and a helper that frames
    another proof after the same h. The wire writes its elements 32 bytes
    wide, whatever group hashed it."""
    hk, _ = worked_key(small_group)
    digest = ch_hash(hk, m=3, r=10)
    encoded = encode_digest(digest)
    h, proof = encoded[:32], encoded[36:]
    assert h == element(85)
    assert proof == PROOF_TAG + element(10) + element(3)

    def with_proof(body: bytes) -> bytes:
        return h + len(body).to_bytes(4, "big") + body

    assert decode_digest(Reader(with_proof(proof))) == digest
    return hk, encoded, proof, with_proof


def test_malformed_proofs_verify_false(small_group):
    """A malformed proof never yields a digest to verify; a well-formed
    proof with the wrong witness decodes and verifies false."""
    hk, _, proof, with_proof = worked_encoding(small_group)
    for bad in (b"", b"XXXX" + proof[4:], proof + b"\x00"):
        with pytest.raises(DecodeError):
            decode_digest(Reader(with_proof(bad)))
    wrong = decode_digest(Reader(with_proof(PROOF_TAG + element(11) + element(3))))
    assert not ch_verify(hk, wrong)


def test_decode_digest_with_opaque_proof_never_verifies(group):
    """Opaque junk of any length is refused at decode; junk elements
    behind the right length and tag decode but never verify."""
    keys = ch_keygen(group, random.Random(6))
    digest = ch_hash(keys.hk, 1, 2)
    h = group.encode_element(digest.h)
    junk = h + (4).to_bytes(4, "big") + b"junk"
    with pytest.raises(DecodeError):
        decode_digest(Reader(junk))
    rng = random.Random(7)
    for _ in range(20):
        body = PROOF_TAG + b"".join(
            group.encode_element(rng.randrange(group.p)) for _ in range(2)
        )
        opaque = h + len(body).to_bytes(4, "big") + body
        decoded = decode_digest(Reader(opaque))
        assert decoded.h == digest.h
        assert not ch_verify(keys.hk, decoded)


def test_malformed_proofs_raise_decode_error(small_group):
    _, encoded, proof, with_proof = worked_encoding(small_group)
    for bad in (
        with_proof(b""),
        with_proof(b"XXXX" + proof[4:]),
        with_proof(proof[:-1]),
        with_proof(proof + b"\x00"),
        with_proof(PROOF_TAG + element(DEFAULT_PRIME) + element(3)),  # witness >= p
        with_proof(PROOF_TAG + element(10) + element(2**256 - 1)),  # message >= p
        element(DEFAULT_PRIME) + encoded[32:],  # h >= p
    ):
        with pytest.raises(DecodeError):
            decode_digest(Reader(bad))


def test_message_scalar_range_and_stability():
    g101 = BilinearGroup(101)
    big = default_group()
    for data in (b"", b"a", b"record" * 100):
        assert 0 <= message_scalar(data, g101) < 101
        assert message_scalar(data, big) == message_scalar(data, big)
