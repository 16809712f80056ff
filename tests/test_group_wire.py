import random

import pytest

from spchain import wire
from spchain.group import DEFAULT_PRIME, BilinearGroup, default_group
from spchain.wire import DecodeError, Reader


def test_fixed_width_ints_roundtrip():
    r = Reader(wire.u8(7) + wire.u32(70000) + wire.u64(2**40) + wire.u256(2**200))
    assert r.u8() == 7
    assert r.u32() == 70000
    assert r.u64() == 2**40
    assert r.u256() == 2**200
    r.expect_end()


def test_var_bytes_and_str_roundtrip():
    r = Reader(wire.var_bytes(b"\x00\xff") + wire.var_str("café"))
    assert r.var_bytes() == b"\x00\xff"
    assert r.var_str() == "café"
    r.expect_end()


def test_truncated_read_reports_offset():
    r = Reader(wire.u32(10))  # length prefix promises 10 bytes, none follow
    with pytest.raises(DecodeError) as err:
        r.var_bytes()
    assert err.value.offset == 4


def test_trailing_bytes_rejected():
    r = Reader(b"\x01\x02")
    r.u8()
    with pytest.raises(DecodeError):
        r.expect_end()


def test_invalid_utf8_reports_offset():
    r = Reader(wire.var_bytes(b"\xff\xfe"))
    with pytest.raises(DecodeError) as err:
        r.var_str()
    assert err.value.offset == 4


# -- group -------------------------------------------------------------------


def test_default_prime_is_expected_value():
    assert DEFAULT_PRIME == 2**256 - 189
    assert default_group().p == DEFAULT_PRIME


def test_rejects_composite_and_tiny_moduli():
    with pytest.raises(ValueError):
        BilinearGroup(100)
    with pytest.raises(ValueError):
        BilinearGroup(3)


def test_pairing_bilinearity_small_prime():
    g = BilinearGroup(101)
    rng = random.Random(7)
    for _ in range(1000):
        a = rng.randrange(101)
        b = rng.randrange(101)
        s = rng.randrange(101)
        # e(s*a, b) == e(a, s*b) == s * e(a, b)
        assert g.pair(g.scalar_mul(s, a), b) == g.pair(a, g.scalar_mul(s, b))
        assert g.pair(g.scalar_mul(s, a), b) == g.scalar_mul(s, g.pair(a, b))
        # additivity in the first slot
        assert g.pair(g.add(a, b), 1) == g.add(g.pair(a, 1), g.pair(b, 1))


def test_pairing_bilinearity_default_group():
    g = default_group()
    rng = random.Random(8)
    for _ in range(50):
        a, b, s = (rng.randrange(g.p) for _ in range(3))
        assert g.pair(g.scalar_mul(s, a), b) == g.scalar_mul(s, g.pair(a, b))


def test_scalar_inverse():
    g = BilinearGroup(101)
    for x in range(1, 101):
        assert (x * g.inv_scalar(x)) % 101 == 1
    with pytest.raises(ValueError):
        g.inv_scalar(0)


def test_element_codec_roundtrip_and_range():
    g = BilinearGroup(101)
    assert g.element_width == 1
    for x in range(101):
        assert g.decode_element(g.encode_element(x)) == x
    with pytest.raises(ValueError):
        g.decode_element(bytes([101]))  # out of field range
    big = default_group()
    assert big.element_width == 32
    assert big.decode_element(big.encode_element(big.p - 1)) == big.p - 1


def test_hash_to_scalar_deterministic_and_in_range():
    g = default_group()
    a = g.hash_to_scalar(b"record")
    assert a == g.hash_to_scalar(b"record")
    assert 0 <= a < g.p
    assert a != g.hash_to_scalar(b"record2")


def test_random_nonzero_scalar_never_zero():
    g = BilinearGroup(5)
    rng = random.Random(3)
    assert all(g.random_nonzero_scalar(rng) != 0 for _ in range(200))
