"""Bilinear-group arithmetic for the chameleon hash.

The group is a deterministic symmetric "toy" pairing over the additive
groups Z_p with e(a, b) = a*b mod p. It is fast, exact and lets every
redaction property be tested functionally (including exhaustively on
small primes), but it is NOT cryptographically hard. Only the chameleon
arithmetic takes a group; everything on the wire uses the default group.
"""

from __future__ import annotations

import functools
import hashlib
import random

# 256-bit prime used for the full-width default group.
DEFAULT_PRIME = 2**256 - 189

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


class BilinearGroup:
    """Symmetric toy pairing over Z_p (additive notation).

    Group elements of G1, G2 and GT are integers in [0, p). The
    generators are g1 = g2 = 1, so a scalar k and the element k*g
    coincide numerically, which keeps hand-worked examples readable.
    """

    def __init__(self, p: int):
        if p < 5:
            raise ValueError("degenerate group: order must be >= 5")
        if not _is_prime(p):
            raise ValueError("group order must be prime")
        self.p = p
        self.g1 = 1
        self.g2 = 1
        self.element_width = (p.bit_length() + 7) // 8

    def __eq__(self, other) -> bool:
        return isinstance(other, BilinearGroup) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("BilinearGroup", self.p))

    def __repr__(self) -> str:
        return f"BilinearGroup(p={self.p})"

    # -- arithmetic ----------------------------------------------------

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def scalar_mul(self, k: int, elem: int) -> int:
        return (k * elem) % self.p

    def pair(self, a: int, b: int) -> int:
        """e(a, b) = a*b mod p; bilinear by construction."""
        return (a * b) % self.p

    def reduce_scalar(self, n: int) -> int:
        return n % self.p

    def inv_scalar(self, x: int) -> int:
        if x % self.p == 0:
            raise ValueError("scalar has no inverse mod p")
        return pow(x, -1, self.p)

    # -- sampling and hashing ------------------------------------------

    def random_nonzero_scalar(self, rng: random.Random) -> int:
        while True:
            x = rng.randrange(self.p)
            if x != 0:
                return x

    def hash_to_scalar(self, data: bytes) -> int:
        return int.from_bytes(hashlib.sha256(data).digest(), "big") % self.p

    # -- canonical element encoding ------------------------------------

    def encode_element(self, elem: int) -> bytes:
        return (elem % self.p).to_bytes(self.element_width, "big")

    def decode_element(self, raw: bytes) -> int:
        if len(raw) != self.element_width:
            raise ValueError(
                f"element must be {self.element_width} bytes, got {len(raw)}"
            )
        value = int.from_bytes(raw, "big")
        if value >= self.p:
            raise ValueError("element out of range for group order")
        return value


@functools.cache
def default_group() -> BilinearGroup:
    """The full-width group, built once: its primality check costs
    milliseconds, and a group is never mutated."""
    return BilinearGroup(DEFAULT_PRIME)
