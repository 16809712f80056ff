"""Reputation scoring for medical-institution miners.

The transaction-service score r2 rewards steady service across chain
chunks: per-chunk register and medical/label counts are turned into means
and root-mean-square deviations of per-chunk rates, combined into a
single activity measure x, and squashed through the bounded increasing
map f(x) = (1 + (x - a) / (lam + |x - a|)) / 2. A dishonest miner scores
zero regardless of history. The mining-history score r1 is the miner's
share of pinned keyblocks.

r2 reads no per-chunk list. The chain keeps, per institution and per
kind of count, the running integer sums S1 = sum(v) and S2 = sum(v*v)
over its chunks, and each spread is a closed form in S1, S2, the chunk
count and the chain-wide total: an exact integer quotient rounded once,
then one square root. So a score costs O(1) whatever the chain's length,
and a verifier reproduces it from integers, not from a float sum in
chunk order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# (S1, S2) = (sum(v), sum(v*v)) over one list of per-chunk counts
Sums = tuple[int, int]

# keyblocks per chunk, and the offset a and scale lam of f(x)
CHUNK_SIZE = 10
REP_A = 5000.0
REP_LAMBDA = 20000.0


class ChunkStats(NamedTuple):
    """One miner's service counters, summed over its chunks.

    ``tr`` / ``tml`` are the sums (S1, S2) of the per-chunk counts of
    register resp. medical+label transactions whose receiver is this
    miner; there are ``chunk_count`` chunks of ``chunk_size`` keyblocks
    each. ``microblock_count`` and ``tx_count`` are chain-wide totals.
    """

    tr: Sums
    tml: Sums
    chunk_count: int
    chunk_size: int
    chain_length: int
    microblock_count: int
    tx_count: int


def bounded_growth(x: float, a: float, lam: float) -> float:
    """f(x) = (1 + (x-a)/(lam+|x-a|)) / 2 — strictly increasing, in (0, 1)."""
    return 0.5 * (1.0 + (x - a) / (lam + abs(x - a)))


def spread(sums: Sums, chunk_count: int, chunk_size: int, total: int) -> float:
    """Root-mean-square deviation of the rates v / c from the mean S1 / M
    over l chunks: sqrt(N / D), with N = sum((M*v - c*S1)^2) expanded over
    the sums and D = l * c^2 * M^2, both integers."""
    s1, s2 = sums
    l, c, m = chunk_count, chunk_size, total
    cs1 = c * s1
    numerator = s2 * m * m - 2 * m * cs1 * s1 + l * cs1 * cs1
    return math.sqrt(numerator / (l * c * c * m * m))


def compute_r2(stats: ChunkStats, honest: bool, a: float, lam: float) -> float:
    """Transaction-service reputation in [0, 1]. Every check of the
    counters is O(1): they only ever rise by one where the chain keeps
    them, so none reads a chunk."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    tr, tml, l, c, length, n_micro, n_tx = stats
    if c < 1:
        raise ValueError("chunk size must be positive")
    expected = -(-length // c) if length else 0
    if l != expected:
        raise ValueError(f"expected {expected} chunks for chain length {length}")
    # S1 >= 0 and S1 * S1 <= l * S2 (Cauchy-Schwarz) hold for any l
    # non-negative counts, and keep each spread's numerator >= 0
    for s1, s2 in (tr, tml):
        if s1 < 0 or s1 * s1 > l * s2:
            raise ValueError("chunk sums are not those of non-negative counts")
    (tr_s1, _), (tml_s1, _) = tr, tml
    if n_micro >= 1 and tr_s1 > n_micro:
        raise ValueError("register counters exceed total microblocks")
    if n_tx >= 1 and tml_s1 > n_tx:
        raise ValueError("medical/label counters exceed total transactions")
    if l == 0 or n_micro == 0 or n_tx == 0:
        raise ValueError("insufficient history")
    q1 = tr_s1 / n_micro / (1.0 + spread(tr, l, c, n_micro))
    q2 = tml_s1 / n_tx / (1.0 + spread(tml, l, c, n_tx))
    x = q1 * q2 * length
    h = 1.0 if honest else 0.0
    return min(1.0, h * bounded_growth(x, a, lam))


def compute_r1(pinned_by_miner: int, total_pinned: int, honest: bool) -> float:
    """Mining-history reputation: honesty-gated share of pinned keyblocks.

    Stand-in for the full long-lived mining score.
    """
    if total_pinned <= 0:
        return 0.0
    if pinned_by_miner < 0 or pinned_by_miner > total_pinned:
        raise ValueError("pinned counts out of range")
    h = 1.0 if honest else 0.0
    return min(1.0, max(0.0, h * pinned_by_miner / total_pinned))


def combine_reputation(r1: float, r2: float) -> float:
    """Arithmetic mean of the two scores."""
    if not (0.0 <= r1 <= 1.0 and 0.0 <= r2 <= 1.0):
        raise ValueError("scores must lie in [0, 1]")
    return 0.5 * (r1 + r2)
