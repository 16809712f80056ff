"""Reputation scoring for medical-institution miners.

The transaction-service score r2 rewards steady service across chain
chunks: per-chunk register and medical/label counts are turned into means
and root-mean-square deviations of per-chunk rates, combined into a
single activity measure x, and squashed through the bounded increasing
map f(x) = (1 + (x - a) / (lam + |x - a|)) / 2. A dishonest miner scores
zero regardless of history. The mining-history score r1 is the miner's
share of pinned keyblocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# keyblocks per chunk, and the offset a and scale lam of f(x)
CHUNK_SIZE = 10
REP_A = 5000.0
REP_LAMBDA = 20000.0


@dataclass(frozen=True)
class ChunkStats:
    """Per-chunk service counters for one miner.

    tr[i] / tml[i] count register resp. medical+label transactions whose
    receiver is this miner in chunk i; chunk i covers ``chunk_size``
    keyblocks. ``microblock_count`` and ``tx_count`` are chain-wide totals.
    """

    tr: Sequence[int]
    tml: Sequence[int]
    chunk_size: int
    chain_length: int
    microblock_count: int
    tx_count: int

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError("chunk size must be positive")
        expected = math.ceil(self.chain_length / self.chunk_size) if self.chain_length else 0
        if len(self.tr) != expected or len(self.tml) != expected:
            raise ValueError(
                f"expected {expected} chunks for chain length {self.chain_length}"
            )
        if any(v < 0 for v in self.tr) or any(v < 0 for v in self.tml):
            raise ValueError("chunk counters must be non-negative")
        if self.microblock_count >= 1 and sum(self.tr) > self.microblock_count:
            raise ValueError("register counters exceed total microblocks")
        if self.tx_count >= 1 and sum(self.tml) > self.tx_count:
            raise ValueError("medical/label counters exceed total transactions")

    @property
    def chunk_count(self) -> int:
        return len(self.tr)


def bounded_growth(x: float, a: float, lam: float) -> float:
    """f(x) = (1 + (x-a)/(lam+|x-a|)) / 2 — strictly increasing, in (0, 1)."""
    return 0.5 * (1.0 + (x - a) / (lam + abs(x - a)))


def compute_r2(stats: ChunkStats, honest: bool, a: float, lam: float) -> float:
    """Transaction-service reputation in [0, 1]."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    l = stats.chunk_count
    if l == 0 or stats.microblock_count == 0 or stats.tx_count == 0:
        raise ValueError("insufficient history")
    c = stats.chunk_size
    mean_tr = sum(stats.tr) / stats.microblock_count
    mean_tml = sum(stats.tml) / stats.tx_count
    s_tr = math.sqrt(sum((v / c - mean_tr) ** 2 for v in stats.tr) / l)
    s_tml = math.sqrt(sum((v / c - mean_tml) ** 2 for v in stats.tml) / l)
    q1 = mean_tr / (1.0 + s_tr)
    q2 = mean_tml / (1.0 + s_tml)
    x = q1 * q2 * stats.chain_length
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
