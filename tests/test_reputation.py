import math
import random

import pytest

from spchain.reputation import (
    ChunkStats,
    bounded_growth,
    combine_reputation,
    compute_r1,
    compute_r2,
)

A = 5000.0
LAM = 20000.0


def oracle_r2(tr, tml, c, length, n_micro, n_tx, honest, a, lam):
    """Step-by-step recomputation, structured differently on purpose."""
    chunks = len(tr)
    mean_tr = math.fsum(tr) / n_micro
    mean_tml = math.fsum(tml) / n_tx
    dev_tr = math.sqrt(math.fsum((v / c - mean_tr) ** 2 for v in tr) / chunks)
    dev_tml = math.sqrt(math.fsum((v / c - mean_tml) ** 2 for v in tml) / chunks)
    q1 = mean_tr / (1 + dev_tr)
    q2 = mean_tml / (1 + dev_tml)
    x = q1 * q2 * length
    f = 0.5 + 0.5 * (x - a) / (lam + abs(x - a))
    return min(1.0, (1.0 if honest else 0.0) * f)


def test_worked_example():
    # two chunks of ten keyblocks, counters (2,4)/(10,20), 10 microblocks,
    # 100 transactions -> r2 = 0.4000 to four decimals
    stats = ChunkStats(
        tr=(2, 4), tml=(10, 20), chunk_size=10, chain_length=20,
        microblock_count=10, tx_count=100,
    )
    assert compute_r2(stats, True, A, LAM) == pytest.approx(0.4000, abs=1e-4)


def test_f_at_anchor_is_exactly_half():
    assert bounded_growth(A, A, LAM) == 0.5


def test_f_is_increasing_and_bounded():
    xs = [0.0, 1.0, 100.0, A, 10_000.0, 1e6, 1e12]
    values = [bounded_growth(x, A, LAM) for x in xs]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(0.0 < v < 1.0 for v in values)


def test_matches_oracle_on_random_inputs():
    rng = random.Random(2024)
    for _ in range(300):
        c = rng.randrange(1, 20)
        chunks = rng.randrange(1, 12)
        length = c * (chunks - 1) + rng.randrange(1, c + 1)
        tr = tuple(rng.randrange(0, 5) for _ in range(chunks))
        tml = tuple(rng.randrange(0, 40) for _ in range(chunks))
        n_micro = sum(tr) + rng.randrange(1, 50)
        n_tx = sum(tml) + rng.randrange(1, 200)
        honest = rng.random() < 0.9
        stats = ChunkStats(
            tr=tr, tml=tml, chunk_size=c, chain_length=length,
            microblock_count=n_micro, tx_count=n_tx,
        )
        expected = oracle_r2(tr, tml, c, length, n_micro, n_tx, honest, A, LAM)
        assert compute_r2(stats, honest, A, LAM) == pytest.approx(expected, abs=1e-9)


def test_dishonest_scores_zero():
    stats = ChunkStats(
        tr=(2, 4), tml=(10, 20), chunk_size=10, chain_length=20,
        microblock_count=10, tx_count=100,
    )
    assert compute_r2(stats, False, A, LAM) == 0.0


def test_insufficient_history_errors():
    empty = ChunkStats(tr=(), tml=(), chunk_size=10, chain_length=0,
                       microblock_count=0, tx_count=0)
    with pytest.raises(ValueError, match="insufficient history"):
        compute_r2(empty, True, A, LAM)
    no_txs = ChunkStats(tr=(1,), tml=(0,), chunk_size=10, chain_length=5,
                        microblock_count=3, tx_count=0)
    with pytest.raises(ValueError, match="insufficient history"):
        compute_r2(no_txs, True, A, LAM)


def test_chunk_stats_invariants():
    with pytest.raises(ValueError):
        ChunkStats(tr=(1,), tml=(1, 2), chunk_size=10, chain_length=20,
                   microblock_count=5, tx_count=5)  # wrong chunk counts
    with pytest.raises(ValueError):
        ChunkStats(tr=(-1,), tml=(0,), chunk_size=10, chain_length=5,
                   microblock_count=5, tx_count=5)
    with pytest.raises(ValueError):
        ChunkStats(tr=(9,), tml=(0,), chunk_size=10, chain_length=5,
                   microblock_count=3, tx_count=5)  # more registers than microblocks


def test_lambda_must_be_positive():
    stats = ChunkStats(tr=(1,), tml=(1,), chunk_size=10, chain_length=5,
                       microblock_count=2, tx_count=2)
    with pytest.raises(ValueError, match="lambda"):
        compute_r2(stats, True, A, 0.0)


# -- r1 and combination ---------------------------------------------------------


def test_r1_is_honesty_gated_pinned_share():
    assert compute_r1(3, 10, True) == pytest.approx(0.3)
    assert compute_r1(3, 10, False) == 0.0
    assert compute_r1(0, 0, True) == 0.0  # no history yet
    with pytest.raises(ValueError):
        compute_r1(11, 10, True)


def test_strategy_interface():
    assert compute_r1(1, 4, True) == pytest.approx(0.25)


def test_combine_is_mean_and_validates():
    assert combine_reputation(0.9, 0.4) == pytest.approx(0.65)
    with pytest.raises(ValueError):
        combine_reputation(1.2, 0.0)
    with pytest.raises(ValueError):
        combine_reputation(0.5, -0.1)
