import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spchain.reputation import (
    ChunkStats,
    bounded_growth,
    combine_reputation,
    compute_r1,
    compute_r2,
    spread,
)

A = 5000.0
LAM = 20000.0


def sums_of(counts) -> tuple[int, int]:
    return sum(counts), sum(v * v for v in counts)


def stats_of(tr, tml, c, length, n_micro, n_tx) -> ChunkStats:
    """The stats of per-chunk counts ``tr`` and ``tml``, one entry per chunk."""
    assert len(tr) == len(tml)
    return ChunkStats(
        tr=sums_of(tr), tml=sums_of(tml), chunk_count=len(tr), chunk_size=c,
        chain_length=length, microblock_count=n_micro, tx_count=n_tx,
    )


def fold_r2(tr, tml, c, length, n_micro, n_tx, honest, a, lam):
    """r2 as computed before the running sums: each spread a float sum over
    the chunks in order."""
    l = len(tr)
    mean_tr = sum(tr) / n_micro
    mean_tml = sum(tml) / n_tx
    s_tr = math.sqrt(sum((v / c - mean_tr) ** 2 for v in tr) / l)
    s_tml = math.sqrt(sum((v / c - mean_tml) ** 2 for v in tml) / l)
    q1 = mean_tr / (1.0 + s_tr)
    q2 = mean_tml / (1.0 + s_tml)
    x = q1 * q2 * length
    return min(1.0, (1.0 if honest else 0.0) * bounded_growth(x, a, lam))


def exact_spread(counts, c, total) -> float:
    """The spread's definition evaluated in fractions, rounded to a float
    once, then square-rooted."""
    mean = Fraction(sum(counts), total)
    return math.sqrt(float(sum((Fraction(v, c) - mean) ** 2 for v in counts) / len(counts)))


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
    stats = stats_of((2, 4), (10, 20), c=10, length=20, n_micro=10, n_tx=100)
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
        stats = stats_of(tr, tml, c, length, n_micro, n_tx)
        expected = oracle_r2(tr, tml, c, length, n_micro, n_tx, honest, A, LAM)
        assert compute_r2(stats, honest, A, LAM) == pytest.approx(expected, abs=1e-9)


@given(
    c=st.integers(1, 20),
    last=st.integers(0, 19),
    counts=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 400)), min_size=1, max_size=40),
    spare_micro=st.integers(1, 200),
    spare_tx=st.integers(1, 2000),
    honest=st.booleans(),
)
def test_r2_from_sums_is_the_exact_spread_rounded_once(
    c, last, counts, spare_micro, spare_tx, honest
):
    """Each spread from the sums is the exact one rounded once, so r2 is the
    float pipeline over exact spreads; it stays within 1e-9 of the float
    fold it replaced."""
    tr, tml = zip(*counts)
    length = c * (len(counts) - 1) + 1 + last % c  # within the last chunk
    n_micro, n_tx = sum(tr) + spare_micro, sum(tml) + spare_tx
    stats = stats_of(tr, tml, c, length, n_micro, n_tx)
    s_tr, s_tml = exact_spread(tr, c, n_micro), exact_spread(tml, c, n_tx)
    assert spread(stats.tr, len(tr), c, n_micro) == s_tr
    assert spread(stats.tml, len(tml), c, n_tx) == s_tml
    x = sum(tr) / n_micro / (1.0 + s_tr) * (sum(tml) / n_tx / (1.0 + s_tml)) * length
    exact = min(1.0, (1.0 if honest else 0.0) * bounded_growth(x, A, LAM))
    got = compute_r2(stats, honest, A, LAM)
    assert got == exact
    assert abs(got - fold_r2(tr, tml, c, length, n_micro, n_tx, honest, A, LAM)) <= 1e-9


def test_dishonest_scores_zero():
    stats = stats_of((2, 4), (10, 20), c=10, length=20, n_micro=10, n_tx=100)
    assert compute_r2(stats, False, A, LAM) == 0.0


def test_insufficient_history_errors():
    empty = stats_of((), (), c=10, length=0, n_micro=0, n_tx=0)
    with pytest.raises(ValueError, match="insufficient history"):
        compute_r2(empty, True, A, LAM)
    no_txs = stats_of((1,), (0,), c=10, length=5, n_micro=3, n_tx=0)
    with pytest.raises(ValueError, match="insufficient history"):
        compute_r2(no_txs, True, A, LAM)


def test_chunk_stats_invariants():
    def score(stats):
        return compute_r2(stats, True, A, LAM)

    with pytest.raises(ValueError, match="expected 2 chunks"):
        score(ChunkStats(tr=sums_of((1,)), tml=sums_of((1,)), chunk_count=1, chunk_size=10,
                         chain_length=20, microblock_count=5, tx_count=5))  # wrong chunk count
    with pytest.raises(ValueError, match="non-negative"):
        score(stats_of((-1,), (0,), c=10, length=5, n_micro=5, n_tx=5))
    with pytest.raises(ValueError, match="non-negative"):
        # S1 * S1 > l * S2: no two counts sum to 4 with squares summing to 2
        score(ChunkStats(tr=(4, 2), tml=sums_of((0, 0)), chunk_count=2, chunk_size=10,
                         chain_length=20, microblock_count=5, tx_count=5))
    with pytest.raises(ValueError, match="exceed total microblocks"):
        # more registers than microblocks
        score(stats_of((9,), (0,), c=10, length=5, n_micro=3, n_tx=5))
    with pytest.raises(ValueError, match="exceed total transactions"):
        score(stats_of((0,), (9,), c=10, length=5, n_micro=3, n_tx=5))


def test_lambda_must_be_positive():
    stats = stats_of((1,), (1,), c=10, length=5, n_micro=2, n_tx=2)
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
