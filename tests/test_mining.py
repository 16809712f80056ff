import hashlib
import random
import statistics

import pytest

from spchain.blocks import (
    GENESIS_KEYBLOCK_HASH,
    GENESIS_MICROBLOCK_HASH,
    KeyBlock,
    keyblock_hash,
)
from spchain.chain import ChainView
from spchain.mining import (
    ForkChoice,
    check_puzzle,
    fork_choice,
    mine_keyblock,
    puzzle_preimage,
    target_from_zero_bits,
)
from spchain.signing import keypair_from_seed


def genesis_view():
    return ChainView(
        pinned_hashes=[],
        tip_height=0,
        tip_hash=GENESIS_KEYBLOCK_HASH,
        penu_microblock_hash=GENESIS_MICROBLOCK_HASH,
    )


def test_target_arithmetic():
    assert target_from_zero_bits(0) == (1 << 256) - 1  # widest expressible
    assert target_from_zero_bits(8) == 1 << 248
    with pytest.raises(ValueError):
        target_from_zero_bits(-1)
    with pytest.raises(ValueError):
        target_from_zero_bits(256)


def test_preimage_layout():
    pk = keypair_from_seed(b"m").public_key
    preimage = puzzle_preimage(b"A" * 32, b"B" * 32, 5, pk)
    assert preimage == b"A" * 32 + b"B" * 32 + (5).to_bytes(8, "big") + pk


def puzzle_value(prev, penu, nonce, pk):
    """The puzzle hash as a number: a solution is below the target."""
    return int.from_bytes(hashlib.sha256(puzzle_preimage(prev, penu, nonce, pk)).digest(), "big")


def test_puzzle_sensitivity_to_every_input():
    pk = keypair_from_seed(b"m").public_key
    v = puzzle_value(b"A" * 32, b"B" * 32, 5, pk)
    assert v != puzzle_value(b"A" * 32, b"B" * 32, 6, pk)
    assert v != puzzle_value(b"C" * 32, b"B" * 32, 5, pk)
    assert v != puzzle_value(b"A" * 32, b"C" * 32, 5, pk)
    other_pk = keypair_from_seed(b"n").public_key
    assert v != puzzle_value(b"A" * 32, b"B" * 32, 5, other_pk)


def test_mined_block_passes_check():
    view = genesis_view()
    kp = keypair_from_seed(b"miner")
    result = mine_keyblock(view, (), kp, target_from_zero_bits(4), 10_000, random.Random(1))
    assert result.block is not None
    assert check_puzzle(result.block)
    assert result.block.height == 1
    assert result.block.prev_keyblock_hash == GENESIS_KEYBLOCK_HASH
    # and the solution is tight against the claimed target
    assert (
        puzzle_value(
            result.block.prev_keyblock_hash,
            result.block.penu_microblock_hash,
            result.block.nonce,
            result.block.miner_public_key,
        )
        < result.block.target
    )


def test_check_puzzle_rejects_malformed():
    block = KeyBlock(
        prev_keyblock_hash=b"x",
        penu_microblock_hash=b"y",
        nonce="not-an-int",  # type: ignore[arg-type]
        miner_public_key=b"pk",
        register_txs=(),
        target=1 << 255,
        height=1,
    )
    assert not check_puzzle(block)


def reference_mine(view, pk, target, max_attempts, rng):
    """The mining loop stated through ``puzzle_preimage``: (nonce, attempts)
    of the first solution, or (None, max_attempts)."""
    for attempt in range(1, max_attempts + 1):
        nonce = rng.getrandbits(64)
        if puzzle_value(view.tip_hash, view.penu_microblock_hash, nonce, pk) < target:
            return nonce, attempt
    return None, max_attempts


@pytest.mark.parametrize(
    "target, solvable",
    [
        ((1 << 256) - 1, True),
        (target_from_zero_bits(1), True),
        (target_from_zero_bits(6), True),
        (target_from_zero_bits(10), True),
        (target_from_zero_bits(40), False),  # runs out of budget
        (0, False),  # no digest is below it: every draw is spent
        (1 << 256, True),  # every digest is below it: solved at attempt 1
    ],
)
def test_mine_keyblock_matches_reference_loop(target, solvable):
    kp = keypair_from_seed(b"miner")
    view = ChainView(
        pinned_hashes=[b"\x11" * 32],
        tip_height=1,
        tip_hash=b"\x11" * 32,
        penu_microblock_hash=b"\x22" * 32,
    )
    found = 0
    for seed in range(5):
        rng, reference_rng = random.Random(seed), random.Random(seed)
        result = mine_keyblock(view, (), kp, target, 3000, rng)
        nonce, attempts = reference_mine(view, kp.public_key, target, 3000, reference_rng)
        assert result.attempts == attempts
        # the same draws, in the same order, and no more
        assert rng.getstate() == reference_rng.getstate()
        if nonce is None:
            assert result.block is None
            continue
        found += 1
        assert result.block == KeyBlock(
            prev_keyblock_hash=view.tip_hash,
            penu_microblock_hash=view.penu_microblock_hash,
            nonce=nonce,
            miner_public_key=kp.public_key,
            register_txs=(),
            target=target,
            height=2,
        )
        assert check_puzzle(result.block)
    assert (found > 0) == solvable


def test_budget_exhaustion_returns_none():
    view = genesis_view()
    kp = keypair_from_seed(b"miner")
    result = mine_keyblock(view, (), kp, 0, 50, random.Random(2))  # impossible target
    assert result.block is None
    assert result.attempts == 50


def test_expected_attempts_match_difficulty():
    """At z zero bits a solution needs ~2^z attempts on average."""
    z = 8
    view = genesis_view()
    kp = keypair_from_seed(b"miner")
    samples = []
    for seed in range(100):
        result = mine_keyblock(
            view, (), kp, target_from_zero_bits(z), 40 * (1 << z), random.Random(seed)
        )
        assert result.block is not None
        samples.append(result.attempts)
    mean = statistics.mean(samples)
    assert (1 << z) * 0.7 < mean < (1 << z) * 1.3


# -- fork choice ---------------------------------------------------------------


def mined_at(view, seed):
    kp = keypair_from_seed(seed)
    result = mine_keyblock(view, (), kp, target_from_zero_bits(0), 1, random.Random(3))
    return result.block


def test_fork_choice_accepts_tip_extension():
    view = genesis_view()
    block = mined_at(view, b"m1")
    assert fork_choice(view, block) is ForkChoice.ACCEPT


def test_fork_choice_rejects_pinned_conflict():
    view = genesis_view()
    pinned_block = mined_at(view, b"m1")
    pinned_hash = keyblock_hash(pinned_block)
    advanced = ChainView(
        pinned_hashes=[pinned_hash],
        tip_height=1,
        tip_hash=pinned_hash,
        penu_microblock_hash=GENESIS_MICROBLOCK_HASH,
    )
    rival = mined_at(view, b"m2")  # same height, different content
    assert fork_choice(advanced, rival) is ForkChoice.REJECT
    # re-announcing the pinned block itself is fine
    assert fork_choice(advanced, pinned_block) is ForkChoice.ACCEPT


def test_fork_choice_orphans_side_branch():
    view = genesis_view()
    pinned_block = mined_at(view, b"m1")
    pinned_hash = keyblock_hash(pinned_block)
    advanced = ChainView(
        pinned_hashes=[pinned_hash],
        tip_height=1,
        tip_hash=pinned_hash,
        penu_microblock_hash=GENESIS_MICROBLOCK_HASH,
    )
    # extends an unknown parent at an unpinned height
    stray = KeyBlock(
        prev_keyblock_hash=b"\x05" * 32,
        penu_microblock_hash=GENESIS_MICROBLOCK_HASH,
        nonce=1,
        miner_public_key=keypair_from_seed(b"m3").public_key,
        register_txs=(),
        target=(1 << 256) - 1,
        height=2,
    )
    assert fork_choice(advanced, stray) is ForkChoice.ORPHAN
