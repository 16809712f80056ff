import random

import pytest

from spchain.blocks import PinCertificate, PinSignature
from spchain.rewards import FeeSchedule, distribute_rewards
from spchain.signing import address_of, keypair_from_seed

from tests.test_tx_blocks import make_keyblock, make_keys, make_medical_tx, make_microblock


def cert_for(subject, weights=(1.0, 1.0, 1.0)):
    return PinCertificate(
        subject_hash=subject,
        signers=tuple(PinSignature(f"m{i}", w, b"s") for i, w in enumerate(weights)),
        group_size=len(weights),
        group_total_weight=sum(weights),
    )


def test_keyblock_reward_goes_to_creator(group):
    block = make_keyblock(group, with_cert=True)
    fees = FeeSchedule(mining_reward=50.0)
    rewards = distribute_rewards(block, fees)
    creator = address_of(keypair_from_seed(b"miner").public_key)
    # mining reward plus the packed register fees (one tx, fee 2)
    assert rewards == {creator: 52.0}


def test_unpinned_block_pays_nothing(group):
    block = make_keyblock(group, with_cert=False)
    with pytest.raises(ValueError, match="not pinned"):
        distribute_rewards(block, FeeSchedule())


def test_microblock_split_hand_oracle(group):
    # total = 10 (micro) + 1 (fee) = 11; creator share 0.5 -> signer pool 5.5
    # weights 2:1:1 -> signers get 2.75, 1.375, 1.375; creator m0 also gets
    # the remaining 5.5, so m0 totals 8.25
    keys = make_keys(20, group)
    tx = make_medical_tx(group, keys)
    block = make_microblock(group, keys, txs=[tx])
    fees = FeeSchedule(micro_reward=10.0, creator_share=0.5)
    cert = cert_for(tx.tx_id, weights=(2.0, 1.0, 1.0))
    rewards = distribute_rewards(block, fees, pin_cert=cert, batch_txs=[tx])
    assert rewards["m0"] == pytest.approx(8.25)
    assert rewards["m1"] == pytest.approx(1.375)
    assert rewards["m2"] == pytest.approx(1.375)


def test_microblock_requires_quorum_cert(group):
    keys = make_keys(21, group)
    tx = make_medical_tx(group, keys)
    block = make_microblock(group, keys, txs=[tx])
    with pytest.raises(ValueError, match="not pinned"):
        distribute_rewards(block, FeeSchedule())
    weak = PinCertificate(
        subject_hash=tx.tx_id,
        signers=(PinSignature("m0", 1.0, b"s"),),
        group_size=3,
        group_total_weight=3.0,
    )
    with pytest.raises(ValueError, match="not pinned"):
        distribute_rewards(block, FeeSchedule(), pin_cert=weak)


def test_batch_subset_total_uses_batch_fees(group):
    keys = make_keys(22, group)
    tx = make_medical_tx(group, keys, fee=5)
    block = make_microblock(group, keys, txs=[tx])
    fees = FeeSchedule(micro_reward=10.0, creator_share=0.5)
    rewards = distribute_rewards(block, fees, pin_cert=cert_for(tx.tx_id), batch_txs=[tx])
    assert sum(rewards.values()) == pytest.approx(15.0)


def test_conservation_randomized(group):
    rng = random.Random(404)
    keys = make_keys(23, group)
    tx = make_medical_tx(group, keys)
    block = make_microblock(group, keys, txs=[tx])
    for _ in range(200):
        weights = tuple(rng.random() + 0.01 for _ in range(3))
        share = rng.random()
        micro = rng.random() * 100
        fees = FeeSchedule(micro_reward=micro, creator_share=share)
        rewards = distribute_rewards(
            block, fees, pin_cert=cert_for(tx.tx_id, weights), batch_txs=[tx]
        )
        assert sum(rewards.values()) == pytest.approx(micro + tx.fee, abs=1e-9)
        assert all(v >= 0 for v in rewards.values())
