import dataclasses
import random

import pytest

from spchain.consensus import check_certificate
from spchain.rewards import FeeSchedule, distribute_rewards
from spchain.signing import address_of, keypair_from_seed

from tests.conftest import pin_subject, signed_members
from tests.test_tx_blocks import make_keyblock, make_keys, make_medical_tx, make_microblock


def test_keyblock_reward_goes_to_creator(trio):
    block = make_keyblock(trio)
    fees = FeeSchedule(mining_reward=50.0)
    rewards = distribute_rewards(block, fees, trio[0])
    creator = address_of(keypair_from_seed(b"miner").public_key)
    # mining reward plus the packed register fees (one tx, fee 2)
    assert rewards == {creator: 52.0}


def test_unpinned_block_pays_nothing(trio):
    block = make_keyblock()
    with pytest.raises(ValueError, match="not pinned"):
        distribute_rewards(block, FeeSchedule(), trio[0])


def test_microblock_split_hand_oracle(group, trio):
    # total = 10 (micro) + 1 (fee) = 11; creator share 0.5 -> signer pool 5.5
    # weights 2:1:1 -> signers get 2.75, 1.375, 1.375; creator m0 also gets
    # the remaining 5.5, so m0 totals 8.25
    keys = make_keys(20, group)
    tx = make_medical_tx(group, keys)
    block = make_microblock(keys, txs=[tx])
    fees = FeeSchedule(micro_reward=10.0, creator_share=0.5)
    cert = pin_subject(tx.tx_id, *trio)
    # the trio's members are m0, m1 and m2, as in any signed_members group,
    # so its certificate is paid out under that group's weights
    weighted = signed_members((2.0, 1.0, 1.0))[0]
    rewards = distribute_rewards(block, fees, weighted, pin_cert=cert, batch_txs=[tx])
    assert rewards["m0"] == pytest.approx(8.25)
    assert rewards["m1"] == pytest.approx(1.375)
    assert rewards["m2"] == pytest.approx(1.375)


def test_microblock_requires_quorum_cert(group, trio):
    keys = make_keys(21, group)
    tx = make_medical_tx(group, keys)
    block = make_microblock(keys, txs=[tx])
    with pytest.raises(ValueError, match="not pinned"):
        distribute_rewards(block, FeeSchedule(), trio[0])
    # a certificate is paid out only after the chain's check_certificate
    # passed it, which refuses one below quorum
    cert = pin_subject(tx.tx_id, *trio)
    weak = dataclasses.replace(cert, signers=cert.signers[:1])
    with pytest.raises(ValueError, match="not pinned"):
        check_certificate(tx.tx_id, weak, trio[0])
    # m1 and m2 reach quorum where they hold 2 of 2.5 weight, and miss it
    # where they hold 2 of 7
    strong = dataclasses.replace(cert, signers=cert.signers[1:])
    light, heavy = signed_members((0.5, 1.0, 1.0))[0], signed_members((5.0, 1.0, 1.0))[0]
    check_certificate(tx.tx_id, strong, light)
    rewards = distribute_rewards(block, FeeSchedule(), light, pin_cert=strong)
    assert set(rewards) == {"m0", "m1", "m2"}
    with pytest.raises(ValueError, match="below quorum"):
        check_certificate(tx.tx_id, strong, heavy)


def test_batch_subset_total_uses_batch_fees(group, trio):
    keys = make_keys(22, group)
    tx = make_medical_tx(group, keys, fee=5)
    block = make_microblock(keys, txs=[tx])
    fees = FeeSchedule(micro_reward=10.0, creator_share=0.5)
    cert = pin_subject(tx.tx_id, *trio)
    rewards = distribute_rewards(block, fees, trio[0], pin_cert=cert, batch_txs=[tx])
    assert sum(rewards.values()) == pytest.approx(15.0)


def test_conservation_randomized(group, trio):
    rng = random.Random(404)
    keys = make_keys(23, group)
    tx = make_medical_tx(group, keys)
    block = make_microblock(keys, txs=[tx])
    cert = pin_subject(tx.tx_id, *trio)
    for _ in range(200):
        weights = tuple(rng.random() + 0.01 for _ in range(3))
        share = rng.random()
        micro = rng.random() * 100
        fees = FeeSchedule(micro_reward=micro, creator_share=share)
        rewards = distribute_rewards(
            block, fees, signed_members(weights)[0], pin_cert=cert, batch_txs=[tx]
        )
        assert sum(rewards.values()) == pytest.approx(micro + tx.fee, abs=1e-9)
        assert all(v >= 0 for v in rewards.values())
