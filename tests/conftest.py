import random

import pytest

from spchain import wire
from spchain.blocks import (
    BatchVote,
    MicroBlock,
    PinCertificate,
    TxCertificate,
    accept_bitmap,
    batch_vote_message,
    merkle_root,
)
from spchain.chameleon import encode_digest
from spchain.consensus import ConsensusGroup, GroupMember, pin, pin_batch
from spchain.group import BilinearGroup, default_group
from spchain.signing import keypair_from_seed, sign
from spchain.tx import encode_tx


@pytest.fixture(scope="session")
def group():
    return default_group()


@pytest.fixture
def small_group():
    return BilinearGroup(101)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def trio():
    """A 3-member consensus group with signing keys, for manual pinning."""
    keypairs = {}
    members = []
    for i in range(3):
        kp = keypair_from_seed(b"trio/%d" % i)
        miner_id = f"m{i}"
        keypairs[miner_id] = kp
        members.append(GroupMember(miner_id=miner_id, weight=1.0, public_key=kp.public_key))
    return ConsensusGroup(members=tuple(members), epoch=0), keypairs


def pin_subject(subject: bytes, consensus_group, keypairs) -> PinCertificate:
    votes = [
        (m.miner_id, sign(subject, keypairs[m.miner_id]))
        for m in consensus_group.members
    ]
    outcome = pin(subject, votes, consensus_group)
    assert isinstance(outcome, PinCertificate)
    return outcome


def pin_tx(tx_id: bytes, consensus_group, keypairs) -> TxCertificate:
    """Pin ``tx_id`` as a one-transaction batch, every member signing."""
    root, bitmap = merkle_root([tx_id]), accept_bitmap([True])
    message = batch_vote_message(consensus_group.epoch, root, bitmap)
    votes = [
        (m.miner_id, bitmap, sign(message, keypairs[m.miner_id]))
        for m in consensus_group.members
    ]
    (outcome,) = pin_batch([tx_id], votes, consensus_group).outcomes
    assert isinstance(outcome, TxCertificate)
    return outcome


def tx_cert(tx_id: bytes, weights=(1.0, 1.0, 1.0)) -> TxCertificate:
    """A quorum certificate for ``tx_id`` alone in its batch, every member
    accepting. The signatures are placeholders: ``append_pinned_tx`` and
    ``distribute_rewards`` do not verify them."""
    return TxCertificate(
        batch_root=merkle_root([tx_id]),
        index=0,
        path=(),
        signers=tuple(
            BatchVote(f"m{i}", w, accept_bitmap([True]), b"s%d" % i)
            for i, w in enumerate(weights)
        ),
        group_size=len(weights),
        group_total_weight=sum(weights),
    )


def fresh_microblock_encoding(block: MicroBlock, group) -> bytes:
    """The microblock wire layout written out from ``block.txs``, each
    transaction encoded anew; the oracle for the stored entries."""
    out = (
        wire.u8(2)
        + wire.var_str(block.owner_patient_id)
        + encode_digest(block.institution_root, group)
        + wire.var_str(block.creator_miner_id)
        + wire.u64(block.round_number)
        + wire.var_bytes(block.prev_hash)
        + wire.u32(len(block.txs))
    )
    for tx in block.txs:
        out += wire.var_bytes(encode_tx(tx, group))
    return out
