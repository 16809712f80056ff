"""Reward distribution for pinned blocks.

Keyblock: the creator collects the mining reward plus the register fees
it packed. Microblock: the reward (base plus the batch's transaction
fees) is split between the committing miner and the pinning signers,
signers sharing proportionally to their reputation weight. The creator's
slice absorbs rounding residue so the total always distributes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .blocks import KeyBlock, MicroBlock, TxCertificate
from .consensus import ConsensusGroup
from .signing import address_of
from .tx import Transaction


@dataclass(frozen=True)
class FeeSchedule:
    mining_reward: float = 50.0
    micro_reward: float = 10.0
    register_fee: int = 2
    tx_fee: int = 1
    creator_share: float = 0.5  # microblock split between creator and signers


def distribute_rewards(
    block: Union[KeyBlock, MicroBlock],
    fees: FeeSchedule,
    group: ConsensusGroup,
    pin_cert: Optional[TxCertificate] = None,
    batch_txs: Sequence[Transaction] = (),
) -> dict[str, float]:
    """Reward map minerId -> amount for one block pinned by ``group``.

    For a microblock, ``pin_cert`` is the certificate that pinned the
    appended transactions and ``batch_txs`` those transactions. Signer
    weights are read from ``group``. The certificate is the one that
    ``ChainState.add_pinned_keyblock`` or ``append_to_microblock`` checked
    against ``group`` as the block landed; it is not checked again here.
    """
    cert = block.pin_cert if isinstance(block, KeyBlock) else pin_cert
    if cert is None:
        raise ValueError("block is not pinned")
    if isinstance(block, KeyBlock):
        creator = address_of(block.miner_public_key)
        total = fees.mining_reward + sum(tx.fee for tx in block.register_txs)
        return {creator: total}

    total = fees.micro_reward + sum(tx.fee for tx in batch_txs)
    signer_pool = total * (1.0 - fees.creator_share)
    weights = [group.weights[s.signer_id] for s in cert.signers]
    signer_weight = sum(weights)
    rewards: dict[str, float] = {}
    distributed = 0.0
    if signer_weight > 0:
        for s, weight in zip(cert.signers, weights):
            share = signer_pool * weight / signer_weight
            rewards[s.signer_id] = rewards.get(s.signer_id, 0.0) + share
            distributed += share
    creator = block.creator_miner_id
    # remainder assignment keeps the sum exact despite float division
    rewards[creator] = rewards.get(creator, 0.0) + (total - distributed)
    return rewards
