"""Consensus-group selection and weighted Byzantine pinning.

A subject (keyblock or transaction) is pinned when it gathers at least
two thirds of the group's signatures by count AND strictly more than two
thirds of the group's reputation weight. Weights are frozen per epoch at
group-selection time.

A keyblock gets one signature per member. Transactions are voted on per
scheduled batch: each member signs the batch's Merkle root and its accept
bitmap once, and the rule above is applied to each transaction over the
members that accepted it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .blocks import (
    BatchVote,
    PinCertificate,
    PinSignature,
    TxCertificate,
    batch_vote_message,
    bitmap_accepts,
    merkle_paths,
    required_vote_count,
)
from .signing import verify_sig


@dataclass(frozen=True)
class GroupMember:
    miner_id: str
    weight: float
    public_key: Optional[bytes] = None


@dataclass(frozen=True)
class ConsensusGroup:
    members: tuple[GroupMember, ...]
    epoch: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def total_weight(self) -> float:
        return sum(m.weight for m in self.members)

    def member(self, miner_id: str) -> Optional[GroupMember]:
        for m in self.members:
            if m.miner_id == miner_id:
                return m
        return None


def select_group(
    reputations: Mapping[str, float],
    group_size: int,
    public_keys: Optional[Mapping[str, bytes]] = None,
    epoch: int = 0,
) -> ConsensusGroup:
    """Top-``group_size`` miners by reputation, ties broken by id ascending."""
    if group_size < 1:
        raise ValueError("group size must be at least 1")
    if len(reputations) < group_size:
        raise ValueError(
            f"need at least {group_size} miners, have {len(reputations)}"
        )
    ranked = sorted(reputations.items(), key=lambda kv: (-kv[1], kv[0]))
    members = tuple(
        GroupMember(
            miner_id=miner_id,
            weight=rep,
            public_key=public_keys.get(miner_id) if public_keys else None,
        )
        for miner_id, rep in ranked[:group_size]
    )
    return ConsensusGroup(members=members, epoch=epoch)


@dataclass(frozen=True)
class InsufficientQuorum:
    """Pinning failed; carries the measured count and weight."""

    vote_count: int
    vote_weight: float
    required_count: int
    required_weight: float
    ignored: tuple[str, ...] = ()


def pin(
    subject_hash: bytes,
    votes: Sequence[tuple[str, bytes]],
    group: ConsensusGroup,
) -> Union[PinCertificate, InsufficientQuorum]:
    """Aggregate votes into a certificate or report the shortfall.

    Votes from non-members (or with bad signatures) are ignored and listed
    in the outcome's audit trail; duplicates count once.
    """
    ignored: list[str] = []
    accepted: dict[str, PinSignature] = {}
    for signer_id, signature in votes:
        member = group.member(signer_id)
        if member is None:
            ignored.append(signer_id)
            continue
        if signer_id in accepted:
            continue
        if member.public_key is None or not verify_sig(
            subject_hash, signature, member.public_key
        ):
            ignored.append(signer_id)
            continue
        accepted[signer_id] = PinSignature(
            signer_id=signer_id, weight=member.weight, signature=signature
        )

    signers = tuple(accepted[k] for k in sorted(accepted))
    shortfall = _shortfall(signers, group, ignored)
    if shortfall is not None:
        return shortfall
    return PinCertificate(
        subject_hash=subject_hash,
        signers=signers,
        group_size=group.size,
        group_total_weight=group.total_weight,
    )


def _shortfall(
    signers: Sequence[Union[PinSignature, BatchVote]],
    group: ConsensusGroup,
    ignored: Sequence[str],
) -> Optional[InsufficientQuorum]:
    """None when ``signers`` reach quorum in ``group``, else how far short."""
    count = len(signers)
    weight = sum(s.weight for s in signers)
    need_count = required_vote_count(group.size)
    need_weight = (2.0 / 3.0) * group.total_weight
    if count >= need_count and weight > need_weight:
        return None
    return InsufficientQuorum(
        vote_count=count,
        vote_weight=weight,
        required_count=need_count,
        required_weight=need_weight,
        ignored=tuple(ignored),
    )


@dataclass(frozen=True)
class BatchTally:
    """One outcome per transaction, in batch order, and the votes that
    counted for none of them."""

    outcomes: tuple[Union[TxCertificate, InsufficientQuorum], ...]
    ignored: tuple[str, ...]


def pin_batch(
    tx_ids: Sequence[bytes],
    votes: Sequence[tuple[str, bytes, bytes]],
    group: ConsensusGroup,
) -> BatchTally:
    """Verify each member's one vote ``(signer_id, bitmap, signature)`` on
    the batch, then apply ``pin``'s quorum rule to each transaction over
    the verified members whose bitmap accepts it.

    A vote from a non-member, with a bitmap of the wrong width or a bad
    signature, or from a member who voted more than once, counts for no
    transaction and is listed in ``ignored``.
    """
    root, paths = merkle_paths(tx_ids)
    width = (len(tx_ids) + 7) // 8
    vote_counts = Counter(signer_id for signer_id, _, _ in votes)
    ignored: list[str] = []
    accepted: dict[str, BatchVote] = {}
    for signer_id, bitmap, signature in votes:
        member = group.member(signer_id)
        if (
            member is None
            or vote_counts[signer_id] > 1
            or len(bitmap) != width
            or member.public_key is None
            or not verify_sig(
                batch_vote_message(group.epoch, root, bitmap), signature, member.public_key
            )
        ):
            ignored.append(signer_id)
            continue
        accepted[signer_id] = BatchVote(
            signer_id=signer_id, weight=member.weight, bitmap=bitmap, signature=signature
        )

    voters = [accepted[k] for k in sorted(accepted)]
    outcomes: list[Union[TxCertificate, InsufficientQuorum]] = []
    for index, path in enumerate(paths):
        signers = tuple(v for v in voters if bitmap_accepts(v.bitmap, index))
        shortfall = _shortfall(signers, group, ignored)
        if shortfall is not None:
            outcomes.append(shortfall)
            continue
        outcomes.append(
            TxCertificate(
                batch_root=root,
                index=index,
                path=path,
                signers=signers,
                group_size=group.size,
                group_total_weight=group.total_weight,
            )
        )
    return BatchTally(outcomes=tuple(outcomes), ignored=tuple(ignored))
