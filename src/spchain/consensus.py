"""Consensus-group selection and weighted Byzantine pinning.

A subject (keyblock or transaction) is pinned when it gathers at least
two thirds of the group's signatures by count AND strictly more than two
thirds of the group's reputation weight. Weights are frozen per epoch at
group-selection time.

Subjects are voted on per batch: each member signs the batch's Merkle root
and its accept bitmap once, and the rule above is applied to each subject
over the members that accepted it. The group votes once per round: entry 0
of the round's batch is the keyblock's hash, and the other entries are the
round's transactions, so a keyblock short of quorum sinks none of them. A
certificate carries only the votes; its count, weights and membership are
always taken from the group that signed it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Union

from .blocks import (
    BatchVote,
    TxCertificate,
    batch_vote_message,
    bitmap_accepts,
    merkle_path_verifies,
    merkle_paths,
)
from .signing import verify_sig


@dataclass(frozen=True)
class GroupMember:
    miner_id: str
    weight: float
    public_key: bytes


@dataclass(frozen=True)
class ConsensusGroup:
    members: tuple[GroupMember, ...]
    epoch: int

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def total_weight(self) -> float:
        return sum(m.weight for m in self.members)

    @cached_property
    def _by_id(self) -> dict[str, GroupMember]:
        return {m.miner_id: m for m in self.members}

    @cached_property
    def weights(self) -> dict[str, float]:
        """Member id -> weight."""
        return {mid: m.weight for mid, m in self._by_id.items()}

    def member(self, miner_id: str) -> Optional[GroupMember]:
        return self._by_id.get(miner_id)


def select_group(
    reputations: Mapping[str, float],
    group_size: int,
    public_keys: Mapping[str, bytes],
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
        GroupMember(miner_id=miner_id, weight=rep, public_key=public_keys[miner_id])
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


def required_vote_count(group_size: int) -> int:
    return math.ceil(2 * group_size / 3)


def _shortfall(
    signers: Sequence[BatchVote],
    group: ConsensusGroup,
    ignored: Sequence[str] = (),
) -> Optional[InsufficientQuorum]:
    """None when ``signers``, distinct members of ``group``, reach quorum
    in it, else how far short they fall."""
    count = len(signers)
    weight = sum(group.weights[s.signer_id] for s in signers)
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


def check_signers(cert: TxCertificate, group: ConsensusGroup) -> None:
    """Raise ValueError unless every signer of ``cert`` is a member of
    ``group``, listed once, whose bitmap accepts the certificate's index,
    and together they reach quorum in ``group``."""
    seen: set[str] = set()
    for s in cert.signers:
        if s.signer_id not in group.weights:
            raise ValueError(f"not pinned: {s.signer_id!r} is not a group member")
        if s.signer_id in seen:
            raise ValueError(f"not pinned: {s.signer_id!r} is listed twice")
        if not bitmap_accepts(s.bitmap, cert.index):
            raise ValueError("not pinned: a counted signer did not accept it")
        seen.add(s.signer_id)
    if _shortfall(cert.signers, group) is not None:
        raise ValueError("not pinned: certificate below quorum")


def check_certificate(
    subject: bytes, cert: Optional[TxCertificate], group: ConsensusGroup
) -> None:
    """Raise ValueError unless ``cert`` pins ``subject`` in ``group``: its
    inclusion path leads from ``subject`` to the batch root, and its
    signers pass ``check_signers``.

    No vote signature is checked here, so neither does the chain check
    one: a certificate whose signatures are forged passes. Only
    ``pin_batch`` verifies signatures, where its caller builds the
    certificate."""
    if cert is None:
        raise ValueError("not pinned: no certificate")
    if not merkle_path_verifies(subject, cert.index, cert.path, cert.batch_root):
        raise ValueError("not pinned: inclusion path does not reach the batch root")
    check_signers(cert, group)


@dataclass(frozen=True)
class BatchTally:
    """One outcome per subject, in batch order, and the votes that counted
    for none of them."""

    outcomes: tuple[Union[TxCertificate, InsufficientQuorum], ...]
    ignored: tuple[str, ...]


def pin_batch(
    subjects: Sequence[bytes],
    votes: Sequence[tuple[str, bytes, bytes]],
    group: ConsensusGroup,
) -> BatchTally:
    """Verify each member's one vote ``(signer_id, bitmap, signature)`` on
    the batch, then apply the quorum rule to each subject over the
    verified members whose bitmap accepts it.

    A vote from a non-member, with a bitmap of the wrong width or a bad
    signature, or from a member who voted more than once, counts for no
    subject and is listed in ``ignored``.
    """
    root, paths = merkle_paths(subjects)
    width = (len(subjects) + 7) // 8
    vote_counts = Counter(signer_id for signer_id, _, _ in votes)
    ignored: list[str] = []
    accepted: dict[str, BatchVote] = {}
    for signer_id, bitmap, signature in votes:
        member = group.member(signer_id)
        if (
            member is None
            or vote_counts[signer_id] > 1
            or len(bitmap) != width
            or not verify_sig(
                batch_vote_message(group.epoch, root, bitmap), signature, member.public_key
            )
        ):
            ignored.append(signer_id)
            continue
        accepted[signer_id] = BatchVote(signer_id=signer_id, bitmap=bitmap, signature=signature)

    voters = [accepted[k] for k in sorted(accepted)]
    outcomes: list[Union[TxCertificate, InsufficientQuorum]] = []
    for index, path in enumerate(paths):
        signers = tuple(v for v in voters if bitmap_accepts(v.bitmap, index))
        shortfall = _shortfall(signers, group, ignored)
        if shortfall is not None:
            outcomes.append(shortfall)
            continue
        outcomes.append(TxCertificate(batch_root=root, index=index, path=path, signers=signers))
    return BatchTally(outcomes=tuple(outcomes), ignored=tuple(ignored))


def pin(
    subject_hash: bytes,
    votes: Sequence[tuple[str, bytes, bytes]],
    group: ConsensusGroup,
) -> Union[TxCertificate, InsufficientQuorum]:
    """Pin one subject as the one-entry batch ``[subject_hash]``: its
    certificate, or the shortfall.

    Nothing in the package calls this. It stays because perfbench traces
    it, and perfbench's tests require every traced target to resolve; it
    goes once perfbench stops tracing it."""
    return pin_batch([subject_hash], votes, group).outcomes[0]
