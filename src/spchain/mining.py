"""Proof-of-work puzzle and fork choice with pinned finality.

The puzzle preimage couples the previous keyblock with the last microblock
appended under the penultimate keyblock, so microblock history contributes
to chain weight: altering any microblock under that keyblock changes the
preimage and invalidates an already-mined successor.
"""

from __future__ import annotations

import enum
import hashlib
import random
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from . import wire
from .blocks import KeyBlock, keyblock_hash
from .signing import KeyPair
from .tx import Transaction

if TYPE_CHECKING:
    # annotations only: chain imports check_puzzle from here
    from .chain import ChainView

HASH_BITS = 256


def target_from_zero_bits(zero_bits: int) -> int:
    """Threshold below which the puzzle hash must fall.

    zero_bits=0 passes everything; each additional bit halves the odds.
    """
    if not 0 <= zero_bits < HASH_BITS:
        raise ValueError("zero bits must be in [0, 256)")
    if zero_bits == 0:
        # the open threshold 2**256 does not fit the 32-byte wire field;
        # all but the all-ones hash still pass
        return (1 << HASH_BITS) - 1
    return 1 << (HASH_BITS - zero_bits)


def puzzle_preimage(
    prev_keyblock_hash: bytes,
    penu_microblock_hash: bytes,
    nonce: int,
    miner_public_key: bytes,
) -> bytes:
    return prev_keyblock_hash + penu_microblock_hash + wire.u64(nonce) + miner_public_key


def check_puzzle(block: KeyBlock) -> bool:
    """Pure recomputation of the mining inequality; malformed -> False."""
    try:
        preimage = puzzle_preimage(
            block.prev_keyblock_hash,
            block.penu_microblock_hash,
            block.nonce,
            block.miner_public_key,
        )
        return int.from_bytes(hashlib.sha256(preimage).digest(), "big") < block.target
    except (TypeError, ValueError, OverflowError, AttributeError):
        return False


@dataclass(frozen=True)
class MiningResult:
    """block is None when the attempt budget was exhausted."""

    block: Optional[KeyBlock]
    attempts: int


def mine_keyblock(
    view: ChainView,
    register_txs: Sequence[Transaction],
    miner_key: KeyPair,
    target: int,
    max_attempts: int,
    rng: random.Random,
) -> MiningResult:
    """Search random nonces against the puzzle over the current view.

    Each attempt is ``check_puzzle``'s inequality on
    ``puzzle_preimage(prev, penu, nonce, pk)``, split at the nonce: the
    fixed ``prev || penu`` prefix is hashed once and its state copied per
    attempt. The digest is compared as bytes with the target's 32-byte
    big-endian form: equal-length big-endian strings sort as the integers
    they encode."""
    height = view.tip_height + 1
    prev = view.tip_hash
    penu = view.penu_microblock_hash
    pk = miner_key.public_key
    if target >= 1 << HASH_BITS:
        bound = b"\xff" * (HASH_BITS // 8 + 1)  # above every digest
    elif target <= 0:
        bound = b""  # below every digest
    else:
        bound = target.to_bytes(HASH_BITS // 8, "big")
    copy_prefix = hashlib.sha256(prev + penu).copy
    draw = rng.getrandbits
    # the bytes of wire.u64(nonce) + pk, packed in one call
    pack_suffix = struct.Struct(">Q%ds" % len(pk)).pack
    for attempt in range(1, max_attempts + 1):
        nonce = draw(64)
        h = copy_prefix()
        h.update(pack_suffix(nonce, pk))
        if h.digest() < bound:
            block = KeyBlock(
                prev_keyblock_hash=prev,
                penu_microblock_hash=penu,
                nonce=nonce,
                miner_public_key=pk,
                register_txs=tuple(register_txs),
                target=target,
                height=height,
            )
            return MiningResult(block=block, attempts=attempt)
    return MiningResult(block=None, attempts=max_attempts)


class ForkChoice(enum.Enum):
    ACCEPT = "accept"
    REJECT = "reject"
    ORPHAN = "orphan"


def fork_choice(view: ChainView, candidate: KeyBlock) -> ForkChoice:
    """Pinned prefix is final: anything conflicting with it is invalid.

    Accept only extensions of the pinned tip; candidates extending an
    unpinned side branch are held as orphans until pinning resolves.
    """
    candidate_hash = keyblock_hash(candidate)
    pinned_at_height = view.pinned_hash_at(candidate.height)
    if pinned_at_height is not None and pinned_at_height != candidate_hash:
        return ForkChoice.REJECT
    if candidate.height <= view.tip_height:
        # equal hash would mean the candidate already is the pinned block
        return ForkChoice.REJECT if pinned_at_height is None else ForkChoice.ACCEPT
    if candidate.prev_keyblock_hash == view.tip_hash and candidate.height == view.tip_height + 1:
        return ForkChoice.ACCEPT
    return ForkChoice.ORPHAN
