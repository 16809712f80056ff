"""Keyblock and microblock structures, pinning certificates and the
chameleon-Merkle institution hash root.

Every patient owns exactly one microblock holding their complete record
history; keyblocks carry register transactions and the proof-of-work.
Encoding is canonical and round-trip exact.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import wire
from .chameleon import (
    ChameleonDigest,
    ChameleonHashKey,
    ChameleonTrapdoor,
    ch_collide,
    ch_hash,
    decode_digest,
    encode_digest,
    message_scalar,
)
from .tx import Transaction, TxType, decode_tx, encode_tx
from .wire import DecodeError, Reader

GENESIS_KEYBLOCK_HASH = hashlib.sha256(b"spchain/genesis/keyblock").digest()
GENESIS_MICROBLOCK_HASH = hashlib.sha256(b"spchain/genesis/microblock").digest()

_KIND_KEYBLOCK = 1
_KIND_MICROBLOCK = 2


# -- pinning certificates ------------------------------------------------


@dataclass(frozen=True)
class BatchVote:
    """A member's one signature over a scheduled batch: the Merkle root of
    its subjects and the member's accept bitmap."""

    signer_id: str
    bitmap: bytes
    signature: bytes


@dataclass(frozen=True)
class TxCertificate:
    """A subject's share of its batch's votes: the batch root, the
    subject's index and inclusion path, and the members whose verified
    bitmap accepts it. A keyblock's hash is entry 0 of its round's batch,
    ahead of the round's transactions; a round that mines no keyblock
    votes on its transactions alone."""

    batch_root: bytes
    index: int
    path: tuple[bytes, ...]
    signers: tuple[BatchVote, ...]


def batch_vote_message(epoch: int, batch_root: bytes, bitmap: bytes) -> bytes:
    """The bytes a member signs to vote on a whole batch."""
    return b"spchain/batch-vote/" + wire.u64(epoch) + batch_root + bitmap


def accept_bitmap(accepts: Sequence[bool]) -> bytes:
    """Bit ``i % 8`` of byte ``i // 8`` is set when the batch's i-th
    transaction is accepted."""
    out = bytearray((len(accepts) + 7) // 8)
    for i, accepted in enumerate(accepts):
        if accepted:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def bitmap_accepts(bitmap: bytes, index: int) -> bool:
    return 0 <= index < 8 * len(bitmap) and bool(bitmap[index >> 3] >> (index & 7) & 1)


def encode_certificate(cert: TxCertificate) -> bytes:
    out = wire.var_bytes(cert.batch_root) + wire.u32(cert.index) + wire.u32(len(cert.path))
    out += b"".join(wire.var_bytes(node) for node in cert.path)
    out += wire.u32(len(cert.signers))
    for s in cert.signers:
        out += wire.var_str(s.signer_id) + wire.var_bytes(s.bitmap) + wire.var_bytes(s.signature)
    return out


def decode_certificate(reader: Reader) -> TxCertificate:
    root = reader.var_bytes()
    index = reader.u32()
    path = tuple(reader.var_bytes() for _ in range(reader.u32()))
    signers = tuple(
        BatchVote(
            signer_id=reader.var_str(),
            bitmap=reader.var_bytes(),
            signature=reader.var_bytes(),
        )
        for _ in range(reader.u32())
    )
    return TxCertificate(batch_root=root, index=index, path=path, signers=signers)


# -- blocks ----------------------------------------------------------------


@dataclass(frozen=True)
class KeyBlock:
    prev_keyblock_hash: bytes
    penu_microblock_hash: bytes
    nonce: int
    miner_public_key: bytes
    register_txs: tuple[Transaction, ...]
    target: int
    height: int
    pin_cert: Optional[TxCertificate] = None


@dataclass(frozen=True)
class MicroBlock:
    owner_patient_id: str
    institution_root: ChameleonDigest
    txs: tuple[Transaction, ...]
    creator_miner_id: str
    round_number: int
    prev_hash: bytes


def encode_keyblock(block: KeyBlock, include_cert: bool = True) -> bytes:
    out = (
        wire.u8(_KIND_KEYBLOCK)
        + wire.var_bytes(block.prev_keyblock_hash)
        + wire.var_bytes(block.penu_microblock_hash)
        + wire.u64(block.nonce)
        + wire.var_bytes(block.miner_public_key)
        + wire.u256(block.target)
        + wire.u64(block.height)
        + wire.u32(len(block.register_txs))
    )
    for tx in block.register_txs:
        out += wire.var_bytes(encode_tx(tx))
    if include_cert and block.pin_cert is not None:
        out += wire.u8(1) + encode_certificate(block.pin_cert)
    else:
        out += wire.u8(0)
    return out


def encode_microblock(block: MicroBlock) -> bytes:
    return (
        wire.u8(_KIND_MICROBLOCK)
        + wire.var_str(block.owner_patient_id)
        + encode_digest(block.institution_root)
        + wire.var_str(block.creator_miner_id)
        + wire.u64(block.round_number)
        + wire.var_bytes(block.prev_hash)
        + wire.u32(len(block.txs))
        + b"".join([wire.var_bytes(encode_tx(tx)) for tx in block.txs])
    )


def encode_block(block: "KeyBlock | MicroBlock") -> bytes:
    if isinstance(block, KeyBlock):
        return encode_keyblock(block)
    return encode_microblock(block)


def decode_block(data: bytes) -> "KeyBlock | MicroBlock":
    reader = Reader(data)
    kind = reader.u8()
    if kind == _KIND_KEYBLOCK:
        block = _decode_keyblock_body(reader)
    elif kind == _KIND_MICROBLOCK:
        block = _decode_microblock_body(reader)
    else:
        raise DecodeError(f"unknown block kind {kind}", 0)
    reader.expect_end()
    return block


def _decode_tx_entry(reader: Reader) -> Transaction:
    raw = reader.var_bytes()
    inner = Reader(raw)
    tx = decode_tx(inner)
    inner.expect_end()
    return tx


def _decode_keyblock_body(reader: Reader) -> KeyBlock:
    prev = reader.var_bytes()
    penu = reader.var_bytes()
    nonce = reader.u64()
    pk = reader.var_bytes()
    target = reader.u256()
    height = reader.u64()
    n = reader.u32()
    txs = []
    for _ in range(n):
        tx = _decode_tx_entry(reader)
        if tx.tx_type is not TxType.REGISTER:
            raise DecodeError("keyblock may only contain register transactions", reader.pos)
        txs.append(tx)
    cert = decode_certificate(reader) if reader.u8() else None
    return KeyBlock(
        prev_keyblock_hash=prev,
        penu_microblock_hash=penu,
        nonce=nonce,
        miner_public_key=pk,
        register_txs=tuple(txs),
        target=target,
        height=height,
        pin_cert=cert,
    )


def _decode_microblock_body(reader: Reader) -> MicroBlock:
    owner = reader.var_str()
    root = decode_digest(reader)
    creator = reader.var_str()
    round_number = reader.u64()
    prev_hash = reader.var_bytes()
    txs = tuple(_decode_tx_entry(reader) for _ in range(reader.u32()))
    return MicroBlock(
        owner_patient_id=owner,
        institution_root=root,
        txs=txs,
        creator_miner_id=creator,
        round_number=round_number,
        prev_hash=prev_hash,
    )


def keyblock_hash(block: KeyBlock) -> bytes:
    """Hash of the keyblock content; the pin certificate (added after the
    fact) is excluded so the hash is stable across pinning."""
    return hashlib.sha256(encode_keyblock(block, include_cert=False)).digest()


def microblock_hash(block: MicroBlock) -> bytes:
    return hashlib.sha256(encode_microblock(block)).digest()


# -- institution hash root (chameleon Merkle) ------------------------------


def _merkle_levels(leaves: Sequence[bytes]) -> list[list[bytes]]:
    if not leaves:
        raise ValueError("merkle tree needs at least one leaf")
    level = [hashlib.sha256(leaf).digest() for leaf in leaves]
    levels = [level]
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            hashlib.sha256(level[i] + level[i + 1]).digest()
            for i in range(0, len(level), 2)
        ]
        levels.append(level)
    return levels


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Binary Merkle over content-hashed leaves; odd level widths
    duplicate the last digest."""
    return _merkle_levels(leaves)[-1][0]


def merkle_paths(leaves: Sequence[bytes]) -> tuple[bytes, list[tuple[bytes, ...]]]:
    """The root and, per leaf, its inclusion path: the sibling digest at
    each level, leaf level first."""
    levels = _merkle_levels(leaves)
    paths = [
        tuple(level[(index >> depth) ^ 1] for depth, level in enumerate(levels[:-1]))
        for index in range(len(leaves))
    ]
    return levels[-1][0], paths


def merkle_path_verifies(
    leaf: bytes, index: int, path: Sequence[bytes], root: bytes
) -> bool:
    """True when ``path`` leads from ``leaf`` at ``index`` to ``root``."""
    if not 0 <= index < 1 << len(path):
        return False
    node = hashlib.sha256(leaf).digest()
    for sibling in path:
        pair = node + sibling if index % 2 == 0 else sibling + node
        node = hashlib.sha256(pair).digest()
        index >>= 1
    return node == root


def institution_root(
    leaves: Sequence[bytes],
    hk: ChameleonHashKey,
    rng: random.Random,
) -> ChameleonDigest:
    """Merkle the institution info, then chameleon-hash the top digest.

    Only the final root is trapdoor-hashed, so redaction keeps the stored
    root h stable while the leaf set changes.
    """
    if not leaves:
        raise ValueError("institution root needs at least one leaf")
    top = merkle_root(leaves)
    r = hk.group.random_nonzero_scalar(rng)
    return ch_hash(hk, message_scalar(top, hk.group), r)


def update_institution_root(
    root: ChameleonDigest,
    new_leaves: Sequence[bytes],
    hk: ChameleonHashKey,
    tk: ChameleonTrapdoor,
) -> ChameleonDigest:
    """Rebind the root to a new leaf set without changing h (trapdoor collision)."""
    if not new_leaves:
        raise ValueError("institution root needs at least one leaf")
    top = merkle_root(new_leaves)
    return ch_collide(tk, hk, root, message_scalar(top, hk.group))


# -- microblock append ------------------------------------------------------


def append_pinned_tx(microblock: MicroBlock, tx: Transaction) -> MicroBlock:
    """Append a pinned transaction at the tail; prior entries are
    untouched. The caller has checked its certificate
    (``ChainState.append_to_microblock``)."""
    if tx.tx_type not in (TxType.MEDICAL, TxType.LABEL):
        raise ValueError("microblocks hold medical and label transactions only")
    return replace(microblock, txs=microblock.txs + (tx,))
