"""Transaction construction and canonical encoding.

Three transaction types: Register (packed into keyblocks), Medical and
Label (appended to the owning patient's microblock). A transaction id is
the content hash of the canonical encoding, so any payload change yields
a different id.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from . import wire
from .chameleon import (
    ChameleonDigest,
    ChameleonHashKey,
    ch_verify,
    decode_digest,
    encode_digest,
)
from .signing import KeyPair, sign
from .wire import DecodeError, Reader

TX_ID_LEN = 32


class TxType(enum.IntEnum):
    REGISTER = 1
    MEDICAL = 2
    LABEL = 3


@dataclass(frozen=True)
class RegisterPayload:
    receiver_id: str
    identity_digest: bytes  # content hash of ID || age || ... auxiliary info


@dataclass(frozen=True)
class MedicalPayload:
    receiver_id: str
    ch_digest: ChameleonDigest
    pointer: str
    round_number: int


@dataclass(frozen=True)
class LabelPayload:
    receiver_id: str
    target_tx_hash: bytes
    ch_digest: ChameleonDigest
    pointer: str
    round_number: int


Payload = Union[RegisterPayload, MedicalPayload, LabelPayload]


@dataclass(frozen=True)
class Transaction:
    tx_type: TxType
    payload: Payload
    sender_pk: bytes
    fee: int
    signature: bytes
    tx_id: bytes

    @cached_property
    def body(self) -> bytes:
        """The signed bytes, encoded once per object: the fields are
        frozen, and ``replace`` builds a new object."""
        return signing_bytes(self.tx_type, self.payload, self.sender_pk, self.fee)


def _encode_payload(tx_type: TxType, payload: Payload) -> bytes:
    if tx_type is TxType.REGISTER:
        assert isinstance(payload, RegisterPayload)
        return wire.var_str(payload.receiver_id) + wire.var_bytes(payload.identity_digest)
    if tx_type is TxType.MEDICAL:
        assert isinstance(payload, MedicalPayload)
        return (
            wire.var_str(payload.receiver_id)
            + encode_digest(payload.ch_digest)
            + wire.var_str(payload.pointer)
            + wire.u64(payload.round_number)
        )
    assert isinstance(payload, LabelPayload)
    return (
        wire.var_str(payload.receiver_id)
        + wire.var_bytes(payload.target_tx_hash)
        + encode_digest(payload.ch_digest)
        + wire.var_str(payload.pointer)
        + wire.u64(payload.round_number)
    )


def _decode_payload(tx_type: TxType, reader: Reader) -> Payload:
    if tx_type is TxType.REGISTER:
        return RegisterPayload(
            receiver_id=reader.var_str(), identity_digest=reader.var_bytes()
        )
    if tx_type is TxType.MEDICAL:
        return MedicalPayload(
            receiver_id=reader.var_str(),
            ch_digest=decode_digest(reader),
            pointer=reader.var_str(),
            round_number=reader.u64(),
        )
    return LabelPayload(
        receiver_id=reader.var_str(),
        target_tx_hash=reader.var_bytes(),
        ch_digest=decode_digest(reader),
        pointer=reader.var_str(),
        round_number=reader.u64(),
    )


def signing_bytes(tx_type: TxType, payload: Payload, sender_pk: bytes, fee: int) -> bytes:
    return (
        wire.u8(int(tx_type))
        + _encode_payload(tx_type, payload)
        + wire.var_bytes(sender_pk)
        + wire.u64(fee)
    )


def encode_tx(tx: Transaction) -> bytes:
    return tx.body + wire.var_bytes(tx.signature)


def compute_tx_id(encoded: bytes) -> bytes:
    return hashlib.sha256(encoded).digest()


def decode_tx(reader: Reader) -> Transaction:
    start = reader.pos
    raw_type = reader.u8()
    try:
        tx_type = TxType(raw_type)
    except ValueError:
        raise DecodeError(f"unknown transaction type {raw_type}", start)
    payload = _decode_payload(tx_type, reader)
    sender_pk = reader.var_bytes()
    fee = reader.u64()
    signature = reader.var_bytes()
    tx_id = compute_tx_id(reader.data[start : reader.pos])
    return Transaction(
        tx_type=tx_type,
        payload=payload,
        sender_pk=sender_pk,
        fee=fee,
        signature=signature,
        tx_id=tx_id,
    )


def build_tx(
    tx_type: TxType,
    payload: Payload,
    signing_key: KeyPair,
    fee: int = 0,
    receiver_hk: Optional[ChameleonHashKey] = None,
) -> Transaction:
    """Sign and id a transaction.

    Medical and Label payloads must carry a chameleon digest that verifies
    under the receiving institution's hash key; Label payloads must name a
    target transaction hash.
    """
    if tx_type in (TxType.MEDICAL, TxType.LABEL):
        if receiver_hk is None:
            raise ValueError("medical/label transactions need the receiver's hash key")
        if not ch_verify(receiver_hk, payload.ch_digest):  # type: ignore[union-attr]
            raise ValueError("chameleon digest does not verify")
    if tx_type is TxType.LABEL and len(payload.target_tx_hash) != TX_ID_LEN:  # type: ignore[union-attr]
        raise ValueError("label transaction needs a 32-byte target tx hash")
    body = signing_bytes(tx_type, payload, signing_key.public_key, fee)
    signature = sign(body, signing_key)
    encoded = body + wire.var_bytes(signature)
    return Transaction(
        tx_type=tx_type,
        payload=payload,
        sender_pk=signing_key.public_key,
        fee=fee,
        signature=signature,
        tx_id=compute_tx_id(encoded),
    )
