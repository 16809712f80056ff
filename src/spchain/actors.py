"""Patient and medical-institution actors: Setup, Register, Upload,
Label, Share and history retrieval, plus the institution's off-chain
record store.

Plaintext record bytes live only inside the patient, the originating
institution and explicitly shared targets; the chain carries digests and
pointers. Each actor tracks which records it holds in the clear so
scenario traces can assert confinement.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .chain import ChainState, InstitutionInfo, RecordDescriptor
from .chameleon import ChameleonKeys, ch_hash, ch_keygen, message_scalar
from .envelope import SymmetricKey, seal_emr, symmetric_key_from_seed, unseal_layer
from .group import default_group
from .signing import KeyPair, address_of, keypair_from_seed
from .tx import (
    LabelPayload,
    MedicalPayload,
    RegisterPayload,
    Transaction,
    TxType,
    build_tx,
)


class ShareRefused(Exception):
    """The source institution declined or is unavailable; nothing leaked."""


class OffChainStore:
    """Content-addressed ciphertext store; pointer = content hash hex."""

    def __init__(self):
        self._blobs: dict[str, bytes] = {}

    def put(self, data: bytes) -> str:
        pointer = hashlib.sha256(data).hexdigest()
        self._blobs[pointer] = data
        return pointer

    def get(self, pointer: str) -> bytes:
        return self._blobs[pointer]

    def __contains__(self, pointer: str) -> bool:
        return pointer in self._blobs


@dataclass(frozen=True)
class EmrRecord:
    plaintext: bytes
    institution_id: str
    patient_id: str
    creation_round: int

    @property
    def record_id(self) -> str:
        return hashlib.sha256(self.plaintext).hexdigest()[:16]


@dataclass
class PatientActor:
    sym_key: SymmetricKey
    keypair: KeyPair
    address: str
    plaintext_holdings: set = field(default_factory=set)


@dataclass
class InstitutionActor:
    sym_key: SymmetricKey
    keypair: KeyPair
    address: str
    ch_keys: ChameleonKeys
    store: OffChainStore
    rng: random.Random
    share_enabled: bool = True
    plaintext_holdings: set = field(default_factory=set)

    @property
    def info_leaf(self) -> bytes:
        """Canonical certified public info, used as a Merkle leaf."""
        return b"institution:" + self.address.encode() + b":" + self.keypair.public_key

    def chain_info(self) -> InstitutionInfo:
        return InstitutionInfo(institution_id=self.address, hk=self.ch_keys.hk)


def setup_patient(seed: bytes) -> PatientActor:
    """All key material derives deterministically from the seed."""
    keypair = keypair_from_seed(b"patient/" + seed)
    return PatientActor(
        sym_key=symmetric_key_from_seed(b"patient/" + seed),
        keypair=keypair,
        address=address_of(keypair.public_key),
    )


def setup_institution(seed: bytes) -> InstitutionActor:
    keypair = keypair_from_seed(b"institution/" + seed)
    rng = random.Random(hashlib.sha256(b"institution-rng/" + seed).digest())
    ch_keys = ch_keygen(default_group(), rng)
    return InstitutionActor(
        sym_key=symmetric_key_from_seed(b"institution/" + seed),
        keypair=keypair,
        address=address_of(keypair.public_key),
        ch_keys=ch_keys,
        store=OffChainStore(),
        rng=rng,
    )


# -- protocol operations ----------------------------------------------------


def register(
    patient: PatientActor,
    institution: InstitutionActor,
    identity_info: bytes,
    fee: int = 0,
) -> Transaction:
    """Emit the register transaction carrying the identity digest and fee."""
    payload = RegisterPayload(
        receiver_id=institution.address,
        identity_digest=hashlib.sha256(identity_info).digest(),
    )
    return build_tx(TxType.REGISTER, payload, patient.keypair, fee=fee)


def _seal_and_digest(
    patient: PatientActor, institution: InstitutionActor, record: EmrRecord
):
    sealed = seal_emr(record.plaintext, patient.sym_key, institution.sym_key)
    pointer = institution.store.put(sealed.ciphertext)
    m = message_scalar(sealed.ciphertext, institution.ch_keys.hk.group)
    r = institution.ch_keys.hk.group.random_nonzero_scalar(institution.rng)
    digest = ch_hash(institution.ch_keys.hk, m, r)
    patient.plaintext_holdings.add(record.record_id)
    institution.plaintext_holdings.add(record.record_id)
    return sealed, pointer, digest


def upload(
    patient: PatientActor,
    institution: InstitutionActor,
    record: EmrRecord,
    chain: ChainState,
    fee: int = 0,
) -> Transaction:
    """Seal the record, stash the ciphertext off-chain, emit the medical tx.

    The flow is identical for a first visit, a revisit, and a visit to a
    new institution; only the receiving institution differs.
    """
    if patient.address not in chain.patients:
        raise ValueError("patient is not registered")
    _, pointer, digest = _seal_and_digest(patient, institution, record)
    payload = MedicalPayload(
        receiver_id=institution.address,
        ch_digest=digest,
        pointer=pointer,
        round_number=chain.current_round,
    )
    return build_tx(
        TxType.MEDICAL,
        payload,
        patient.keypair,
        fee=fee,
        receiver_hk=institution.ch_keys.hk,
    )


def label(
    patient: PatientActor,
    institution: InstitutionActor,
    wrong_tx_id: bytes,
    corrected: EmrRecord,
    chain: ChainState,
    fee: int = 0,
) -> Transaction:
    """Append-only correction of a misdiagnosed record."""
    if patient.address not in chain.patients:
        raise ValueError("patient is not registered")
    target = chain.find_patient_tx(patient.address, wrong_tx_id)
    if target is None:
        raise ValueError("label target not found in the patient's microblock")
    if target.payload.receiver_id != institution.address:
        raise ValueError("label target originated at a different institution")
    _, pointer, digest = _seal_and_digest(patient, institution, corrected)
    payload = LabelPayload(
        receiver_id=institution.address,
        target_tx_hash=wrong_tx_id,
        ch_digest=digest,
        pointer=pointer,
        round_number=chain.current_round,
    )
    return build_tx(
        TxType.LABEL,
        payload,
        patient.keypair,
        fee=fee,
        receiver_hk=institution.ch_keys.hk,
    )


def share(
    patient: PatientActor,
    source: InstitutionActor,
    target: InstitutionActor,
    tx_ids: list[bytes],
    chain: ChainState,
) -> list[bytes]:
    """Patient-mediated sharing under dual control.

    The source strips its outer layer, the patient strips the inner layer
    and forwards the plaintext; the target never sees either key, and the
    source alone cannot complete the disclosure.
    """
    if not source.share_enabled:
        raise ShareRefused(f"institution {source.address} refused to decrypt")
    delivered: list[bytes] = []
    for tx_id in tx_ids:
        tx = chain.find_patient_tx(patient.address, tx_id)
        if tx is None:
            raise ValueError("transaction not in the patient's microblock")
        if tx.tx_type not in (TxType.MEDICAL, TxType.LABEL):
            raise ValueError("only medical records can be shared")
        if tx.payload.receiver_id != source.address:
            raise ValueError("record did not originate at the source institution")
        outer_ct = source.store.get(tx.payload.pointer)
        inner_ct = unseal_layer(outer_ct, source.sym_key)
        plaintext = unseal_layer(inner_ct, patient.sym_key)
        record_id = hashlib.sha256(plaintext).hexdigest()[:16]
        target.plaintext_holdings.add(record_id)
        delivered.append(plaintext)
    return delivered


def retrieve_history(patient_id: str, chain: ChainState) -> list[RecordDescriptor]:
    """The patient's full chronological record list, each entry with the
    newest label chained to it (the entry itself when it has none).

    The chain indexes each patient's records as they are appended, so a
    read copies that patient's descriptor list: its cost tracks the
    patient's own history and is independent of total chain length.
    Raises ``KeyError`` for an unregistered patient.
    """
    if patient_id not in chain.patients:
        raise KeyError(f"unknown patient {patient_id}")
    return chain.history_of(patient_id)
