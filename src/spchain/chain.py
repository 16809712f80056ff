"""Chain state: pinned keyblocks, per-patient microblocks, registration
and transaction validation.

Single-writer discipline: all mutation goes through the methods here, so
readers always see a consistent snapshot. Block and transaction values
themselves are immutable.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import KeysView
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .blocks import (
    GENESIS_KEYBLOCK_HASH,
    GENESIS_MICROBLOCK_HASH,
    KeyBlock,
    MicroBlock,
    TxCertificate,
    append_pinned_tx,
    keyblock_hash,
    microblock_hash,
)
from .chameleon import ChameleonHashKey, ch_verify
from .consensus import ConsensusGroup, check_certificate
from .mining import check_puzzle
from .reputation import CHUNK_SIZE, Sums
from .signing import address_of, verify_sig
from .tx import (
    LabelPayload,
    MedicalPayload,
    RegisterPayload,
    Transaction,
    TxType,
    compute_tx_id,
    encode_tx,
)

# machine-readable validation reasons
OK = "OK"
BAD_SIGNATURE = "BAD_SIGNATURE"
UNKNOWN_INSTITUTION = "UNKNOWN_INSTITUTION"
UNREGISTERED = "UNREGISTERED"
ALREADY_REGISTERED = "ALREADY_REGISTERED"
BAD_PROOF = "BAD_PROOF"
LABEL_TARGET_MISSING = "LABEL_TARGET_MISSING"
BAD_ROUND = "BAD_ROUND"
MALFORMED = "MALFORMED"
DUPLICATE = "DUPLICATE"
BAD_TX_ID = "BAD_TX_ID"


@dataclass(frozen=True)
class InstitutionInfo:
    institution_id: str
    hk: ChameleonHashKey


@dataclass(frozen=True)
class PatientInfo:
    patient_id: str
    identity_digest: bytes
    home_institution_id: str  # the register tx's receiver; the root is under its key


@dataclass(frozen=True)
class ChainView:
    """Snapshot used by miners and fork choice.

    ``pinned_hashes`` is the chain state's own append-only list of pinned
    keyblock hashes, entry ``h - 1`` for height ``h``; the view reads only
    heights ``1..tip_height``. Those entries never change once appended,
    so the view stays a snapshot without copying them."""

    pinned_hashes: Sequence[bytes]
    tip_height: int
    tip_hash: bytes
    penu_microblock_hash: bytes

    def pinned_hash_at(self, height: int) -> Optional[bytes]:
        if 1 <= height <= self.tip_height:
            return self.pinned_hashes[height - 1]
        return None


@dataclass(frozen=True)
class RecordDescriptor:
    tx: Transaction
    current: Transaction  # newest label in the chain, or the tx itself


class _RecordIndex:
    """One patient's microblock entries, indexed as they are appended.

    The label rule lives here: the newest label for a target wins, and an
    entry resolves to the end of its chain of newest labels, stopping at
    the first id met twice. ``descriptors[p]`` is the entry at position
    ``p`` with its chain resolved under every label appended so far; an id
    is appended at most once, at ``positions[id]``. ``certified`` holds
    the institutions that the microblock's root certifies, in order: the
    home institution, then each receiver when first appended."""

    def __init__(self, home_institution_id: str) -> None:
        self.positions: dict[bytes, int] = {}
        self.newest_label: dict[bytes, Transaction] = {}
        self.descriptors: list[RecordDescriptor] = []
        self.certified: dict[str, None] = {home_institution_id: None}

    def append(self, tx: Transaction) -> None:
        if tx.tx_id in self.positions:
            raise ValueError("transaction is already in the patient's microblock")
        self.positions[tx.tx_id] = len(self.descriptors)
        receiver = tx.payload.receiver_id
        if receiver not in self.certified:
            self.certified[receiver] = None
        if tx.tx_type is TxType.LABEL:
            self.newest_label[tx.payload.target_tx_hash] = tx
        self.descriptors.append(RecordDescriptor(tx, self._resolve(tx)))
        if tx.tx_type is TxType.LABEL:
            # only entries whose chain reaches the target can resolve anew
            for tx_id in self._back_walk(tx.payload.target_tx_hash):
                pos = self.positions.get(tx_id)
                if pos is not None:
                    entry = self.descriptors[pos].tx
                    self.descriptors[pos] = RecordDescriptor(entry, self._resolve(entry))

    def _resolve(self, entry: Transaction) -> Transaction:
        seen = {entry.tx_id}
        while entry.tx_id in self.newest_label:
            entry = self.newest_label[entry.tx_id]
            if entry.tx_id in seen:
                break
            seen.add(entry.tx_id)
        return entry

    def _back_walk(self, tx_id: bytes) -> set[bytes]:
        """``tx_id``, then the target it is the newest label for, and so
        on: every id whose chain of newest labels passes through it."""
        walked: set[bytes] = set()
        while tx_id not in walked:
            walked.add(tx_id)
            pos = self.positions.get(tx_id)
            if pos is None:
                break
            entry = self.descriptors[pos].tx
            if entry.tx_type is not TxType.LABEL:
                break
            target = entry.payload.target_tx_hash
            if self.newest_label[target].tx_id != tx_id:
                break
            tx_id = target
        return walked


# an institution's receipts in the newest chunk it received in, as
# (chunk index, count)
TaggedCount = tuple[int, int]


def _count_one(
    counts: dict[str, TaggedCount], sums: dict[str, Sums], institution_id: str, chunk: int
) -> None:
    """Count one more receipt at ``institution_id`` in ``chunk``, the
    current chunk, and raise its running sums with it: as the chunk's
    count goes from v to v + 1, S1 gains 1 and S2 gains 2v + 1. A count
    tagged with an older chunk is v = 0 here, so a new chunk of zero
    changes no entry."""
    tag, v = counts[institution_id]
    if tag != chunk:
        v = 0
    counts[institution_id] = (chunk, v + 1)
    s1, s2 = sums[institution_id]
    sums[institution_id] = (s1 + 1, s2 + 2 * v + 1)


class ChainState:
    def __init__(self) -> None:
        self.institutions: dict[str, InstitutionInfo] = {}
        self.patients: dict[str, PatientInfo] = {}
        self._patients_by_pk: dict[bytes, str] = {}
        self._identity_index: dict[bytes, str] = {}
        self.microblocks: dict[str, MicroBlock] = {}
        self._records: dict[str, _RecordIndex] = {}
        self.pinned_keyblocks: list[KeyBlock] = []
        self._pinned_hashes: list[bytes] = []
        # entry h: the last microblock touched while the pinned tip was at
        # most h, carried forward on each pin; entry 0 holds touches made
        # before the first pin, which count toward height 1. An entry holds
        # the touched block until it is read or carried forward, then its
        # hash, so an append does not hash the patient's history
        self._last_mb: list[bytes | MicroBlock] = [GENESIS_MICROBLOCK_HASH]
        self.current_round = 0
        # reputation inputs: pinned keyblocks per miner key and, per
        # institution, the running sums over its receipts per chunk c of
        # heights c*CHUNK_SIZE+1 .. (c+1)*CHUNK_SIZE, up to the tip's chunk,
        # with its count in the last chunk it received in, tagged with that
        # chunk; chunk 0 also takes appends made at tip 0
        self.keyblocks_mined: Counter[str] = Counter()
        self.register_counts: dict[str, TaggedCount] = {}
        self.medical_counts: dict[str, TaggedCount] = {}
        self.register_sums: dict[str, Sums] = {}
        self.medical_sums: dict[str, Sums] = {}
        self.medical_tx_count = 0
        self.chunk_count = 1
        # instrumentation: microblock store reads, for retrieval-cost checks
        self.store_accesses = 0

    # -- registries -----------------------------------------------------

    def register_institution(self, info: InstitutionInfo) -> None:
        self.institutions[info.institution_id] = info
        self.register_counts.setdefault(info.institution_id, (0, 0))
        self.medical_counts.setdefault(info.institution_id, (0, 0))
        self.register_sums.setdefault(info.institution_id, (0, 0))
        self.medical_sums.setdefault(info.institution_id, (0, 0))

    def patient_id_for(self, public_key: bytes) -> Optional[str]:
        return self._patients_by_pk.get(public_key)

    def register_patient(self, tx: Transaction) -> PatientInfo:
        assert tx.tx_type is TxType.REGISTER
        payload = tx.payload
        assert isinstance(payload, RegisterPayload)
        patient_id = address_of(tx.sender_pk)
        info = PatientInfo(
            patient_id=patient_id,
            identity_digest=payload.identity_digest,
            home_institution_id=payload.receiver_id,
        )
        self.patients[patient_id] = info
        self._patients_by_pk[tx.sender_pk] = patient_id
        self._identity_index[payload.identity_digest] = patient_id
        return info

    # -- chain growth -----------------------------------------------------

    @property
    def tip_height(self) -> int:
        # add_pinned_keyblock keeps heights at 1..n
        return len(self.pinned_keyblocks)

    @property
    def tip_hash(self) -> bytes:
        return self._pinned_hashes[-1] if self._pinned_hashes else GENESIS_KEYBLOCK_HASH

    def last_microblock_hash(self, height: int) -> bytes:
        """Hash of the last microblock appended under the keyblock at
        ``height``; carried forward from earlier rounds, genesis before any."""
        if height < 1:
            return GENESIS_MICROBLOCK_HASH
        return self._settle(min(height, self.tip_height))

    def _settle(self, index: int) -> bytes:
        entry = self._last_mb[index]
        if isinstance(entry, MicroBlock):
            entry = self._last_mb[index] = microblock_hash(entry)
        return entry

    def penu_microblock_hash_for(self, next_height: int) -> bytes:
        if next_height <= 2:
            return GENESIS_MICROBLOCK_HASH
        return self.last_microblock_hash(next_height - 2)

    def view(self) -> ChainView:
        return ChainView(
            pinned_hashes=self._pinned_hashes,
            tip_height=self.tip_height,
            tip_hash=self.tip_hash,
            penu_microblock_hash=self.penu_microblock_hash_for(self.tip_height + 1),
        )

    def add_pinned_keyblock(self, block: KeyBlock, group: ConsensusGroup) -> None:
        """Extend the pinned tip with ``block``, whose certificate must pin
        its hash in ``group`` (the group of the round it was pinned in) as
        entry 0 of the round's batch."""
        digest = keyblock_hash(block)
        check_certificate(digest, block.pin_cert, group)
        if block.pin_cert.index != 0:
            raise ValueError("not pinned: a keyblock is entry 0 of its round's batch")
        if block.height != self.tip_height + 1 or block.prev_keyblock_hash != self.tip_hash:
            raise ValueError("keyblock does not extend the pinned tip")
        if block.penu_microblock_hash != self.penu_microblock_hash_for(block.height):
            raise ValueError("keyblock names the wrong penultimate microblock")
        if not check_puzzle(block):
            raise ValueError("keyblock does not solve its puzzle")
        if any(tx.payload.receiver_id not in self.institutions for tx in block.register_txs):
            raise ValueError("keyblock registers a patient at an unknown institution")
        self.pinned_keyblocks.append(block)
        self._pinned_hashes.append(digest)
        self._last_mb.append(self._settle(-1))
        if (block.height - 1) // CHUNK_SIZE == self.chunk_count:
            self.chunk_count += 1
        self.keyblocks_mined[address_of(block.miner_public_key)] += 1
        for tx in block.register_txs:
            receiver = tx.payload.receiver_id
            _count_one(self.register_counts, self.register_sums, receiver, self.chunk_count - 1)

    def create_microblock(self, microblock: MicroBlock) -> None:
        """Open a registered patient's microblock. It starts empty: each
        entry arrives through ``append_to_microblock``, which checks its
        certificate and counts it."""
        patient_id = microblock.owner_patient_id
        if patient_id in self.microblocks:
            raise ValueError("patient already owns a microblock")
        if patient_id not in self.patients:
            raise ValueError("owner is not a registered patient")
        if microblock.txs:
            raise ValueError("a new microblock must have no entries")
        self._check_root_opening(microblock)
        self.microblocks[patient_id] = microblock
        self._records[patient_id] = _RecordIndex(self.patients[patient_id].home_institution_id)
        self._touch_microblock(microblock)

    def append_to_microblock(
        self,
        patient_id: str,
        tx: Transaction,
        cert: Optional[TxCertificate],
        group: ConsensusGroup,
    ) -> MicroBlock:
        """Append ``tx``, whose certificate must pin its id in ``group``
        and whose id must be new to the microblock."""
        check_certificate(tx.tx_id, cert, group)
        receiver = tx.payload.receiver_id
        if receiver not in self.institutions:
            raise ValueError("transaction is addressed to an unknown institution")
        updated = append_pinned_tx(self.microblocks[patient_id], tx)
        self._records[patient_id].append(tx)
        self.microblocks[patient_id] = updated
        self._touch_microblock(updated)
        _count_one(self.medical_counts, self.medical_sums, receiver, self.chunk_count - 1)
        self.medical_tx_count += 1
        return updated

    def replace_microblock(self, microblock: MicroBlock) -> None:
        """Swap in a microblock whose institution root was redacted: every
        other field, and the root's ``h``, must be unchanged, and the new
        opening must verify. ``txs`` cannot change, so the record index
        stands."""
        current = self.microblocks[microblock.owner_patient_id]
        if (
            microblock.institution_root.h != current.institution_root.h
            or replace(microblock, institution_root=current.institution_root) != current
        ):
            raise ValueError("a redaction may change only the institution root's opening")
        self._check_root_opening(microblock)
        self.microblocks[microblock.owner_patient_id] = microblock

    def _check_root_opening(self, microblock: MicroBlock) -> None:
        home = self.patients[microblock.owner_patient_id].home_institution_id
        if not ch_verify(self.institutions[home].hk, microblock.institution_root):
            raise ValueError("institution root does not open under the home institution's key")

    def _touch_microblock(self, microblock: MicroBlock) -> None:
        self._last_mb[-1] = microblock

    # -- lookups ----------------------------------------------------------

    def certified_institutions(self, patient_id: str) -> KeysView[str]:
        """The institutions that the patient's microblock root certifies:
        the home institution, then each receiver in first-appended order.
        A read-only live view; membership is one dict lookup."""
        return self._records[patient_id].certified.keys()

    def history_of(self, patient_id: str) -> list[RecordDescriptor]:
        """The patient's entries in order, each with its newest label; a
        fresh list per call. Charged as one microblock fetch plus one read
        per entry."""
        descriptors = self._records[patient_id].descriptors
        self.store_accesses += 1 + len(descriptors)
        return list(descriptors)

    def find_patient_tx(self, patient_id: str, tx_id: bytes) -> Optional[Transaction]:
        """The entry with ``tx_id`` in the patient's microblock. Charged as
        a scan from the head: the entries up to a hit, all of them on a
        miss."""
        records = self._records.get(patient_id)
        if records is None:
            return None
        pos = records.positions.get(tx_id)
        if pos is None:
            self.store_accesses += len(records.descriptors)
            return None
        self.store_accesses += pos + 1
        return records.descriptors[pos].tx

    # -- validation ---------------------------------------------------------

    def validate_tx(self, tx: Transaction) -> tuple[bool, str]:
        """True plus OK, or False plus a machine-readable reason code."""
        try:
            encoded = encode_tx(tx)
        except Exception:
            return False, MALFORMED
        if not verify_sig(tx.body, tx.signature, tx.sender_pk):
            return False, BAD_SIGNATURE
        # the id is neither signed nor on the wire: a replay under a fresh
        # id would pass the DUPLICATE check below
        if compute_tx_id(encoded) != tx.tx_id:
            return False, BAD_TX_ID

        receiver = self.institutions.get(tx.payload.receiver_id)
        if receiver is None:
            return False, UNKNOWN_INSTITUTION

        if tx.tx_type is TxType.REGISTER:
            payload = tx.payload
            assert isinstance(payload, RegisterPayload)
            if (
                tx.sender_pk in self._patients_by_pk
                or payload.identity_digest in self._identity_index
            ):
                return False, ALREADY_REGISTERED
            return True, OK

        patient_id = self._patients_by_pk.get(tx.sender_pk)
        if patient_id is None:
            return False, UNREGISTERED
        records = self._records.get(patient_id)
        if records is not None and tx.tx_id in records.positions:
            # read the index directly: a replay check is not a store access
            return False, DUPLICATE

        payload = tx.payload
        assert isinstance(payload, (MedicalPayload, LabelPayload))
        if payload.round_number > self.current_round:
            return False, BAD_ROUND
        if not ch_verify(receiver.hk, payload.ch_digest):
            return False, BAD_PROOF

        if tx.tx_type is TxType.LABEL:
            assert isinstance(payload, LabelPayload)
            if self.find_patient_tx(patient_id, payload.target_tx_hash) is None:
                return False, LABEL_TARGET_MISSING
        return True, OK
