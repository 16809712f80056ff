import dataclasses
import random

import pytest

from spchain import chain as chain_mod
from spchain.actors import EmrRecord, register, setup_institution, setup_patient, upload
from spchain.blocks import (
    GENESIS_MICROBLOCK_HASH,
    KeyBlock,
    MicroBlock,
    PinCertificate,
    PinSignature,
    institution_root,
    keyblock_hash,
)
from spchain.chain import ChainState
from spchain.signing import keypair_from_seed, sign
from spchain.tx import TxType, build_tx
from tests.conftest import tx_cert


def quorum_cert(subject: bytes) -> PinCertificate:
    return PinCertificate(
        subject_hash=subject,
        signers=(
            PinSignature("m0", 1.0, b"s0"),
            PinSignature("m1", 1.0, b"s1"),
            PinSignature("m2", 1.0, b"s2"),
        ),
        group_size=3,
        group_total_weight=3.0,
    )


@pytest.fixture
def world(group):
    chain = ChainState(group)
    chain.current_round = 1
    institution = setup_institution(b"hospital", group)
    chain.register_institution(institution.chain_info())
    patient = setup_patient(b"alice")
    return chain, institution, patient


def registered(world, group):
    chain, institution, patient = world
    tx = register(patient, institution, b"alice-id", group, fee=2)
    chain.register_patient(tx)
    patient.registered = True
    root = institution_root([institution.info_leaf], institution.ch_keys.hk, random.Random(1))
    chain.create_microblock(
        MicroBlock(
            owner_patient_id=patient.address,
            institution_root=root,
            txs=(),
            creator_miner_id="m0",
            round_number=1,
            prev_hash=GENESIS_MICROBLOCK_HASH,
        )
    )
    return chain, institution, patient


def make_keyblock(chain, group, height=None, prev=None):
    return KeyBlock(
        prev_keyblock_hash=chain.tip_hash if prev is None else prev,
        penu_microblock_hash=chain.penu_microblock_hash_for(chain.tip_height + 1),
        nonce=7,
        miner_public_key=keypair_from_seed(b"miner").public_key,
        register_txs=(),
        target=1 << 255,
        height=chain.tip_height + 1 if height is None else height,
    )


# -- keyblock growth -----------------------------------------------------------


def test_add_pinned_keyblock_extends_tip(world, group):
    chain, _, _ = world
    block = make_keyblock(chain, group)
    digest = keyblock_hash(block, group)
    chain.add_pinned_keyblock(dataclasses.replace(block, pin_cert=quorum_cert(digest)))
    assert chain.tip_height == 1
    assert chain.tip_hash == digest


def test_add_rejects_unpinned_and_mismatched(world, group):
    chain, _, _ = world
    block = make_keyblock(chain, group)
    with pytest.raises(ValueError, match="not pinned"):
        chain.add_pinned_keyblock(block)
    wrong_subject = dataclasses.replace(block, pin_cert=quorum_cert(b"\x00" * 32))
    with pytest.raises(ValueError, match="different keyblock"):
        chain.add_pinned_keyblock(wrong_subject)
    stale = make_keyblock(chain, group, height=5)
    stale = dataclasses.replace(stale, pin_cert=quorum_cert(keyblock_hash(stale, group)))
    with pytest.raises(ValueError, match="does not extend"):
        chain.add_pinned_keyblock(stale)


def test_penu_microblock_hash_rules(world, group):
    chain, institution, patient = registered(world, group)
    # heights 1 and 2 fall back to the genesis constant
    assert chain.penu_microblock_hash_for(1) == GENESIS_MICROBLOCK_HASH
    assert chain.penu_microblock_hash_for(2) == GENESIS_MICROBLOCK_HASH
    # the microblock created above was touched at height 1 (pre-genesis tip)
    assert chain.penu_microblock_hash_for(3) == chain.last_microblock_hash(1)
    assert chain.penu_microblock_hash_for(3) != GENESIS_MICROBLOCK_HASH
    # carried forward when later heights append nothing
    assert chain.last_microblock_hash(9) == chain.last_microblock_hash(1)


# -- validation reason codes -----------------------------------------------------


def medical_tx(chain, institution, patient, group, round_number=1, receiver=None):
    record = EmrRecord(
        plaintext=b"report", institution_id=institution.address,
        patient_id=patient.address, creation_round=round_number,
    )
    tx = upload(patient, institution, record, chain, fee=1)
    if receiver is not None or round_number != chain.current_round:
        payload = dataclasses.replace(
            tx.payload,
            receiver_id=receiver or tx.payload.receiver_id,
            round_number=round_number,
        )
        tx = build_tx(
            TxType.MEDICAL, payload, patient.keypair, group,
            fee=1, receiver_hk=institution.ch_keys.hk,
        )
    return tx


def test_validate_ok(world, group):
    chain, institution, patient = registered(world, group)
    tx = medical_tx(chain, institution, patient, group)
    assert chain.validate_tx(tx) == (True, chain_mod.OK)


def test_validate_bad_signature(world, group):
    chain, institution, patient = registered(world, group)
    tx = medical_tx(chain, institution, patient, group)
    forged = dataclasses.replace(tx, fee=tx.fee + 1)  # body changed under the signature
    assert chain.validate_tx(forged) == (False, chain_mod.BAD_SIGNATURE)


def test_validate_unknown_institution(world, group):
    chain, institution, patient = registered(world, group)
    tx = medical_tx(chain, institution, patient, group, receiver="nobody")
    ok, reason = chain.validate_tx(tx)
    assert (ok, reason) == (False, chain_mod.UNKNOWN_INSTITUTION)


def test_validate_unregistered_sender(world, group):
    chain, institution, patient = world
    patient.registered = True  # actor-side flag only; chain never saw the register
    record = EmrRecord(b"r", institution.address, patient.address, 1)
    tx = upload(patient, institution, record, chain, fee=1)
    assert chain.validate_tx(tx) == (False, chain_mod.UNREGISTERED)


def test_validate_double_registration(world, group):
    chain, institution, patient = registered(world, group)
    replay = register(patient, institution, b"alice-id", group, fee=2)
    assert chain.validate_tx(replay) == (False, chain_mod.ALREADY_REGISTERED)
    # same identity material under a fresh keypair is also refused
    imposter = setup_patient(b"mallory")
    clone = register(imposter, institution, b"alice-id", group, fee=2)
    assert chain.validate_tx(clone) == (False, chain_mod.ALREADY_REGISTERED)


def test_validate_future_round(world, group):
    chain, institution, patient = registered(world, group)
    tx = medical_tx(chain, institution, patient, group, round_number=99)
    assert chain.validate_tx(tx) == (False, chain_mod.BAD_ROUND)


def test_validate_bad_proof(world, group):
    chain, institution, patient = registered(world, group)
    other = setup_institution(b"other-hospital", group)
    chain.register_institution(other.chain_info())
    tx = medical_tx(chain, institution, patient, group)
    # reroute to an institution whose hash key never saw this digest;
    # build_tx would refuse, so assemble the signed tx manually
    rerouted_payload = dataclasses.replace(tx.payload, receiver_id=other.address)
    from spchain.tx import Transaction, compute_tx_id, signing_bytes
    from spchain import wire
    body = signing_bytes(TxType.MEDICAL, rerouted_payload, patient.keypair.public_key, 1, group)
    sig = sign(body, patient.keypair)
    encoded = body + wire.var_bytes(sig)
    bad = Transaction(
        tx_type=TxType.MEDICAL, payload=rerouted_payload,
        sender_pk=patient.keypair.public_key, fee=1, signature=sig,
        tx_id=compute_tx_id(encoded),
    )
    assert chain.validate_tx(bad) == (False, chain_mod.BAD_PROOF)


def test_validate_label_target_missing(world, group):
    chain, institution, patient = registered(world, group)
    from spchain.tx import LabelPayload
    med = medical_tx(chain, institution, patient, group)
    payload = LabelPayload(
        receiver_id=institution.address,
        target_tx_hash=b"\x07" * 32,
        ch_digest=med.payload.ch_digest,
        pointer=med.payload.pointer,
        round_number=1,
    )
    tx = build_tx(TxType.LABEL, payload, patient.keypair, group, fee=1,
                  receiver_hk=institution.ch_keys.hk)
    assert chain.validate_tx(tx) == (False, chain_mod.LABEL_TARGET_MISSING)


# -- microblock bookkeeping --------------------------------------------------------


def test_create_microblock_requires_registration(world, group):
    chain, institution, patient = world
    root = institution_root([institution.info_leaf], institution.ch_keys.hk, random.Random(2))
    block = MicroBlock(
        owner_patient_id=patient.address, institution_root=root, txs=(),
        creator_miner_id="m0", round_number=1, prev_hash=GENESIS_MICROBLOCK_HASH,
    )
    with pytest.raises(ValueError, match="not a registered patient"):
        chain.create_microblock(block)


def test_one_microblock_per_patient(world, group):
    chain, institution, patient = registered(world, group)
    existing = chain.microblocks[patient.address]
    with pytest.raises(ValueError, match="already owns"):
        chain.create_microblock(existing)


def test_append_and_lookup_counts_accesses(world, group):
    chain, institution, patient = registered(world, group)
    tx = medical_tx(chain, institution, patient, group)
    chain.append_to_microblock(patient.address, tx, tx_cert(tx.tx_id))
    before = chain.store_accesses
    found = chain.find_patient_tx(patient.address, tx.tx_id)
    assert found == tx
    assert chain.store_accesses == before + 1  # one entry scanned
    assert chain.find_patient_tx(patient.address, b"\x00" * 32) is None
    assert chain.find_patient_tx("ghost", tx.tx_id) is None
