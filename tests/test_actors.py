import random

import pytest

from spchain.actors import (
    EmrRecord,
    OffChainStore,
    ShareRefused,
    label,
    register,
    retrieve_history,
    setup_institution,
    setup_patient,
    share,
    upload,
)
from spchain.blocks import GENESIS_MICROBLOCK_HASH, MicroBlock, institution_root
from spchain.chain import ChainState
from spchain.envelope import unseal_layer
from spchain.tx import TxType
from tests.conftest import pin_subject, signed_members

PINNERS = signed_members((1.0, 1.0, 1.0))


@pytest.fixture
def clinic():
    """A chain with one registered patient at one institution."""
    chain = ChainState()
    chain.current_round = 1
    hospital = setup_institution(b"hospital-a")
    chain.register_institution(hospital.chain_info())
    alice = setup_patient(b"alice")
    reg = register(alice, hospital, b"alice-id-info", fee=2)
    assert chain.validate_tx(reg)[0]
    chain.register_patient(reg)
    chain.create_microblock(
        MicroBlock(
            owner_patient_id=alice.address,
            institution_root=institution_root(
                [hospital.info_leaf], hospital.ch_keys.hk, random.Random(0)
            ),
            txs=(),
            creator_miner_id="m0",
            round_number=1,
            prev_hash=GENESIS_MICROBLOCK_HASH,
        )
    )
    return chain, hospital, alice


def pin_upload(chain, patient, tx):
    cert = pin_subject(tx.tx_id, *PINNERS)
    chain.append_to_microblock(patient.address, tx, cert, PINNERS[0])


def test_setup_roles_and_determinism():
    p1 = setup_patient(b"seed")
    p2 = setup_patient(b"seed")
    assert p1.address == p2.address
    i1 = setup_institution(b"seed")
    i2 = setup_institution(b"seed")
    assert i1.address == i2.address
    assert i1.ch_keys == i2.ch_keys
    assert p1.address != i1.address  # role-separated derivation


def test_off_chain_store_is_content_addressed():
    store = OffChainStore()
    pointer = store.put(b"ciphertext")
    assert pointer in store
    assert store.get(pointer) == b"ciphertext"
    assert store.put(b"ciphertext") == pointer


def test_upload_requires_registration(clinic):
    chain, hospital, _ = clinic
    stranger = setup_patient(b"bob")
    record = EmrRecord(b"x", hospital.address, stranger.address, 1)
    with pytest.raises(ValueError, match="not registered"):
        upload(stranger, hospital, record, chain)


def test_upload_seals_stores_and_validates(clinic):
    chain, hospital, alice = clinic
    record = EmrRecord(b"blood panel", hospital.address, alice.address, 1)
    tx = upload(alice, hospital, record, chain, fee=1)
    assert tx.tx_type is TxType.MEDICAL
    assert chain.validate_tx(tx) == (True, "OK")
    assert tx.payload.pointer in hospital.store
    # ciphertext is a double envelope: institution outer, patient inner
    outer_ct = hospital.store.get(tx.payload.pointer)
    inner = unseal_layer(outer_ct, hospital.sym_key)
    assert unseal_layer(inner, alice.sym_key) == b"blood panel"
    # plaintext confinement after upload: patient and origin only
    assert record.record_id in alice.plaintext_holdings
    assert record.record_id in hospital.plaintext_holdings


def test_revisit_and_new_institution_follow_same_flow(clinic):
    chain, hospital, alice = clinic
    clinic_b = setup_institution(b"clinic-b")
    chain.register_institution(clinic_b.chain_info())
    for visit, inst in enumerate((hospital, hospital, clinic_b)):
        record = EmrRecord(b"visit %d" % visit, inst.address, alice.address, 1)
        tx = upload(alice, inst, record, chain, fee=1)
        assert chain.validate_tx(tx) == (True, "OK")
        pin_upload(chain, alice, tx)
    history = retrieve_history(alice.address, chain)
    assert len(history) == 3


def test_label_corrects_prior_record(clinic):
    chain, hospital, alice = clinic
    wrong = EmrRecord(b"misdiagnosis", hospital.address, alice.address, 1)
    wrong_tx = upload(alice, hospital, wrong, chain, fee=1)
    pin_upload(chain, alice, wrong_tx)

    corrected = EmrRecord(b"corrected diagnosis", hospital.address, alice.address, 1)
    label_tx = label(alice, hospital, wrong_tx.tx_id, corrected, chain, fee=1)
    assert label_tx.tx_type is TxType.LABEL
    assert chain.validate_tx(label_tx) == (True, "OK")
    pin_upload(chain, alice, label_tx)

    history = retrieve_history(alice.address, chain)
    by_id = {d.tx.tx_id: d for d in history}
    assert by_id[wrong_tx.tx_id].current.tx_id == label_tx.tx_id  # resolved to the fix
    assert by_id[label_tx.tx_id].current.tx_id == label_tx.tx_id


def test_label_rejects_foreign_or_missing_targets(clinic):
    chain, hospital, alice = clinic
    other = setup_institution(b"clinic-b")
    chain.register_institution(other.chain_info())
    record = EmrRecord(b"r", hospital.address, alice.address, 1)
    tx = upload(alice, hospital, record, chain, fee=1)
    pin_upload(chain, alice, tx)
    fix = EmrRecord(b"fix", hospital.address, alice.address, 1)
    with pytest.raises(ValueError, match="not found"):
        label(alice, hospital, b"\x00" * 32, fix, chain)
    with pytest.raises(ValueError, match="different institution"):
        label(alice, other, tx.tx_id, fix, chain)


def test_share_dual_control(clinic):
    chain, hospital, alice = clinic
    target = setup_institution(b"specialist")
    chain.register_institution(target.chain_info())
    record = EmrRecord(b"scan results", hospital.address, alice.address, 1)
    tx = upload(alice, hospital, record, chain, fee=1)
    pin_upload(chain, alice, tx)

    delivered = share(alice, hospital, target, [tx.tx_id], chain)
    assert delivered == [b"scan results"]
    assert record.record_id in target.plaintext_holdings


def test_share_fails_closed_when_source_refuses(clinic):
    chain, hospital, alice = clinic
    target = setup_institution(b"specialist")
    record = EmrRecord(b"scan results", hospital.address, alice.address, 1)
    tx = upload(alice, hospital, record, chain, fee=1)
    pin_upload(chain, alice, tx)

    hospital.share_enabled = False
    with pytest.raises(ShareRefused):
        share(alice, hospital, target, [tx.tx_id], chain)
    assert record.record_id not in target.plaintext_holdings  # nothing leaked


def test_share_validates_origin_and_ownership(clinic):
    chain, hospital, alice = clinic
    other = setup_institution(b"clinic-b")
    chain.register_institution(other.chain_info())
    target = setup_institution(b"specialist")
    record = EmrRecord(b"r", hospital.address, alice.address, 1)
    tx = upload(alice, hospital, record, chain, fee=1)
    pin_upload(chain, alice, tx)
    with pytest.raises(ValueError, match="not in the patient's microblock"):
        share(alice, hospital, target, [b"\x01" * 32], chain)
    with pytest.raises(ValueError, match="did not originate"):
        share(alice, other, target, [tx.tx_id], chain)


def test_retrieval_cost_tracks_own_history_only(clinic):
    chain, hospital, alice = clinic
    for i in range(4):
        record = EmrRecord(b"r%d" % i, hospital.address, alice.address, 1)
        pin_upload(chain, alice, upload(alice, hospital, record, chain, fee=1))
    before = chain.store_accesses
    history = retrieve_history(alice.address, chain)
    cost = chain.store_accesses - before
    assert len(history) == 4
    assert cost == 5  # one microblock fetch plus one scan per entry
    with pytest.raises(KeyError):
        retrieve_history("ghost", chain)
