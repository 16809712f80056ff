import copy
import dataclasses
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from spchain import chain as chain_mod
from spchain.actors import (
    EmrRecord,
    label,
    register,
    retrieve_history,
    setup_institution,
    setup_patient,
    upload,
)
from spchain.blocks import (
    GENESIS_MICROBLOCK_HASH,
    BatchVote,
    MicroBlock,
    institution_root,
    keyblock_hash,
    microblock_hash,
    update_institution_root,
)
from spchain.chain import ChainState
from spchain.chameleon import ch_hash, message_scalar
from spchain.mining import check_puzzle, mine_keyblock
from spchain.signing import address_of, keypair_from_seed, sign
from spchain.tx import LabelPayload, MedicalPayload, Transaction, TxType, build_tx
from tests.conftest import current_count, pin_entries, pin_subject, signed_members


@pytest.fixture
def world():
    chain = ChainState()
    chain.current_round = 1
    institution = setup_institution(b"hospital")
    chain.register_institution(institution.chain_info())
    patient = setup_patient(b"alice")
    return chain, institution, patient


def registered(world):
    chain, institution, patient = world
    tx = register(patient, institution, b"alice-id", fee=2)
    chain.register_patient(tx)
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


def make_keyblock(chain, height=None, prev=None):
    """A keyblock mined on the chain's view, or on the view moved to
    ``height`` and ``prev``."""
    view = chain.view()
    view = dataclasses.replace(
        view,
        tip_height=view.tip_height if height is None else height - 1,
        tip_hash=view.tip_hash if prev is None else prev,
    )
    miner = keypair_from_seed(b"miner")
    return mine_keyblock(view, (), miner, 1 << 255, 64, random.Random(7)).block


def pinned(block, pinners):
    return dataclasses.replace(block, pin_cert=pin_subject(keyblock_hash(block), *pinners))


# -- keyblock growth -----------------------------------------------------------


def test_add_pinned_keyblock_extends_tip(world, trio):
    chain, _, _ = world
    block = make_keyblock(chain)
    digest = keyblock_hash(block)
    chain.add_pinned_keyblock(pinned(block, trio), trio[0])
    assert chain.tip_height == 1
    assert chain.tip_hash == digest


def test_add_rejects_unpinned_and_mismatched(world, trio):
    chain, _, _ = world
    block = make_keyblock(chain)
    with pytest.raises(ValueError, match="not pinned"):
        chain.add_pinned_keyblock(block, trio[0])
    wrong_subject = dataclasses.replace(block, pin_cert=pin_subject(b"\x00" * 32, *trio))
    with pytest.raises(ValueError, match="does not reach the batch root"):
        chain.add_pinned_keyblock(wrong_subject, trio[0])
    stale = pinned(make_keyblock(chain, height=5), trio)
    with pytest.raises(ValueError, match="does not extend"):
        chain.add_pinned_keyblock(stale, trio[0])


# -- tamper table: the chain checks each certificate against its group -------------

# m0 outweighs m1 and m2 together, so a certificate without m0 meets the
# count rule and misses the weight rule
HEAVY = signed_members((5.0, 1.0, 1.0), seed=b"heavy")

CERTIFICATE_ROWS = {
    "signer not in the group": "not a group member",
    "member listed twice": "listed twice",
    "misses quorum by the group's weights": "below quorum",
    "path does not reach the root": "does not reach the batch root",
    "counted signer's bit unset": "did not accept",
}

KEYBLOCK_ROWS = {
    "certificate over another keyblock": "does not reach the batch root",
    "nonce does not solve": "does not solve its puzzle",
    "wrong penu": "wrong penultimate microblock",
    "register at an unknown institution": "unknown institution",
    "keyblock hash at entry 1": "entry 0",
}


def tampered(row, cert):
    """``cert`` spoiled as the certificate row ``row`` says; unchanged for
    the keyblock rows."""
    signers = cert.signers
    if row == "signer not in the group":
        return dataclasses.replace(
            cert, signers=signers + (BatchVote("nobody", signers[0].bitmap, b"sig"),)
        )
    if row == "member listed twice":
        return dataclasses.replace(cert, signers=signers + signers[:1])
    if row == "misses quorum by the group's weights":
        return dataclasses.replace(cert, signers=signers[1:])
    if row == "path does not reach the root":
        return dataclasses.replace(cert, batch_root=hashlib.sha256(b"elsewhere").digest())
    if row == "counted signer's bit unset":
        unset = dataclasses.replace(signers[0], bitmap=b"\x00")
        return dataclasses.replace(cert, signers=(unset,) + signers[1:])
    return cert


def with_nonce(block, solves: bool):
    """``block`` with the first nonce that does (or does not) solve it."""
    return next(
        candidate
        for nonce in range(64)
        if check_puzzle(candidate := dataclasses.replace(block, nonce=nonce)) == solves
    )


@pytest.mark.parametrize("row", list(CERTIFICATE_ROWS) + list(KEYBLOCK_ROWS))
def test_chain_rejects_tampered_keyblock(world, row):
    chain, _, _ = world
    block = make_keyblock(chain)
    subject = keyblock_hash(block)
    if row == "certificate over another keyblock":
        subject = keyblock_hash(make_keyblock(chain, prev=b"\x01" * 32))
    elif row == "nonce does not solve":
        block = with_nonce(block, solves=False)
        subject = keyblock_hash(block)
    elif row == "wrong penu":
        block = with_nonce(dataclasses.replace(block, penu_microblock_hash=b"\x00" * 32), True)
        subject = keyblock_hash(block)
    elif row == "register at an unknown institution":
        tx = register(setup_patient(b"bob"), setup_institution(b"stranger"), b"bob-id")
        block = dataclasses.replace(block, register_txs=(tx,))
        subject = keyblock_hash(block)
    if row == "keyblock hash at entry 1":
        cert = pin_entries([b"\x02" * 32, subject], *HEAVY)[1]
    else:
        cert = tampered(row, pin_subject(subject, *HEAVY))
    reason = CERTIFICATE_ROWS.get(row) or KEYBLOCK_ROWS[row]
    with pytest.raises(ValueError, match=reason):
        chain.add_pinned_keyblock(dataclasses.replace(block, pin_cert=cert), HEAVY[0])
    assert chain.tip_height == 0


@pytest.mark.parametrize("row", list(CERTIFICATE_ROWS))
def test_chain_rejects_tampered_tx_certificate(world, row):
    chain, institution, patient = registered(world)
    tx = medical_tx(chain, institution, patient)
    cert = pin_subject(tx.tx_id, *HEAVY)
    with pytest.raises(ValueError, match=CERTIFICATE_ROWS[row]):
        chain.append_to_microblock(patient.address, tx, tampered(row, cert), HEAVY[0])
    assert chain.microblocks[patient.address].txs == ()
    chain.append_to_microblock(patient.address, tx, cert, HEAVY[0])
    assert chain.microblocks[patient.address].txs == (tx,)


def test_forged_keyblock_is_rejected(world):
    """The forgery an earlier chain accepted at height 1: one signer from
    outside the group, a target no nonce meets and a zeroed penu."""
    chain, _, _ = world
    block = dataclasses.replace(
        make_keyblock(chain), target=1, penu_microblock_hash=b"\x00" * 32
    )
    cert = tampered("signer not in the group", pin_subject(keyblock_hash(block), *HEAVY))
    forged = dataclasses.replace(cert, signers=cert.signers[-1:])
    with pytest.raises(ValueError, match="not a group member"):
        chain.add_pinned_keyblock(dataclasses.replace(block, pin_cert=forged), HEAVY[0])
    assert chain.tip_height == 0


def test_penu_microblock_hash_rules(world):
    chain, institution, patient = registered(world)
    # heights 1 and 2 fall back to the genesis constant
    assert chain.penu_microblock_hash_for(1) == GENESIS_MICROBLOCK_HASH
    assert chain.penu_microblock_hash_for(2) == GENESIS_MICROBLOCK_HASH
    # the microblock created above was touched at height 1 (pre-genesis tip)
    assert chain.penu_microblock_hash_for(3) == chain.last_microblock_hash(1)
    assert chain.penu_microblock_hash_for(3) != GENESIS_MICROBLOCK_HASH
    # carried forward when later heights append nothing
    assert chain.last_microblock_hash(9) == chain.last_microblock_hash(1)


def pin_next(chain, trio):
    block = pinned(make_keyblock(chain), trio)
    chain.add_pinned_keyblock(block, trio[0])
    return block


def test_view_reads_pinned_hashes_by_height(world, trio):
    chain, _, _ = world
    blocks = [pin_next(chain, trio) for _ in range(4)]
    view = chain.view()
    assert view.tip_height == 4
    for h, block in enumerate(blocks, start=1):
        assert block.height == h
        assert view.pinned_hash_at(h) == keyblock_hash(block)
    assert view.pinned_hash_at(0) is None
    assert view.pinned_hash_at(5) is None


def test_view_is_a_snapshot(world, trio):
    chain, _, _ = world
    for _ in range(2):
        pin_next(chain, trio)
    tip_hash = chain.tip_hash
    before = chain.view()
    pin_next(chain, trio)
    assert chain.tip_hash != tip_hash
    assert (before.tip_height, before.tip_hash) == (2, tip_hash)
    assert before.pinned_hash_at(2) == tip_hash
    assert before.pinned_hash_at(3) is None
    assert chain.view().pinned_hash_at(3) == chain.tip_hash


def test_last_microblock_hash_carries_forward(world, trio):
    chain, institution, patient = world
    touched = {}  # keyblock height -> hash of the last microblock touched there
    pin_next(chain, trio)
    registered(world)
    touched[1] = microblock_hash(chain.microblocks[patient.address])
    for _ in range(2):
        pin_next(chain, trio)
    tx = medical_tx(chain, institution, patient)
    chain.append_to_microblock(patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0])
    touched[3] = microblock_hash(chain.microblocks[patient.address])
    for _ in range(2):
        pin_next(chain, trio)
    assert chain.tip_height == 5

    def walk_back(height):
        while height >= 1:
            if height in touched:
                return touched[height]
            height -= 1
        return GENESIS_MICROBLOCK_HASH

    assert touched[1] != touched[3]
    for h in range(8):
        assert chain.last_microblock_hash(h) == walk_back(h)


def test_last_microblock_hash_is_of_the_touched_version(world, trio):
    """A root redacted after the last touch at a height does not move that
    height's hash, whether it is carried forward or read at the tip."""
    chain, institution, patient = registered(world)
    hk, tk = institution.ch_keys.hk, institution.ch_keys.tk
    leaves = [institution.info_leaf]
    touched = {}  # keyblock height -> hash of the version appended there
    for height in (1, 2):
        pin_next(chain, trio)
        tx = medical_tx(chain, institution, patient)
        appended = chain.append_to_microblock(
            patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0]
        )
        touched[height] = microblock_hash(appended)
        leaves.append(b"clinic-%d" % height)
        root = update_institution_root(appended.institution_root, leaves, hk, tk)
        chain.replace_microblock(dataclasses.replace(appended, institution_root=root))
        assert microblock_hash(chain.microblocks[patient.address]) != touched[height]
    # height 1 was carried forward by the pin above; height 2 is the tip
    assert chain.last_microblock_hash(2) == touched[2]
    pin_next(chain, trio)
    assert chain.last_microblock_hash(1) == touched[1]
    assert chain.last_microblock_hash(2) == touched[2]
    assert chain.penu_microblock_hash_for(4) == touched[2]


# -- reputation inputs ---------------------------------------------------------


def pin_registering(chain, trio, *institutions):
    """Pin the next keyblock, carrying one register at each institution."""
    txs = tuple(
        register(setup_patient(b"p/%d/%d" % (chain.tip_height, i)), inst, b"id/%d" % i)
        for i, inst in enumerate(institutions)
    )
    block = dataclasses.replace(make_keyblock(chain), register_txs=txs)
    chain.add_pinned_keyblock(pinned(block, trio), trio[0])


def test_reputation_inputs_are_counted_per_chunk_as_blocks_land(world, trio):
    """Chunk c holds heights 10c+1 .. 10c+10 and, for chunk 0, tip 0. Every
    institution's running sums (S1, S2) over its per-chunk counts keep up,
    and so does its count in the last chunk it was counted in, tagged with
    that chunk; also for one registered late."""
    chain, hospital, patient = registered(world)
    h = hospital.address

    def sums(inst):
        return chain.register_sums[inst], chain.medical_sums[inst]

    def tagged(inst):
        return chain.register_counts[inst], chain.medical_counts[inst]

    def current(inst):
        return current_count(chain, chain.register_counts, inst), current_count(
            chain, chain.medical_counts, inst
        )

    def append(receiver):
        tx = medical_tx(chain, hospital, patient, receiver=receiver.address)
        chain.append_to_microblock(patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0])

    append(hospital)  # at tip 0
    assert tagged(h) == ((0, 0), (0, 1))
    assert current(h) == (0, 1)
    assert sums(h) == ((0, 0), (1, 1))
    pin_registering(chain, trio, hospital)  # height 1
    while chain.tip_height < 9:
        pin_next(chain, trio)
    pin_registering(chain, trio, hospital)  # height 10
    append(hospital)
    assert tagged(h) == ((0, 2), (0, 2))
    assert current(h) == (2, 2)
    assert sums(h) == ((2, 4), (2, 4))

    clinic = setup_institution(b"clinic")
    chain.register_institution(clinic.chain_info())
    c = clinic.address
    assert current(c) == (0, 0)
    assert sums(c) == ((0, 0), (0, 0))
    pin_registering(chain, trio, hospital, clinic)  # height 11
    append(clinic)
    assert tagged(h) == ((1, 1), (0, 2))
    assert tagged(c) == ((1, 1), (1, 1))
    assert current(h) == (1, 0)
    assert current(c) == (1, 1)
    assert sums(h) == ((3, 5), (2, 4))
    assert sums(c) == ((1, 1), (1, 1))

    while chain.tip_height < 20:
        pin_next(chain, trio)
    assert chain.chunk_count == 2
    pin_registering(chain, trio, clinic)  # height 21
    append(hospital)
    assert tagged(h) == ((1, 1), (2, 1))
    assert tagged(c) == ((2, 1), (1, 1))
    assert current(h) == (0, 1)
    assert current(c) == (1, 0)
    assert sums(h) == ((3, 5), (3, 5))
    assert sums(c) == ((2, 2), (1, 1))
    assert chain.chunk_count == 3
    assert chain.medical_tx_count == 4
    miner = address_of(chain.pinned_keyblocks[0].miner_public_key)
    assert chain.keyblocks_mined == Counter({miner: 21})

    late = setup_institution(b"late")
    chain.register_institution(late.chain_info())
    assert current(late.address) == (0, 0)
    assert sums(late.address) == ((0, 0), (0, 0))
    chain.register_institution(hospital.chain_info())  # again: counts stand
    assert tagged(h) == ((1, 1), (2, 1))
    assert sums(h) == ((3, 5), (3, 5))


def per_institution_state(chain):
    """A deep copy of every ``ChainState`` field keyed by institution id,
    but the registry itself."""
    return {
        name: copy.deepcopy(value)
        for name, value in vars(chain).items()
        if name != "institutions"
        and isinstance(value, dict)
        and value.keys() == chain.institutions.keys()
    }


def test_opening_a_chunk_changes_no_institution_counter(world, trio):
    """A register-free keyblock that opens a chunk only raises
    ``chunk_count``: no per-institution entry grows or changes with it."""
    chain, hospital, patient = registered(world)
    clinic = setup_institution(b"clinic")
    chain.register_institution(clinic.chain_info())
    pin_registering(chain, trio, hospital, clinic)  # height 1
    tx = medical_tx(chain, hospital, patient)
    chain.append_to_microblock(patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0])
    while chain.tip_height < 10:
        pin_next(chain, trio)
    before = per_institution_state(chain)
    assert {"register_sums", "medical_sums"} <= before.keys()
    assert chain.chunk_count == 1

    assert pin_next(chain, trio).register_txs == ()  # height 11 opens chunk 1
    assert chain.chunk_count == 2
    assert per_institution_state(chain) == before
    assert current_count(chain, chain.register_counts, hospital.address) == 0
    assert current_count(chain, chain.medical_counts, hospital.address) == 0


def test_append_refuses_an_unknown_receiver_before_anything_changes(world, trio):
    """A pinned transaction addressed to an institution the chain does not
    know raises ValueError and leaves the patient's microblock, record
    index and certified set, the counters and the touched hash as they
    were."""
    chain, hospital, patient = registered(world)
    pin_next(chain, trio)
    tx = medical_tx(chain, hospital, patient)
    chain.append_to_microblock(patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0])

    def snapshot():
        return (
            chain.microblocks[patient.address],
            chain.history_of(patient.address),
            list(chain.certified_institutions(patient.address)),
            per_institution_state(chain),
            chain.medical_tx_count,
            chain.last_microblock_hash(chain.tip_height),
        )

    before = snapshot()
    stranger = setup_institution(b"stranger")
    refused = medical_tx(chain, hospital, patient, receiver=stranger.address)
    with pytest.raises(ValueError, match="unknown institution"):
        chain.append_to_microblock(
            patient.address, refused, pin_subject(refused.tx_id, *trio), trio[0]
        )
    assert snapshot() == before
    assert chain.find_patient_tx(patient.address, refused.tx_id) is None


# -- validation reason codes -----------------------------------------------------


def medical_tx(chain, institution, patient, round_number=1, receiver=None):
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
            TxType.MEDICAL, payload, patient.keypair,
            fee=1, receiver_hk=institution.ch_keys.hk,
        )
    return tx


def test_validate_ok(world):
    chain, institution, patient = registered(world)
    tx = medical_tx(chain, institution, patient)
    assert chain.validate_tx(tx) == (True, chain_mod.OK)


def test_validate_bad_signature(world):
    chain, institution, patient = registered(world)
    tx = medical_tx(chain, institution, patient)
    forged = dataclasses.replace(tx, fee=tx.fee + 1)  # body changed under the signature
    assert chain.validate_tx(forged) == (False, chain_mod.BAD_SIGNATURE)


def test_validate_unknown_institution(world):
    chain, institution, patient = registered(world)
    tx = medical_tx(chain, institution, patient, receiver="nobody")
    ok, reason = chain.validate_tx(tx)
    assert (ok, reason) == (False, chain_mod.UNKNOWN_INSTITUTION)


def test_validate_unregistered_sender(world, group):
    chain, institution, patient = world  # the chain never saw a register
    hk = institution.ch_keys.hk
    payload = MedicalPayload(
        receiver_id=institution.address,
        ch_digest=ch_hash(hk, message_scalar(b"r", group), 5),
        pointer="ab" * 32,
        round_number=1,
    )
    tx = build_tx(TxType.MEDICAL, payload, patient.keypair, fee=1, receiver_hk=hk)
    assert chain.validate_tx(tx) == (False, chain_mod.UNREGISTERED)


def test_validate_double_registration(world):
    chain, institution, patient = registered(world)
    replay = register(patient, institution, b"alice-id", fee=2)
    assert chain.validate_tx(replay) == (False, chain_mod.ALREADY_REGISTERED)
    # same identity material under a fresh keypair is also refused
    imposter = setup_patient(b"mallory")
    clone = register(imposter, institution, b"alice-id", fee=2)
    assert chain.validate_tx(clone) == (False, chain_mod.ALREADY_REGISTERED)


def test_validate_future_round(world):
    chain, institution, patient = registered(world)
    tx = medical_tx(chain, institution, patient, round_number=99)
    assert chain.validate_tx(tx) == (False, chain_mod.BAD_ROUND)


def test_validate_bad_proof(world):
    chain, institution, patient = registered(world)
    other = setup_institution(b"other-hospital")
    chain.register_institution(other.chain_info())
    tx = medical_tx(chain, institution, patient)
    # reroute to an institution whose hash key never saw this digest;
    # build_tx would refuse, so assemble the signed tx manually
    rerouted_payload = dataclasses.replace(tx.payload, receiver_id=other.address)
    from spchain.tx import Transaction, compute_tx_id, signing_bytes
    from spchain import wire
    body = signing_bytes(TxType.MEDICAL, rerouted_payload, patient.keypair.public_key, 1)
    sig = sign(body, patient.keypair)
    encoded = body + wire.var_bytes(sig)
    bad = Transaction(
        tx_type=TxType.MEDICAL, payload=rerouted_payload,
        sender_pk=patient.keypair.public_key, fee=1, signature=sig,
        tx_id=compute_tx_id(encoded),
    )
    assert chain.validate_tx(bad) == (False, chain_mod.BAD_PROOF)


def test_validate_label_target_missing(world):
    chain, institution, patient = registered(world)
    from spchain.tx import LabelPayload
    med = medical_tx(chain, institution, patient)
    payload = LabelPayload(
        receiver_id=institution.address,
        target_tx_hash=b"\x07" * 32,
        ch_digest=med.payload.ch_digest,
        pointer=med.payload.pointer,
        round_number=1,
    )
    tx = build_tx(TxType.LABEL, payload, patient.keypair, fee=1,
                  receiver_hk=institution.ch_keys.hk)
    assert chain.validate_tx(tx) == (False, chain_mod.LABEL_TARGET_MISSING)


def test_validate_replay_after_pin_is_duplicate(world, trio):
    """A pinned medical or label tx replayed is refused as DUPLICATE, by an
    index read that charges no store access, and cannot be appended again."""
    chain, institution, patient = registered(world)
    med = medical_tx(chain, institution, patient)
    chain.append_to_microblock(patient.address, med, pin_subject(med.tx_id, *trio), trio[0])
    fixed = EmrRecord(b"fixed", institution.address, patient.address, 1)
    lab = label(patient, institution, med.tx_id, fixed, chain)
    chain.append_to_microblock(patient.address, lab, pin_subject(lab.tx_id, *trio), trio[0])
    microblock, accesses = chain.microblocks[patient.address], chain.store_accesses
    for tx in (med, lab):
        assert chain.validate_tx(tx) == (False, chain_mod.DUPLICATE)
        with pytest.raises(ValueError, match="already in the patient's microblock"):
            chain.append_to_microblock(patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0])
    assert chain.microblocks[patient.address] is microblock
    assert chain.store_accesses == accesses


def test_validate_replay_under_a_fresh_id_is_refused(world, trio):
    """The id is neither signed nor on the wire, so a pinned tx renamed
    with a made-up id is refused for its id, not pinned a second time."""
    chain, institution, patient = registered(world)
    med = medical_tx(chain, institution, patient)
    chain.append_to_microblock(patient.address, med, pin_subject(med.tx_id, *trio), trio[0])
    renamed = dataclasses.replace(med, tx_id=hashlib.sha256(b"fresh id").digest())
    assert chain.validate_tx(renamed) == (False, chain_mod.BAD_TX_ID)
    unpinned = medical_tx(chain, institution, patient)
    renamed = dataclasses.replace(unpinned, tx_id=med.tx_id)
    assert chain.validate_tx(renamed) == (False, chain_mod.BAD_TX_ID)
    assert chain.validate_tx(unpinned) == (True, chain_mod.OK)


# -- microblock bookkeeping --------------------------------------------------------


def test_create_microblock_requires_registration(world):
    chain, institution, patient = world
    root = institution_root([institution.info_leaf], institution.ch_keys.hk, random.Random(2))
    block = MicroBlock(
        owner_patient_id=patient.address, institution_root=root, txs=(),
        creator_miner_id="m0", round_number=1, prev_hash=GENESIS_MICROBLOCK_HASH,
    )
    with pytest.raises(ValueError, match="not a registered patient"):
        chain.create_microblock(block)


def test_create_microblock_refuses_entries(world):
    """Entries arrive only through ``append_to_microblock``, which checks
    their certificates and counts them; a new microblock holding an
    uncertified medical transaction is refused before anything changes."""
    chain, institution, patient = world
    chain.register_patient(register(patient, institution, b"alice-id", fee=2))
    uncertified = medical_tx(chain, institution, patient)
    root = institution_root([institution.info_leaf], institution.ch_keys.hk, random.Random(2))
    block = MicroBlock(
        owner_patient_id=patient.address, institution_root=root, txs=(uncertified,),
        creator_miner_id="m0", round_number=1, prev_hash=GENESIS_MICROBLOCK_HASH,
    )
    before = copy.deepcopy(vars(chain))
    with pytest.raises(ValueError, match="no entries"):
        chain.create_microblock(block)
    assert vars(chain) == before
    assert patient.address not in chain.microblocks


def test_one_microblock_per_patient(world):
    chain, institution, patient = registered(world)
    existing = chain.microblocks[patient.address]
    with pytest.raises(ValueError, match="already owns"):
        chain.create_microblock(existing)


def test_replace_microblock_changes_only_the_root_opening(world, trio):
    chain, institution, patient = registered(world)
    tx = medical_tx(chain, institution, patient)
    current = chain.append_to_microblock(
        patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0]
    )
    hk, tk = institution.ch_keys.hk, institution.ch_keys.tk
    moved = update_institution_root(
        current.institution_root, [institution.info_leaf, b"clinic"], hk, tk
    )
    other = institution_root([institution.info_leaf], hk, random.Random(9))
    assert other.h != current.institution_root.h
    for bad in (
        dataclasses.replace(current, institution_root=moved, txs=()),  # drops tx
        dataclasses.replace(current, institution_root=other),  # different h
        dataclasses.replace(current, institution_root=moved, round_number=2),
    ):
        with pytest.raises(ValueError, match="institution root"):
            chain.replace_microblock(bad)
        assert chain.microblocks[patient.address] is current
    redacted = dataclasses.replace(current, institution_root=moved)
    chain.replace_microblock(redacted)
    assert chain.microblocks[patient.address] is redacted


def test_root_opening_must_verify_under_the_home_key(world, group, trio):
    chain, institution, patient = world
    chain.register_patient(register(patient, institution, b"alice-id"))
    hk = institution.ch_keys.hk
    root = institution_root([institution.info_leaf], hk, random.Random(1))
    wrong_witness = dataclasses.replace(root, witness=(root.witness + 1) % group.p)
    wrong_message = dataclasses.replace(root, message=(root.message + 1) % group.p)
    clinic = setup_institution(b"clinic")
    chain.register_institution(clinic.chain_info())
    foreign = institution_root([institution.info_leaf], clinic.ch_keys.hk, random.Random(1))

    def microblock(institution_root):
        return MicroBlock(
            owner_patient_id=patient.address, institution_root=institution_root, txs=(),
            creator_miner_id="m0", round_number=1, prev_hash=GENESIS_MICROBLOCK_HASH,
        )

    for bad in (wrong_witness, wrong_message, foreign):
        with pytest.raises(ValueError, match="home institution"):
            chain.create_microblock(microblock(bad))
        assert patient.address not in chain.microblocks
    chain.create_microblock(microblock(root))
    current = chain.microblocks[patient.address]
    for bad in (wrong_witness, wrong_message):  # same h: only the opening is wrong
        with pytest.raises(ValueError, match="home institution"):
            chain.replace_microblock(dataclasses.replace(current, institution_root=bad))
        assert chain.microblocks[patient.address] is current


def test_append_and_lookup_counts_accesses(world, trio):
    """A lookup is charged as a scan from the microblock's head and a
    history read as one fetch plus one read per entry."""
    chain, institution, patient = registered(world)
    txs = [medical_tx(chain, institution, patient) for _ in range(3)]
    assert len({tx.tx_id for tx in txs}) == 3
    for tx in txs:
        chain.append_to_microblock(patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0])
    lookups = [(patient.address, tx.tx_id, tx, k + 1) for k, tx in enumerate(txs)]
    lookups += [
        (patient.address, b"\x00" * 32, None, 3),  # a miss scans every entry
        ("ghost", txs[0].tx_id, None, 0),  # no microblock to scan
    ]
    for patient_id, tx_id, found, cost in lookups:
        before = chain.store_accesses
        assert chain.find_patient_tx(patient_id, tx_id) == found
        assert chain.store_accesses - before == cost
    before = chain.store_accesses
    assert len(retrieve_history(patient.address, chain)) == 3
    assert chain.store_accesses - before == 4


def test_history_reads_are_fresh_lists(world, trio):
    chain, institution, patient = registered(world)
    for _ in range(2):
        tx = medical_tx(chain, institution, patient)
        chain.append_to_microblock(patient.address, tx, pin_subject(tx.tx_id, *trio), trio[0])
    microblock = chain.microblocks[patient.address]
    first = retrieve_history(patient.address, chain)
    expected = list(first)
    first.reverse()
    first.append(first[0])
    second = retrieve_history(patient.address, chain)
    assert second == expected
    second.clear()
    assert retrieve_history(patient.address, chain) == expected
    assert chain.microblocks[patient.address] is microblock
    assert [d.tx for d in expected] == list(microblock.txs)


# -- the record index ----------------------------------------------------------


def history_from_scratch(txs):
    """(tx id, id of its newest label) per entry, resolved from the whole
    entry list: the newest label for a target wins, and a chain of labels
    stops at the first id met twice. The reference for the chain's record
    index."""
    labels_by_target = {}
    for entry in txs:
        if entry.tx_type is TxType.LABEL:
            labels_by_target[entry.payload.target_tx_hash] = entry

    def newest(entry):
        seen = {entry.tx_id}
        while entry.tx_id in labels_by_target:
            entry = labels_by_target[entry.tx_id]
            if entry.tx_id in seen:
                break
            seen.add(entry.tx_id)
        return entry

    return [(entry.tx_id, newest(entry).tx_id) for entry in txs]


SLOT_IDS = [hashlib.sha256(b"slot/%d" % i).digest() for i in range(6)]
NEVER_APPENDED = hashlib.sha256(b"never appended").digest()


@pytest.fixture(scope="module")
def index_world(trio):
    """An institution, a patient with its register tx, a medical template
    and a pinning certificate for each slot id, built once: examples
    differ only in what they append."""
    institution = setup_institution(b"index-hospital")
    patient = setup_patient(b"index-alice")
    reg = register(patient, institution, b"index-alice-id")
    root = institution_root([institution.info_leaf], institution.ch_keys.hk, random.Random(3))
    chain = ChainState()
    chain.register_institution(institution.chain_info())
    chain.register_patient(reg)
    template = medical_tx(chain, institution, patient)
    certs = {tx_id: pin_subject(tx_id, *trio) for tx_id in SLOT_IDS}

    def fresh_chain():
        chain = ChainState()
        chain.register_institution(institution.chain_info())
        chain.register_patient(reg)
        chain.create_microblock(
            MicroBlock(
                owner_patient_id=patient.address, institution_root=root, txs=(),
                creator_miner_id="m0", round_number=1, prev_hash=GENESIS_MICROBLOCK_HASH,
            )
        )
        return chain

    return fresh_chain, patient.address, template, certs


def slot_tx(template, slot, kind):
    """The transaction at ``slot``: a medical record when ``kind`` is None,
    else a label of slot ``kind``, or of an id never appended when -1. Ids
    are chosen, not hashed, so labels can form cycles."""
    if kind is None:
        return dataclasses.replace(template, tx_id=SLOT_IDS[slot])
    payload = template.payload
    label = LabelPayload(
        receiver_id=payload.receiver_id,
        target_tx_hash=NEVER_APPENDED if kind < 0 else SLOT_IDS[kind],
        ch_digest=payload.ch_digest,
        pointer=payload.pointer,
        round_number=payload.round_number,
    )
    return Transaction(
        tx_type=TxType.LABEL, payload=label, sender_pk=template.sender_pk,
        fee=template.fee, signature=template.signature, tx_id=SLOT_IDS[slot],
    )


@st.composite
def append_sequences(draw):
    """Slot kinds (medical, label of a slot, label of a missing id) and an
    append order over the slots, repeats allowed."""
    n = draw(st.integers(1, len(SLOT_IDS)))
    kinds = draw(st.lists(st.none() | st.integers(-1, n - 1), min_size=n, max_size=n))
    order = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=14))
    return kinds, order


@settings(max_examples=200, deadline=None)
@given(append_sequences())
@example(([None, 0, 0, 1], [0, 1, 2, 3, 1]))  # re-label, label of a label, duplicate
@example(([None, 0, 1, 2], [0, 1, 2, 3, 2]))  # a chain of three labels
@example(([None, 0], [1, 0]))  # label appended before its target
@example(([1, 0, None], [2, 0, 1, 0]))  # two labels of each other: a cycle
@example(([-1, 0], [0, 1, 0]))  # missing target, then a label of the label
@example(([0], [0, 0]))  # a label of itself, appended twice
def test_record_index_matches_resolution_from_scratch(index_world, trio, spec):
    fresh_chain, patient_id, template, certs = index_world
    kinds, order = spec
    chain = fresh_chain()
    slots = [slot_tx(template, slot, kind) for slot, kind in enumerate(kinds)]
    for slot in order:
        tx = slots[slot]
        before = chain.history_of(patient_id)
        microblock = chain.microblocks[patient_id]
        if tx in microblock.txs:
            # a duplicate append raises and leaves the history as it was
            with pytest.raises(ValueError, match="already in the patient's microblock"):
                chain.append_to_microblock(patient_id, tx, certs[tx.tx_id], trio[0])
            assert chain.history_of(patient_id) == before
            assert chain.microblocks[patient_id] is microblock
            continue
        chain.append_to_microblock(patient_id, tx, certs[tx.tx_id], trio[0])
        got = [(d.tx.tx_id, d.current.tx_id) for d in chain.history_of(patient_id)]
        assert got == history_from_scratch(chain.microblocks[patient_id].txs)
