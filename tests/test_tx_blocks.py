import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from spchain.blocks import (
    GENESIS_KEYBLOCK_HASH,
    GENESIS_MICROBLOCK_HASH,
    BatchVote,
    KeyBlock,
    MicroBlock,
    TxCertificate,
    accept_bitmap,
    append_pinned_tx,
    batch_vote_message,
    decode_block,
    encode_block,
    institution_root,
    keyblock_hash,
    merkle_path_verifies,
    merkle_paths,
    merkle_root,
    microblock_hash,
    update_institution_root,
)
from spchain.chameleon import ch_hash, ch_keygen, ch_verify, message_scalar
from spchain.consensus import (
    check_certificate,
    check_signers,
    pin_batch,
    required_vote_count,
)
from spchain.group import default_group
from spchain.signing import keypair_from_seed, sign
from spchain.tx import (
    LabelPayload,
    MedicalPayload,
    RegisterPayload,
    TxType,
    build_tx,
    decode_tx,
    encode_tx,
)
from spchain.wire import DecodeError, Reader
from tests.conftest import fresh_microblock_encoding, pin_subject, signed_members


def make_keys(seed: int, group):
    return ch_keygen(group, random.Random(seed))


def make_register_tx(seed=b"p1", receiver="inst-a", fee=2):
    kp = keypair_from_seed(seed)
    payload = RegisterPayload(receiver_id=receiver, identity_digest=hashlib.sha256(seed).digest())
    return build_tx(TxType.REGISTER, payload, kp, fee=fee)


def make_medical_tx(group, keys, seed=b"p1", receiver="inst-a", fee=1, round_number=3):
    kp = keypair_from_seed(seed)
    digest = ch_hash(keys.hk, message_scalar(b"emr-ct", group), 77)
    payload = MedicalPayload(
        receiver_id=receiver, ch_digest=digest, pointer="ab" * 32, round_number=round_number
    )
    return build_tx(TxType.MEDICAL, payload, kp, fee=fee, receiver_hk=keys.hk)


def make_label_tx(group, keys, target: bytes, seed=b"p1", receiver="inst-a"):
    kp = keypair_from_seed(seed)
    digest = ch_hash(keys.hk, message_scalar(b"corrected-ct", group), 78)
    payload = LabelPayload(
        receiver_id=receiver,
        target_tx_hash=target,
        ch_digest=digest,
        pointer="cd" * 32,
        round_number=4,
    )
    return build_tx(TxType.LABEL, payload, kp, fee=1, receiver_hk=keys.hk)


# -- transactions ------------------------------------------------------------


def test_tx_roundtrip_all_types(group):
    keys = make_keys(1, group)
    reg = make_register_tx()
    med = make_medical_tx(group, keys)
    lab = make_label_tx(group, keys, target=med.tx_id)
    for tx in (reg, med, lab):
        reader = Reader(encode_tx(tx))
        decoded = decode_tx(reader)
        reader.expect_end()
        assert decoded == tx
        assert decoded.tx_id == tx.tx_id


def test_tx_id_is_content_hash():
    tx = make_register_tx()
    assert tx.tx_id == hashlib.sha256(encode_tx(tx)).digest()
    other = make_register_tx(fee=3)
    assert other.tx_id != tx.tx_id


def test_randomized_tx_roundtrip(group):
    rng = random.Random(31)
    keys = make_keys(2, group)
    for i in range(200):
        kind = rng.choice(list(TxType))
        seed = b"p%d" % rng.randrange(20)
        if kind is TxType.REGISTER:
            tx = make_register_tx(seed=seed, fee=rng.randrange(100))
        elif kind is TxType.MEDICAL:
            tx = make_medical_tx(
                group, keys, seed=seed, fee=rng.randrange(100), round_number=rng.randrange(50)
            )
        else:
            tx = make_label_tx(group, keys, target=bytes([i % 256]) * 32, seed=seed)
        reader = Reader(encode_tx(tx))
        assert decode_tx(reader) == tx


def test_byte_flip_never_decodes_to_same_id(group):
    keys = make_keys(3, group)
    tx = make_medical_tx(group, keys)
    encoded = encode_tx(tx)
    rng = random.Random(17)
    for _ in range(150):
        pos = rng.randrange(len(encoded))
        corrupted = bytearray(encoded)
        corrupted[pos] ^= 1 << rng.randrange(8)
        try:
            reader = Reader(bytes(corrupted))
            decoded = decode_tx(reader)
            reader.expect_end()
        except DecodeError:
            continue
        assert decoded.tx_id != tx.tx_id  # id is the content hash


def test_build_tx_enforces_digest_and_target(group):
    keys = make_keys(4, group)
    other = make_keys(5, group)
    kp = keypair_from_seed(b"p1")
    digest = ch_hash(keys.hk, 9, 9)
    payload = MedicalPayload(receiver_id="inst", ch_digest=digest, pointer="x", round_number=0)
    with pytest.raises(ValueError):
        build_tx(TxType.MEDICAL, payload, kp)  # missing hash key
    with pytest.raises(ValueError):
        build_tx(TxType.MEDICAL, payload, kp, receiver_hk=other.hk)  # wrong key
    lab = LabelPayload(
        receiver_id="inst", target_tx_hash=b"short", ch_digest=digest, pointer="x", round_number=0
    )
    with pytest.raises(ValueError, match="32-byte"):
        build_tx(TxType.LABEL, lab, kp, receiver_hk=keys.hk)


# -- pin certificates ----------------------------------------------------------


def test_required_vote_count():
    assert [required_vote_count(x) for x in range(1, 8)] == [1, 2, 2, 3, 4, 4, 5]


def test_quorum_needs_count_and_weight(trio):
    """Count and weight are the signing group's, never the certificate's."""
    cert = pin_subject(b"\x01" * 32, *trio)

    def meets(signers, weights):
        counted = dataclasses.replace(cert, signers=tuple(cert.signers[i] for i in signers))
        try:
            check_signers(counted, signed_members(weights)[0])
        except ValueError:
            return False
        return True

    # 2-of-3 equal weights: count ok, weight exactly 2/3 is NOT enough
    assert not meets((0, 1), (1.0, 1.0, 1.0))
    # 3-of-3 passes
    assert meets((0, 1, 2), (1.0, 1.0, 1.0))
    # 2-of-3 with dominant weight passes
    assert meets((0, 1), (5.0, 1.0, 0.5))
    # heavy single vote fails the count requirement
    assert not meets((0,), (6.0, 0.25, 0.25))


def test_repeated_signer_never_meets_quorum(trio):
    """One member listed three times is one vote of three, for keyblock and
    transaction certificates alike: both are checked by one function."""
    consensus_group, keypairs = trio
    subject = b"\x01" * 32
    honest = pin_subject(subject, consensus_group, keypairs)
    check_certificate(subject, honest, consensus_group)
    tripled = dataclasses.replace(honest, signers=honest.signers[:1] * 3)
    with pytest.raises(ValueError, match="listed twice"):
        check_certificate(subject, tripled, consensus_group)


# -- blocks --------------------------------------------------------------------


def make_keyblock(pinners=None):
    """A one-register keyblock; pinned by ``pinners`` (a group and its
    keys) when given."""
    block = KeyBlock(
        prev_keyblock_hash=GENESIS_KEYBLOCK_HASH,
        penu_microblock_hash=GENESIS_MICROBLOCK_HASH,
        nonce=123456,
        miner_public_key=keypair_from_seed(b"miner").public_key,
        register_txs=(make_register_tx(),),
        target=1 << 250,
        height=1,
    )
    if pinners is None:
        return block
    return dataclasses.replace(block, pin_cert=pin_subject(keyblock_hash(block), *pinners))


def make_microblock(keys, txs=()):
    root = institution_root([b"leaf-a"], keys.hk, random.Random(9))
    return MicroBlock(
        owner_patient_id="patient-1",
        institution_root=root,
        txs=tuple(txs),
        creator_miner_id="m0",
        round_number=2,
        prev_hash=GENESIS_MICROBLOCK_HASH,
    )


def test_keyblock_roundtrip_with_and_without_cert(trio):
    for pinners in (None, trio):
        block = make_keyblock(pinners)
        assert decode_block(encode_block(block)) == block


def test_microblock_roundtrip(group):
    keys = make_keys(6, group)
    med = make_medical_tx(group, keys)
    block = make_microblock(keys, txs=[med])
    expected = hashlib.sha256(fresh_microblock_encoding(block)).digest()
    assert microblock_hash(block) == expected
    decoded = decode_block(encode_block(block))
    assert decoded == block
    assert microblock_hash(decoded) == expected


def test_keyblock_hash_ignores_certificate(trio):
    bare = make_keyblock()
    pinned = make_keyblock(trio)
    assert keyblock_hash(bare) == keyblock_hash(pinned)
    # but any content change shifts the hash
    moved = dataclasses.replace(bare, nonce=bare.nonce + 1)
    assert keyblock_hash(moved) != keyblock_hash(bare)


def test_keyblock_rejects_non_register_txs(group):
    keys = make_keys(7, group)
    med = make_medical_tx(group, keys)
    block = dataclasses.replace(make_keyblock(), register_txs=(med,))
    with pytest.raises(DecodeError, match="register"):
        decode_block(encode_block(block))


def test_unknown_block_kind_rejected():
    with pytest.raises(DecodeError):
        decode_block(b"\x09rest")


# -- merkle and institution root ------------------------------------------------


def test_merkle_three_leaf_hand_oracle():
    # duplicated-last-node rule, recomputed here from first principles
    leaves = [b"a", b"b", b"c"]
    ha, hb, hc = (hashlib.sha256(x).digest() for x in leaves)
    left = hashlib.sha256(ha + hb).digest()
    right = hashlib.sha256(hc + hc).digest()
    assert merkle_root(leaves) == hashlib.sha256(left + right).digest()


def test_merkle_single_leaf_and_order_sensitivity():
    assert merkle_root([b"a"]) == hashlib.sha256(b"a").digest()
    assert merkle_root([b"a", b"b"]) != merkle_root([b"b", b"a"])
    with pytest.raises(ValueError):
        merkle_root([])


def test_institution_root_redaction_keeps_h(group):
    keys = make_keys(8, group)
    root = institution_root([b"hospital-a"], keys.hk, random.Random(1))
    assert root.message == message_scalar(merkle_root([b"hospital-a"]), group)
    assert ch_verify(keys.hk, root)
    updated = update_institution_root(root, [b"hospital-a", b"clinic-b"], keys.hk, keys.tk)
    assert updated.h == root.h
    new_top = merkle_root([b"hospital-a", b"clinic-b"])
    assert updated.message == message_scalar(new_top, group)
    assert ch_verify(keys.hk, updated)


# -- microblock append rules ------------------------------------------------------


def test_append_requires_matching_quorum_cert(group, trio):
    consensus_group, keypairs = trio
    keys = make_keys(9, group)
    block = make_microblock(keys)
    med = make_medical_tx(group, keys)
    cert = pin_subject(med.tx_id, consensus_group, keypairs)
    with pytest.raises(ValueError, match="no certificate"):
        check_certificate(med.tx_id, None, consensus_group)
    wrong = dataclasses.replace(cert, batch_root=b"\x00" * 32)
    with pytest.raises(ValueError, match="does not reach the batch root"):
        check_certificate(med.tx_id, wrong, consensus_group)
    weak = dataclasses.replace(cert, signers=cert.signers[:1])
    with pytest.raises(ValueError, match="below quorum"):
        check_certificate(med.tx_id, weak, consensus_group)

    check_certificate(med.tx_id, cert, consensus_group)
    updated = append_pinned_tx(block, med)
    assert updated.txs == (med,)
    assert block.txs == ()  # original untouched


def test_append_checks_batch_path_and_bitmaps(group, trio):
    """Certificates from a real five-transaction batch in which m2 refuses
    index 3: each places only its own transaction, and counts only members
    whose bit is set."""
    consensus_group, keypairs = trio
    keys = make_keys(11, group)
    txs = [make_medical_tx(group, keys, seed=b"batch-%d" % i) for i in range(5)]
    tx_ids = [tx.tx_id for tx in txs]
    root = merkle_root(tx_ids)
    votes = []
    for m in consensus_group.members:
        bitmap = accept_bitmap([m.miner_id != "m2" or i != 3 for i in range(5)])
        message = batch_vote_message(consensus_group.epoch, root, bitmap)
        votes.append((m.miner_id, bitmap, sign(message, keypairs[m.miner_id])))
    outcomes = pin_batch(tx_ids, votes, consensus_group).outcomes
    cert = outcomes[2]
    check_certificate(tx_ids[2], cert, consensus_group)

    # a path that does not reach the root: another transaction's
    # certificate, or this one moved to another index
    with pytest.raises(ValueError, match="does not reach the batch root"):
        check_certificate(tx_ids[2], outcomes[1], consensus_group)
    for index in (1, 3, 2 + 8, -1):
        with pytest.raises(ValueError, match="does not reach the batch root"):
            check_certificate(tx_ids[2], dataclasses.replace(cert, index=index), consensus_group)

    # a counted signer whose bit is unset: m2's vote on index 3 refused it
    refused = next(s for s in cert.signers if s.signer_id == "m2")
    assert refused.bitmap != accept_bitmap([True] * 5)
    forged = dataclasses.replace(outcomes[4], index=3, path=merkle_paths(tx_ids)[1][3])
    assert forged.signers[-1] == refused
    with pytest.raises(ValueError, match="did not accept"):
        check_certificate(tx_ids[3], forged, consensus_group)
    unset = BatchVote("m0", accept_bitmap([False] * 5), cert.signers[0].signature)
    with pytest.raises(ValueError, match="did not accept"):
        check_certificate(
            tx_ids[2], dataclasses.replace(cert, signers=(unset,) + cert.signers[1:]),
            consensus_group,
        )

    # below quorum
    with pytest.raises(ValueError, match="below quorum"):
        check_certificate(
            tx_ids[2], dataclasses.replace(cert, signers=cert.signers[:2]), consensus_group
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=64, unique=True))
def test_merkle_paths_bind_id_and_index(tx_ids):
    root, paths = merkle_paths(tx_ids)
    assert root == merkle_root(tx_ids)
    for i, path in enumerate(paths):
        assert merkle_path_verifies(tx_ids[i], i, path, root)
        for j in range(len(tx_ids)):
            if j != i:
                assert not merkle_path_verifies(tx_ids[i], j, path, root)
                assert not merkle_path_verifies(tx_ids[j], i, path, root)
        for j in (-1, i + (1 << len(path))):
            assert not merkle_path_verifies(tx_ids[i], j, path, root)


def test_append_rejects_register_tx(group):
    keys = make_keys(10, group)
    block = make_microblock(keys)
    reg = make_register_tx()
    with pytest.raises(ValueError, match="medical and label"):
        append_pinned_tx(block, reg)


# -- certificate codec -----------------------------------------------------------

certificates = st.builds(
    TxCertificate,
    batch_root=st.binary(min_size=32, max_size=32),
    index=st.integers(0, 2**32 - 1),
    path=st.lists(st.binary(min_size=32, max_size=32), max_size=6).map(tuple),
    signers=st.lists(
        st.builds(
            BatchVote,
            signer_id=st.text(max_size=12),
            bitmap=st.binary(max_size=8),
            signature=st.binary(max_size=64),
        ),
        max_size=5,
    ).map(tuple),
)

keyblocks = st.builds(
    KeyBlock,
    prev_keyblock_hash=st.binary(min_size=32, max_size=32),
    penu_microblock_hash=st.binary(min_size=32, max_size=32),
    nonce=st.integers(0, 2**64 - 1),
    miner_public_key=st.binary(min_size=32, max_size=32),
    register_txs=st.sampled_from([(), (make_register_tx(),)]),
    target=st.integers(0, 2**256 - 1),
    height=st.integers(0, 2**64 - 1),
    pin_cert=st.none() | certificates,
)


@settings(max_examples=80, deadline=None)
@given(keyblocks)
def test_keyblock_certificate_roundtrip(block):
    assert decode_block(encode_block(block)) == block


@settings(max_examples=30, deadline=None)
@given(keyblocks)
def test_every_truncated_keyblock_encoding_raises_decode_error(block):
    data = encode_block(block)
    for end in range(len(data)):
        with pytest.raises(DecodeError):
            decode_block(data[:end])


RECORD_KEYS = make_keys(4, default_group())


@st.composite
def record_txs(draw):
    """A signed medical or label transaction with drawn fields."""
    group = default_group()
    hk = RECORD_KEYS.hk
    m, r = draw(st.integers(0, group.p - 1)), draw(st.integers(1, group.p - 1))
    fields = dict(
        receiver_id=draw(st.text(max_size=12)),
        ch_digest=ch_hash(hk, m, r),
        pointer=draw(st.text(max_size=16)),
        round_number=draw(st.integers(0, 2**64 - 1)),
    )
    if draw(st.booleans()):
        tx_type, payload = TxType.MEDICAL, MedicalPayload(**fields)
    else:
        target = draw(st.binary(min_size=32, max_size=32))
        tx_type, payload = TxType.LABEL, LabelPayload(target_tx_hash=target, **fields)
    fee = draw(st.integers(0, 2**64 - 1))
    return build_tx(tx_type, payload, keypair_from_seed(b"p1"), fee=fee, receiver_hk=hk)


@settings(max_examples=30, deadline=None)
@given(record_txs())
def test_every_truncated_record_tx_encoding_raises_decode_error(tx):
    data = encode_tx(tx)
    reader = Reader(data)
    assert decode_tx(reader) == tx
    reader.expect_end()
    for end in range(len(data)):
        with pytest.raises(DecodeError):
            decode_tx(Reader(data[:end]))


signed_register_txs = st.builds(
    lambda seed, receiver, identity, fee: build_tx(
        TxType.REGISTER,
        RegisterPayload(receiver_id=receiver, identity_digest=identity),
        keypair_from_seed(seed),
        fee=fee,
    ),
    seed=st.binary(max_size=8),
    receiver=st.text(max_size=12),
    identity=st.binary(max_size=40),
    fee=st.integers(0, 2**64 - 1),
)


@settings(max_examples=30, deadline=None)
@given(signed_register_txs)
def test_every_truncated_register_tx_encoding_raises_decode_error(tx):
    data = encode_tx(tx)
    reader = Reader(data)
    assert decode_tx(reader) == tx
    reader.expect_end()
    for end in range(len(data)):
        with pytest.raises(DecodeError):
            decode_tx(Reader(data[:end]))


@st.composite
def microblocks(draw):
    """A microblock with drawn header fields, a chameleon root under
    ``RECORD_KEYS`` and up to three signed record transactions."""
    group = default_group()
    m, r = draw(st.integers(0, group.p - 1)), draw(st.integers(1, group.p - 1))
    return MicroBlock(
        owner_patient_id=draw(st.text(max_size=12)),
        institution_root=ch_hash(RECORD_KEYS.hk, m, r),
        txs=tuple(draw(st.lists(record_txs(), max_size=3))),
        creator_miner_id=draw(st.text(max_size=12)),
        round_number=draw(st.integers(0, 2**64 - 1)),
        prev_hash=draw(st.binary(max_size=40)),
    )


@settings(max_examples=40, deadline=None)
@given(microblocks())
def test_microblock_roundtrip_property(block):
    data = encode_block(block)
    decoded = decode_block(data)
    assert decoded == block
    assert encode_block(decoded) == data
    assert microblock_hash(decoded) == microblock_hash(block)


@settings(max_examples=20, deadline=None)
@given(microblocks())
def test_every_truncated_microblock_encoding_raises_decode_error(block):
    data = encode_block(block)
    for end in range(len(data)):
        with pytest.raises(DecodeError):
            decode_block(data[:end])
