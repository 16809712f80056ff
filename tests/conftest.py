import os
import random

import pytest
from hypothesis import settings

from spchain import signing, wire
from spchain.blocks import (
    MicroBlock,
    TxCertificate,
    accept_bitmap,
    batch_vote_message,
    merkle_root,
)
from spchain.chameleon import encode_digest
from spchain.consensus import ConsensusGroup, GroupMember, pin, pin_batch
from spchain.group import BilinearGroup, default_group
from spchain.signing import keypair_from_seed, sign
from spchain.tx import signing_bytes

# Every run draws the same examples, and no example database carries a
# failure from one run into the next.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def pytest_sessionfinish(session, exitstatus):
    """Fail the run if the test process still has a child, running or a
    zombie, once its signature-verify worker is stopped."""
    signing.stop_worker()
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return  # no child left
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("a child process outlived the test session", red=True)


@pytest.fixture(scope="session")
def group():
    return default_group()


@pytest.fixture
def small_group():
    return BilinearGroup(101)


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture
def key_loads(monkeypatch):
    """The raw keys ``verify_sig`` loads as Ed25519 public keys, in order,
    starting from an empty key cache."""
    loaded = []
    real_keys = signing.Ed25519PublicKey

    class CountingKeys:
        @staticmethod
        def from_public_bytes(public_key):
            loaded.append(public_key)
            return real_keys.from_public_bytes(public_key)

    signing._load_public_key.cache_clear()
    monkeypatch.setattr(signing, "Ed25519PublicKey", CountingKeys)
    yield loaded
    signing._load_public_key.cache_clear()


def signed_members(weights, seed=b"cons"):
    """A group of members m0, m1, ... with the given weights and real
    signing keys, and the keys by member id."""
    keypairs = {f"m{i}": keypair_from_seed(b"%s/%d" % (seed, i)) for i in range(len(weights))}
    members = tuple(
        GroupMember(miner_id=f"m{i}", weight=w, public_key=keypairs[f"m{i}"].public_key)
        for i, w in enumerate(weights)
    )
    return ConsensusGroup(members=members, epoch=0), keypairs


@pytest.fixture(scope="session")
def trio():
    """A 3-member, equal-weight consensus group with signing keys, for
    manual pinning."""
    return signed_members((1.0, 1.0, 1.0), seed=b"trio")


def subject_votes(subject: bytes, consensus_group, keypairs) -> dict:
    """Each member's accepting vote on the one-entry batch ``[subject]``,
    by member id."""
    message = batch_vote_message(consensus_group.epoch, merkle_root([subject]), b"\x01")
    return {
        m.miner_id: (m.miner_id, b"\x01", sign(message, keypairs[m.miner_id]))
        for m in consensus_group.members
    }


def pin_subject(subject: bytes, consensus_group, keypairs) -> TxCertificate:
    """Pin a keyblock hash or a transaction id as a one-entry batch, every
    member signing."""
    votes = subject_votes(subject, consensus_group, keypairs)
    outcome = pin(subject, list(votes.values()), consensus_group)
    assert isinstance(outcome, TxCertificate)
    return outcome


def pin_entries(subjects, consensus_group, keypairs) -> tuple:
    """Pin ``subjects`` as one batch, every member signing and accepting
    every entry; the outcome of each entry, in order."""
    bitmap = accept_bitmap([True] * len(subjects))
    message = batch_vote_message(consensus_group.epoch, merkle_root(subjects), bitmap)
    votes = [
        (m.miner_id, bitmap, sign(message, keypairs[m.miner_id]))
        for m in consensus_group.members
    ]
    return pin_batch(subjects, votes, consensus_group).outcomes


def fresh_microblock_encoding(block: MicroBlock) -> bytes:
    """The microblock wire layout written out from ``block.txs``, each
    transaction encoded anew; the oracle for the cached bodies."""
    out = (
        wire.u8(2)
        + wire.var_str(block.owner_patient_id)
        + encode_digest(block.institution_root)
        + wire.var_str(block.creator_miner_id)
        + wire.u64(block.round_number)
        + wire.var_bytes(block.prev_hash)
        + wire.u32(len(block.txs))
    )
    for tx in block.txs:
        body = signing_bytes(tx.tx_type, tx.payload, tx.sender_pk, tx.fee)
        out += wire.var_bytes(body + wire.var_bytes(tx.signature))
    return out


def current_count(chain, counts, institution_id: str) -> int:
    """``institution_id``'s count in the chain's current chunk, read from
    ``counts`` (``register_counts`` or ``medical_counts``): a count
    tagged with an older chunk is 0 in this one."""
    chunk, count = counts[institution_id]
    return count if chunk == chain.chunk_count - 1 else 0
