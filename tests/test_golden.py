"""Golden outputs: fixed scenarios must reproduce recorded bytes exactly.

Each scenario is a short, loaded run under one adversary: queues form,
records are labelled, and revisits at other institutions redact the
patient's institution root. The recorded values are the chain digest and
the sha256 of the metrics, reputation and summary texts. A change to any
of them is a change of simulated behaviour; update a value only together
with a note in CHANGES.md that says why it moved.
"""

import dataclasses
import hashlib
from collections import Counter

import pytest

from spchain.bench import BenchCell, run_cell
from spchain.blocks import decode_block, encode_block, merkle_root, microblock_hash
from spchain.chain import ChainState
from spchain.chameleon import message_scalar
from spchain.metrics import metrics_csv_text, reputation_csv_text, summary_text
from spchain.reputation import CHUNK_SIZE
from spchain.signing import address_of
from spchain.sim import run_scenario
from spchain.simconfig import ScenarioConfig
from tests.conftest import current_count, fresh_microblock_encoding
from tests.test_reputation import sums_of

BASE = ScenarioConfig(
    seed=3,
    rounds=40,
    miner_count=4,
    group_size=3,
    patient_count=36,
    patient_arrival_per_round=3,
    upload_rate=0.6,
    label_rate=0.2,
)

# name -> (overrides, chain digest, metrics sha, reputation sha, summary sha)
GOLDEN = {
    "none": (
        {},
        "1c51ded798980e5854407f139d6eca7a618c17b9b1f9f610995d050770c202f5",
        "868aecedb149526a9f72d8916f85f1ffce0b28f4a54497950519b5710b845db9",
        "49ae4f7bec84421ee4ec16434f29fd259cbf7ae30f4fd588b97e7a0ded9fcb5b",
        "213794a936116d3cae299667bbe4ff1953d58dcc7a86d882f3e59730d5a5a9a7",
    ),
    "selfish": (
        dict(adversary_type="selfish", adversary_power=0.3, adversary_withhold_rounds=2),
        "d3aba59030d4ac10987b7eec7df2cf0f7ab44ec81e12042ca27c69d9f024af47",
        "eafaf5ab83b5ed03083105645c741eda2f94f4b1aa25dcca19f70015385f9a60",
        "0a52f197b14681361bc8bf1cf9a045ba496c8a187705cea05477d609e8158cc5",
        "e74e2e69bdf95da735ab2ce32f00998505619e212f417117895685619d893c47",
    ),
    "flash-attack": (
        dict(
            adversary_type="flash",
            adversary_power=0.9,
            adversary_join_round=10,
            adversary_strategy="attack",
        ),
        "a87930a30561a97998d073d1a3c32a1fa479e0762935d8d5c247e3ff89b12b3f",
        "1336c9d1c00364467c71af1526b11033a9a69512d38e7ebbfb8a1d049bab794c",
        "4187a205e89a1941ae9ef5b095738196417e3589ac1a74fdca8a73ff515e7303",
        "8b8d2895ab1161c9da663364bf76095ed922e1b315433dc67299a4fa4d967cb1",
    ),
    "flash-honest": (
        dict(
            adversary_type="flash",
            adversary_power=0.9,
            adversary_join_round=10,
            adversary_strategy="honest",
        ),
        "9a2fda57edda91f25b0d3c7937a20ac745b11e66834d5c0d9dfb15a095976333",
        "a338655afcaef8cc4031a4c87a29bc657cf09eddc41482a402e6fda2e2717436",
        "68cedce209a080b80a378e334517057484ed092593f831285a6853bed204bd8a",
        "a523b206b54aebef8d9899d35a660142e70080ffe6578fe7fef90f3d409acdd2",
    ),
    "fraud": (
        dict(adversary_type="fraud", zombie_count=5),
        "e5ed75c0df3dc20f5a60c07b96da8b668ed0e7e591b7a0608484fdb88571fca6",
        "32af9111947eb7b53c8d04109ace64de094a83ce39aea8b1b8649b07c3dad183",
        "1402292c2f720b8f1d273489e4886d1ab12829f42e78182450ce899ca8f23843",
        "fe8b85cf96632e4be57b32f0edfc706750f9874caa043ca52df0d0be112a72e9",
    ),
    "inhibition": (
        dict(adversary_type="inhibition", group_size=4),
        "df2cf88398bf58f1a2af4eb52c53029cfaf9118959ebc69ad0acc9663e1ce368",
        "429ce08cd8fd61a08163743dad7cfafbd1cb2803ebea96946a5eff08a6cd30f2",
        "8cf585afa6cc590cd3e130a095c930891c3a0d9bbe9bace4f70f09c3b8ede924",
        "42ebf760d293892971063e7a46f4998084b3ba885f170d8c21fc94069a597ab1",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_scenario_outputs_match_recorded(name):
    overrides, digest, metrics_sha, reputation_sha, summary_sha = GOLDEN[name]
    result = run_scenario(dataclasses.replace(BASE, **overrides))
    assert result.sim.chain_digest() == digest
    assert _sha(metrics_csv_text(result.records)) == metrics_sha
    assert _sha(reputation_csv_text(result.reputation_rows)) == reputation_sha
    assert _sha(summary_text(result.summary)) == summary_sha


@pytest.mark.parametrize("name", list(GOLDEN))
def test_microblock_hashes_match_a_fresh_encoding(name):
    """Each final microblock hashes as its transactions encoded anew, and
    survives a wire round trip, redacted institution roots included. The
    chain certifies the home institution, then each receiver in the order
    first met in the microblock, and the root opens to the Merkle root of
    their leaves."""
    sim = run_scenario(dataclasses.replace(BASE, **GOLDEN[name][0])).sim
    chain = sim.chain
    redacted = 0
    for patient_id, mb in chain.microblocks.items():
        fresh = fresh_microblock_encoding(mb)
        assert microblock_hash(mb) == hashlib.sha256(fresh).digest()
        decoded = decode_block(encode_block(mb))
        assert decoded == mb
        assert microblock_hash(decoded) == microblock_hash(mb)

        home = chain.patients[patient_id].home_institution_id
        certified = list(chain.certified_institutions(patient_id))
        assert certified == list(dict.fromkeys([home, *(tx.payload.receiver_id for tx in mb.txs)]))
        leaves = [sim.institutions[inst].info_leaf for inst in certified]
        group = chain.institutions[home].hk.group
        assert mb.institution_root.message == message_scalar(merkle_root(leaves), group)
        redacted += len(certified) > 1
    assert redacted > 0


@pytest.mark.parametrize("name", list(GOLDEN))
def test_reputation_inputs_recount_from_the_pinned_chain(name, monkeypatch):
    """The counters the chain keeps as blocks land equal a recount over the
    pinned keyblocks and the appends: per institution, the running sums
    over its per-chunk counts, and its count in the last chunk it was
    counted in, tagged with that chunk. The chunk of an append is not on
    the chain, so an observer logs it as each append lands."""
    appended = []  # (receiver, chunk index) per append
    real_append = ChainState.append_to_microblock

    def logging_append(self, patient_id, tx, cert, group):
        updated = real_append(self, patient_id, tx, cert, group)
        appended.append((tx.payload.receiver_id, self.chunk_count - 1))
        return updated

    monkeypatch.setattr(ChainState, "append_to_microblock", logging_append)
    chain = run_scenario(dataclasses.replace(BASE, **GOLDEN[name][0])).sim.chain
    keyblocks = chain.pinned_keyblocks
    assert chain.keyblocks_mined == Counter(address_of(kb.miner_public_key) for kb in keyblocks)
    chunks = -(-len(keyblocks) // CHUNK_SIZE)
    assert chain.chunk_count == chunks
    registers = {inst: [0] * chunks for inst in chain.institutions}
    for kb in keyblocks:
        for tx in kb.register_txs:
            registers[tx.payload.receiver_id][(kb.height - 1) // CHUNK_SIZE] += 1
    medical = {inst: [0] * chunks for inst in chain.institutions}
    for receiver, chunk in appended:
        medical[receiver][chunk] += 1

    entries = [tx for mb in chain.microblocks.values() for tx in mb.txs]
    assert chain.medical_tx_count == len(entries) == len(appended) > 0
    assert Counter(tx.payload.receiver_id for tx in entries) == Counter(
        receiver for receiver, _ in appended
    )
    for inst in chain.institutions:
        assert chain.register_sums[inst] == sums_of(registers[inst])
        assert chain.medical_sums[inst] == sums_of(medical[inst])
        assert chain.register_counts[inst] == newest_count(registers[inst])
        assert chain.medical_counts[inst] == newest_count(medical[inst])
        assert current_count(chain, chain.register_counts, inst) == registers[inst][-1]
        assert current_count(chain, chain.medical_counts, inst) == medical[inst][-1]


def newest_count(counts):
    """(chunk, count) of the last chunk in ``counts`` with a nonzero count;
    (0, 0) when there is none."""
    for chunk in reversed(range(len(counts))):
        if counts[chunk]:
            return chunk, counts[chunk]
    return 0, 0


def test_bench_cell_matches_recorded():
    assert run_cell(1.0, 4, 4, 8, 7) == BenchCell(
        block_size_mb=1.0,
        group_size=4,
        keyblock_tps=1.5999999999999999,
        microblock_tps=19.047619047619047,
    )
