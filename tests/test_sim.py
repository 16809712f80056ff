import dataclasses

import pytest

from spchain.actors import EmrRecord, upload
from spchain import actors as actors_mod
from spchain import chain as chain_mod
from spchain import signing as signing_mod
from spchain import sim as sim_mod
from spchain import tx as tx_mod
from spchain.bench import bench_throughput
from spchain.blocks import GENESIS_KEYBLOCK_HASH, keyblock_hash
from spchain.chain import LABEL_TARGET_MISSING, ChainState
from spchain.consensus import ConsensusGroup, GroupMember
from spchain.metrics import CSV_HEADER_COMMENT, metrics_csv_text, reputation_csv_text
from spchain.mining import check_puzzle
from spchain.sim import WEIGHT_FLOOR, Simulation, run_scenario
from spchain.scheduler import schedule_batch
from spchain.simconfig import ConfigError, ScenarioConfig, parse_config_text
from spchain.tx import LabelPayload, TxType, build_tx
from tests.test_golden import BASE as GOLDEN_BASE, GOLDEN


BASE = ScenarioConfig(
    seed=5,
    rounds=12,
    miner_count=4,
    group_size=3,
    patient_count=10,
    patient_arrival_per_round=2,
    upload_rate=0.5,
    label_rate=0.1,
)


# -- config ---------------------------------------------------------------------


def test_parse_config_text_roundtrip():
    cfg = parse_config_text(
        """
        # comment
        seed = 9
        rounds = 3
        power_shares = 0.5, 0.25, 0.25
        miner_count = 3
        upload_rate = 0.75
        adversary_type = selfish
        """
    )
    assert cfg.seed == 9
    assert cfg.power_shares == (0.5, 0.25, 0.25)
    assert cfg.adversary_type == "selfish"


def test_parse_rejects_unknown_key_and_bad_values():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus = 1")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("rounds = three")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words")


def test_validate_catches_inconsistencies():
    with pytest.raises(ConfigError, match="sum to 1"):
        ScenarioConfig(miner_count=2, power_shares=(0.5, 0.6)).validate()
    with pytest.raises(ConfigError, match="length"):
        ScenarioConfig(miner_count=3, power_shares=(0.5, 0.5)).validate()
    with pytest.raises(ConfigError, match="adversary type"):
        ScenarioConfig(adversary_type="ddos").validate()
    with pytest.raises(ConfigError, match="upload_rate"):
        ScenarioConfig(upload_rate=1.5).validate()
    with pytest.raises(ConfigError, match="emr_size_bytes"):
        ScenarioConfig(emr_size_bytes=-1).validate()


# -- determinism and safety --------------------------------------------------------


def test_same_seed_same_bytes():
    a = run_scenario(BASE)
    b = run_scenario(dataclasses.replace(BASE))
    assert metrics_csv_text(a.records) == metrics_csv_text(b.records)
    assert reputation_csv_text(a.reputation_rows) == reputation_csv_text(b.reputation_rows)
    assert a.summary == b.summary


def test_different_seed_different_history():
    a = run_scenario(BASE)
    b = run_scenario(dataclasses.replace(BASE, seed=6))
    assert a.summary["chain_digest"] != b.summary["chain_digest"]


def test_delivery_order_cannot_change_pinned_history():
    """Members reorder an interval's submissions by id, so whatever order
    the traffic arrives in, each institution's queue takes the round's new
    transactions in ascending tx_id."""
    sim = Simulation(dataclasses.replace(BASE, upload_rate=1.0, label_rate=0.5))
    checked = 0
    for _ in range(6):
        sim.run_round()
        before = {inst: len(queue) for inst, queue in sim.scheduler.queues.items()}
        sim._generate_traffic()
        for inst, queue in sim.scheduler.queues.items():
            new_ids = [tx.tx_id for tx in list(queue)[before.get(inst, 0):]]
            assert new_ids == sorted(new_ids)
            checked += len(new_ids) > 1
    assert checked >= 6


def test_csv_headers_versioned():
    a = run_scenario(BASE)
    assert metrics_csv_text(a.records).startswith(CSV_HEADER_COMMENT + "\n")
    assert reputation_csv_text(a.reputation_rows).startswith(CSV_HEADER_COMMENT + "\n")


def test_pinned_chain_is_valid_and_conflict_free():
    result = run_scenario(BASE)
    sim = result.sim
    assert result.summary["pinned_conflicts"] == 0
    prev = GENESIS_KEYBLOCK_HASH
    for height, kb in enumerate(sim.chain.pinned_keyblocks, start=1):
        assert kb.height == height
        assert kb.prev_keyblock_hash == prev
        assert check_puzzle(kb)  # real proof of work
        assert kb.pin_cert is not None
        prev = keyblock_hash(kb)


def test_microblock_txs_all_pinned_and_owned():
    result = run_scenario(BASE)
    chain = result.sim.chain
    assert len(chain.microblocks) == result.summary["patients_registered"]
    total = sum(len(mb.txs) for mb in chain.microblocks.values())
    assert total == result.summary["medical_txs_pinned"]
    for patient_id, mb in chain.microblocks.items():
        assert mb.owner_patient_id == patient_id
        for tx in mb.txs:
            assert chain.patient_id_for(tx.sender_pk) == patient_id


def test_reputation_rows_in_range():
    result = run_scenario(BASE)
    for _, _, r1, r2, combined in result.reputation_rows:
        assert 0.0 <= r1 <= 1.0
        assert 0.0 <= r2 <= 1.0
        assert combined == pytest.approx(0.5 * (r1 + r2))


def test_weight_floor_bootstraps_round_one():
    sim = Simulation(BASE)
    record = sim.run_round()
    assert record.keyblock_pinned == 1  # pinning works with zero reputation
    group = sim.current_group({m.address: 0.0 for m in sim.miners})
    assert all(m.weight == WEIGHT_FLOOR for m in group.members)


# -- batch order -------------------------------------------------------------------


def one_patient_sim(adversary_type):
    """Three miners, one registered patient with one pinned record, empty
    queues, and a three-member equal-weight group."""
    cfg = ScenarioConfig(
        seed=4, rounds=10, miner_count=3, group_size=3, patient_count=1,
        patient_arrival_per_round=1, upload_rate=0.0, label_rate=0.0,
        adversary_type=adversary_type,
    )
    sim = Simulation(cfg)
    while not sim.chain.patients:
        sim.run_round()
    group = ConsensusGroup(
        members=tuple(
            GroupMember(m.address, 1.0, m.keypair.public_key) for m in sim.miners
        ),
        epoch=sim.round_number,
    )
    (patient,) = sim.patients.values()
    earlier = visit(sim, patient, sim.miners[1], b"earlier")
    sim.scheduler.enqueue(sim.miners[1].address, earlier)
    assert sim._pin_tx_batch(group, schedule_batch(sim.scheduler, {})) == 1
    return sim, group, patient, earlier


def visit(sim, patient, inst, plaintext):
    record = EmrRecord(plaintext, inst.address, patient.address, sim.round_number)
    return upload(patient, inst, record, sim.chain, fee=1)


def label_of(sim, patient, inst, target_tx_id):
    """A label naming ``target_tx_id``, which need not be pinned yet."""
    body = visit(sim, patient, inst, b"corrected").payload
    payload = LabelPayload(
        receiver_id=inst.address, target_tx_hash=target_tx_id, ch_digest=body.ch_digest,
        pointer=body.pointer, round_number=body.round_number,
    )
    return build_tx(
        TxType.LABEL, payload, patient.keypair, fee=1,
        receiver_hk=inst.ch_keys.hk,
    )


@pytest.mark.parametrize("adversary_type", ["none", "inhibition"])
def test_label_sees_its_target_decided_earlier_in_the_batch(adversary_type):
    """A label behind its own target in one batch is validated against the
    chain the target's outcome leaves: pinned when the target was pinned,
    LABEL_TARGET_MISSING when the target missed quorum and was requeued."""
    sim, group, patient, earlier = one_patient_sim(adversary_type)
    victim = sim.miners[0]
    if adversary_type == "inhibition":
        assert sim.adversary.victim_id == victim.address
        assert group.member(sim.adversary.miner_id) is not None
    m = visit(sim, patient, victim, b"record")
    l = label_of(sim, patient, victim, m.tx_id)
    later = visit(sim, patient, victim, b"later")
    for tx in (m, l, later):
        sim.scheduler.enqueue(victim.address, tx)
        sim.submit_round[tx.tx_id] = sim.round_number
    sim.scheduler.batch_cap = 2
    batch = schedule_batch(sim.scheduler, {})
    assert batch == [m, l]
    invalid, accesses = sim.invalid_txs, sim.chain.store_accesses

    pinned = sim._pin_tx_batch(group, batch)

    txs = sim.chain.microblocks[patient.address].txs
    queue = list(sim.scheduler.queues[victim.address])
    if adversary_type == "none":
        assert pinned == 2
        assert txs == (earlier, m, l)
        assert queue == [later]
        assert sim.invalid_txs == invalid
        assert sim.chain.store_accesses == accesses + 2  # scanned earlier, m
        assert m.tx_id not in sim.submit_round
    else:
        # the inhibitor's refusal leaves 2 of 3 equal weights: not > 2/3
        assert pinned == 0
        assert txs == (earlier,)
        assert queue == [m, later]  # m back at the head
        assert sim.invalid_txs == invalid + 1
        assert sim.chain.store_accesses == accesses + 1  # scanned earlier only
        assert m.tx_id in sim.submit_round
        assert sim.chain.validate_tx(l) == (False, LABEL_TARGET_MISSING)
    assert l.tx_id not in sim.submit_round


def test_replays_and_same_batch_repeats_are_pinned_once():
    """A batch holding an already pinned tx and two copies of a new one
    pins the new one once: the replay and the repeat count as invalid,
    and pay and count for nothing, as a batch of the new tx alone shows."""
    sim, group, patient, earlier = one_patient_sim("none")
    reference, ref_group, ref_patient, _ = one_patient_sim("none")
    inst = sim.miners[1]
    fresh = visit(sim, patient, inst, b"fresh")
    assert visit(reference, ref_patient, reference.miners[1], b"fresh") == fresh
    invalid = sim.invalid_txs
    for tx in (earlier, fresh, fresh):
        sim.scheduler.enqueue(inst.address, tx)
    reference.scheduler.enqueue(inst.address, fresh)
    batch = schedule_batch(sim.scheduler, {})
    assert batch == [earlier, fresh, fresh]

    assert sim._pin_tx_batch(group, batch) == 1
    assert reference._pin_tx_batch(ref_group, schedule_batch(reference.scheduler, {})) == 1

    assert sim.chain.microblocks[patient.address].txs == (earlier, fresh)
    assert sim.invalid_txs == invalid + 2
    assert sim.total_medical_txs == reference.total_medical_txs
    assert sim.total_rewards == reference.total_rewards
    assert sim.tml_counts == reference.tml_counts


def count_vote_signatures(monkeypatch):
    """Run the golden ``none`` scenario; return the vote signatures made,
    and how many the group may make when it signs each scheduled batch
    once: group size times (non-empty batches, plus the labels that close
    a batch early, plus keyblock pins)."""
    counts = {"signs": 0, "allowed": 0}
    real_sign, real_schedule = sim_mod.sign, sim_mod.schedule_batch
    real_pin_keyblock = Simulation._pin_keyblock

    def counting_sign(msg, keypair):
        counts["signs"] += 1
        return real_sign(msg, keypair)

    def counting_schedule(state, reputations):
        batch = real_schedule(state, reputations)
        seen: set[bytes] = set()
        for tx in batch:
            if tx.tx_type is TxType.LABEL and tx.payload.target_tx_hash in seen:
                counts["allowed"] += GOLDEN_BASE.group_size
            seen.add(tx.tx_id)
        counts["allowed"] += GOLDEN_BASE.group_size * bool(batch)
        return batch

    def counting_pin_keyblock(self, group, miner_id, block):
        counts["allowed"] += group.size
        return real_pin_keyblock(self, group, miner_id, block)

    monkeypatch.setattr(sim_mod, "sign", counting_sign)
    monkeypatch.setattr(sim_mod, "schedule_batch", counting_schedule)
    monkeypatch.setattr(Simulation, "_pin_keyblock", counting_pin_keyblock)
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]
    return counts["signs"], counts["allowed"], result.summary["medical_txs_pinned"]


def test_group_signs_each_batch_once_not_each_tx(monkeypatch):
    signs, allowed, pinned = count_vote_signatures(monkeypatch)
    assert 0 < signs <= allowed
    # per-transaction voting would sign every pinned transaction
    assert signs < GOLDEN_BASE.group_size * pinned
    assert count_vote_signatures(monkeypatch)[0] == signs


def count_tx_encodings(monkeypatch):
    """Run the golden ``none`` scenario; return the ``signing_bytes`` calls
    made, and how many a linear chain makes: one per transaction built and
    one per transaction validated, its body cached from then on for the
    keyblock and microblock hashes."""
    counts = {"calls": 0, "allowed": 0}
    real_signing_bytes, real_build_tx = tx_mod.signing_bytes, actors_mod.build_tx
    real_validate = ChainState.validate_tx

    def counting_signing_bytes(*args):
        counts["calls"] += 1
        return real_signing_bytes(*args)

    def counting_build_tx(*args, **kwargs):
        counts["allowed"] += 1
        return real_build_tx(*args, **kwargs)

    def counting_validate(self, tx):
        counts["allowed"] += 1
        return real_validate(self, tx)

    monkeypatch.setattr(tx_mod, "signing_bytes", counting_signing_bytes)
    monkeypatch.setattr(actors_mod, "build_tx", counting_build_tx)
    monkeypatch.setattr(ChainState, "validate_tx", counting_validate)
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]
    return counts["calls"], counts["allowed"], result.summary["medical_txs_pinned"]


def test_each_pinned_tx_is_encoded_once_not_each_append(monkeypatch):
    calls, allowed, pinned = count_tx_encodings(monkeypatch)
    assert pinned > 0
    # re-encoding the whole microblock on every append costs about half a
    # patient's history per append on top of this
    assert 0 < calls <= allowed
    assert count_tx_encodings(monkeypatch)[0] == calls


def count_microblock_hashes(monkeypatch):
    """Run the golden ``none`` scenario; return the ``microblock_hash``
    calls the chain state made (``chain_digest``'s are not counted), and
    the pinned keyblocks plus the microblocks created."""
    counts = {"calls": 0}
    real_microblock_hash = chain_mod.microblock_hash

    def counting_microblock_hash(block):
        counts["calls"] += 1
        return real_microblock_hash(block)

    monkeypatch.setattr(chain_mod, "microblock_hash", counting_microblock_hash)
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]
    allowed = result.summary["pinned_keyblocks"] + len(result.sim.chain.microblocks)
    return counts["calls"], allowed, result.summary["medical_txs_pinned"]


def test_each_microblock_is_hashed_once_per_height_not_each_append(monkeypatch):
    calls, allowed, pinned = count_microblock_hashes(monkeypatch)
    # hashing on every append would cost one call per pinned transaction
    assert allowed < pinned
    assert 0 < calls <= allowed
    assert count_microblock_hashes(monkeypatch)[0] == calls


def test_each_public_key_is_loaded_once(key_loads):
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]
    assert 0 < len(key_loads) == len(set(key_loads))
    # every other verify reuses a loaded key
    assert signing_mod._load_public_key.cache_info().hits > len(key_loads)


def test_each_round_takes_one_tip_view_plus_the_adversarys(monkeypatch):
    """The chain does not move while a round mines and chooses, so the
    honest miners and fork choice share one view; the adversary takes its
    own through ``mining_view``."""
    counts = {"views": 0}
    real_view = ChainState.view

    def counting_view(self):
        counts["views"] += 1
        return real_view(self)

    monkeypatch.setattr(ChainState, "view", counting_view)
    cfg = dataclasses.replace(BASE, rounds=30, adversary_type="selfish", adversary_power=0.3)
    result = run_scenario(cfg)
    assert result.summary["rejected_blocks"] > 0
    assert 0 < counts["views"] <= 2 * cfg.rounds


def test_a_selfish_run_takes_one_tip_view_per_round(monkeypatch):
    """The adversary's mining hook is handed the round's view of the tip."""
    counts = {"views": 0}
    real_view = ChainState.view

    def counting_view(self):
        counts["views"] += 1
        return real_view(self)

    monkeypatch.setattr(ChainState, "view", counting_view)
    cfg = dataclasses.replace(BASE, rounds=30, adversary_type="selfish", adversary_power=0.3)
    result = run_scenario(cfg)
    assert result.summary["rejected_blocks"] > 0
    assert counts["views"] == cfg.rounds


def test_pinned_patient_signatures_are_checked_by_the_worker(monkeypatch):
    claimed = []
    real_claim = signing_mod._Worker.claim

    def recording_claim(self, triple):
        verdict = real_claim(self, triple)
        if verdict is not None:
            claimed.append(triple)
        return verdict

    monkeypatch.setattr(signing_mod._Worker, "claim", recording_claim)
    signing_mod.stop_worker()
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]
    pinned = [tx for mb in result.sim.chain.microblocks.values() for tx in mb.txs]
    assert len(pinned) == result.summary["medical_txs_pinned"] > 0
    assert {(tx.body, tx.signature, tx.sender_pk) for tx in pinned} <= set(claimed)


# -- adversaries ------------------------------------------------------------------


def test_selfish_miner_earns_nothing():
    cfg = dataclasses.replace(BASE, rounds=30, adversary_type="selfish", adversary_power=0.3)
    result = run_scenario(cfg)
    assert result.summary["adversary_reward_share"] == 0.0
    assert result.summary["rejected_blocks"] > 0
    assert result.summary["pinned_conflicts"] == 0


def test_flash_attacker_never_joins_group():
    cfg = dataclasses.replace(
        BASE, rounds=30, adversary_type="flash", adversary_power=0.9,
        adversary_join_round=8,
    )
    result = run_scenario(cfg)
    assert result.summary["adversary_group_rounds"] == 0
    assert result.summary["rejected_blocks"] > 0
    assert all(rec.adversary_in_group == 0 for rec in result.records)


def test_flash_honest_mode_behaves_like_a_miner():
    cfg = dataclasses.replace(
        BASE, rounds=30, adversary_type="flash", adversary_power=0.4,
        adversary_join_round=0, adversary_strategy="honest",
    )
    result = run_scenario(cfg)
    assert result.summary["rejected_blocks"] == 0
    assert result.summary["adversary_detected_round"] == -1
    assert result.summary["adversary_reward_share"] > 0.0


def test_fraud_detection_excludes_permanently():
    cfg = dataclasses.replace(BASE, rounds=30, adversary_type="fraud", zombie_count=4)
    result = run_scenario(cfg)
    detected = result.summary["adversary_detected_round"]
    assert detected >= 1
    fraud_id = result.sim.adversary.miner_id
    assert result.sim.honest[fraud_id] is False
    for rnd, miner, _, _, combined in result.reputation_rows:
        if miner == fraud_id and rnd > detected:
            assert combined == 0.0
    for rec in result.records:
        if rec.round > detected:
            assert rec.adversary_in_group == 0


def test_inhibition_victim_still_served_quickly():
    cfg = dataclasses.replace(
        BASE, rounds=30, miner_count=4, group_size=4, adversary_type="inhibition",
    )
    result = run_scenario(cfg)
    assert result.sim.victim_latencies, "victim saw no traffic; scenario too small"
    assert max(result.sim.victim_latencies) < 3


# -- bench -----------------------------------------------------------------------


def test_bench_trends_small_matrix():
    cells = bench_throughput([1, 2], [3, 6], rounds=4, seed=11)
    by_block = {}
    for cell in cells:
        by_block.setdefault(cell.block_size_mb, []).append(cell)
    for block_size, row in by_block.items():
        row.sort(key=lambda c: c.group_size)
        tps = [c.microblock_tps for c in row]
        assert all(a >= b for a, b in zip(tps, tps[1:])), (block_size, tps)
    for gs in (3, 6):
        kb = [c.keyblock_tps for c in sorted(cells, key=lambda c: c.block_size_mb)
              if c.group_size == gs]
        assert kb[0] < kb[-1]
