import dataclasses
from collections import Counter

import pytest

from spchain.actors import EmrRecord, upload
from spchain import actors as actors_mod
from spchain import chain as chain_mod
from spchain import consensus as consensus_mod
from spchain import signing as signing_mod
from spchain import sim as sim_mod
from spchain import tx as tx_mod
from spchain.bench import bench_throughput
from spchain.blocks import (
    GENESIS_KEYBLOCK_HASH,
    TxCertificate,
    batch_vote_message,
    keyblock_hash,
    merkle_root,
)
from spchain.chain import LABEL_TARGET_MISSING, OK, ChainState
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


@pytest.mark.parametrize("forgery", ["fresh id", "flipped signature"])
def test_a_forged_register_copy_is_invalid_not_evidence(forgery):
    """A copy of an honest patient's pending register, refused for a reason
    other than ALREADY_REGISTERED, counts as invalid and does not frame the
    receiver, even when it sorts after the original."""
    sim = Simulation(BASE)
    sim._spawn_patients()
    original = sim.register_mempool[0]
    copy = dataclasses.replace(original, tx_id=b"\xff" * 32)
    reason = chain_mod.BAD_TX_ID
    if forgery == "flipped signature":
        signature = bytes([original.signature[0] ^ 1]) + original.signature[1:]
        copy = dataclasses.replace(copy, signature=signature)
        reason = chain_mod.BAD_SIGNATURE
    assert sim.chain.validate_tx(copy) == (False, reason)
    sim.register_mempool.append(copy)

    packed = sim._pack_registers()

    assert original in packed and copy not in packed
    assert sim.invalid_txs == 1
    assert sim.detected_round is None
    assert all(sim.honest.values())


def test_a_register_stays_pending_until_a_pinned_keyblock_carries_it():
    """A selfish miner's late block can land carrying an older register set
    than the round packed; every register it leaves out stays in the
    mempool, so each spawned patient is registered or pending."""
    cfg = ScenarioConfig(
        seed=2, rounds=6, miner_count=4, group_size=3, patient_count=200,
        patient_arrival_per_round=3, upload_rate=0.3, label_rate=0.0,
        adversary_type="selfish", adversary_power=0.9, adversary_withhold_rounds=1,
    )
    sim = Simulation(cfg)
    for _ in range(cfg.rounds):
        sim.run_round()
        pending = {tx.sender_pk for tx in sim.register_mempool}
        for patient_id, patient in sim.patients.items():
            assert patient_id in sim.chain.patients or patient.keypair.public_key in pending


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
    assert sim._pin_tx_batch(group, schedule_batch(sim.scheduler, {}), None) == 1
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
def test_a_label_behind_its_unpinned_target_in_one_batch_is_refused(adversary_type, monkeypatch):
    """The round decides its batch once, against the chain as it stood when
    the batch was scheduled, so a label whose target is earlier in the same
    batch is LABEL_TARGET_MISSING, whatever the target's outcome: pinned,
    or requeued when it misses quorum. The round votes once."""
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
    verdicts, votes = {}, []
    real_validate, real_batch_votes = ChainState.validate_tx, Simulation._batch_votes

    def validate_tx(self, tx):
        verdicts[tx.tx_id] = real_validate(self, tx)
        return verdicts[tx.tx_id]

    def batch_votes(self, group, subjects, accepts):
        votes.append(subjects)
        return real_batch_votes(self, group, subjects, accepts)

    monkeypatch.setattr(ChainState, "validate_tx", validate_tx)
    monkeypatch.setattr(Simulation, "_batch_votes", batch_votes)
    pinned = sim._pin_tx_batch(group, batch, None)

    assert verdicts == {m.tx_id: (True, OK), l.tx_id: (False, LABEL_TARGET_MISSING)}
    assert votes == [[m.tx_id]]
    assert sim.invalid_txs == invalid + 1
    assert sim.chain.store_accesses == accesses + 1  # scanned earlier only
    assert l.tx_id not in sim.submit_round
    txs = sim.chain.microblocks[patient.address].txs
    queue = list(sim.scheduler.queues[victim.address])
    if adversary_type == "none":
        assert pinned == 1
        assert txs == (earlier, m)
        assert queue == [later]
        assert m.tx_id not in sim.submit_round
    else:
        # the inhibitor's refusal leaves 2 of 3 equal weights: not > 2/3
        assert pinned == 0
        assert txs == (earlier,)
        assert queue == [m, later]  # m back at the head
        assert m.tx_id in sim.submit_round


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

    assert sim._pin_tx_batch(group, batch, None) == 1
    ref_batch = schedule_batch(reference.scheduler, {})
    assert reference._pin_tx_batch(ref_group, ref_batch, None) == 1

    assert sim.chain.microblocks[patient.address].txs == (earlier, fresh)
    assert sim.invalid_txs == invalid + 2
    assert sim.chain.medical_tx_count == reference.chain.medical_tx_count
    assert sim.total_rewards == reference.total_rewards
    assert sim.chain.medical_sums == reference.chain.medical_sums
    assert sim.chain.medical_counts == reference.chain.medical_counts


def test_a_keyblock_short_of_quorum_sinks_no_transaction(monkeypatch):
    """The keyblock and the batch share one vote, but each entry is tallied
    on its own: when one member of an equal-weight trio rejects entry 0,
    the keyblock misses quorum and the batch still pins, with no second
    vote."""
    sim, group, patient, earlier = one_patient_sim("none")
    dissenter = sim.miners[0].address
    real_batch_votes = Simulation._batch_votes
    votes = []

    def batch_votes(self, group, subjects, accepts):
        votes.append(subjects)

        def dissenting(miner_id):
            bits = accepts(miner_id)
            return [ok and (i > 0 or miner_id != dissenter) for i, ok in enumerate(bits)]

        return real_batch_votes(self, group, subjects, dissenting)

    monkeypatch.setattr(Simulation, "_batch_votes", batch_votes)
    block = sim._mine_round([])
    assert block is not None
    inst = sim.miners[1]
    fresh = visit(sim, patient, inst, b"fresh")
    sim.scheduler.enqueue(inst.address, fresh)
    batch = schedule_batch(sim.scheduler, {})
    tip, rewards = sim.chain.tip_height, dict(sim.kb_rewards)

    landed, voted = sim._pin_keyblock(group, block, batch)

    assert not landed
    assert sim.chain.tip_height == tip and sim.kb_rewards == rewards
    ((tx, cert),) = voted
    assert tx == fresh
    assert cert.index == 1 and len(cert.signers) == 3
    assert sim._pin_tx_batch(group, batch, voted) == 1
    assert sim.chain.microblocks[patient.address].txs == (earlier, fresh)
    assert votes == [[keyblock_hash(block), fresh.tx_id]]


def test_a_round_pins_its_keyblock_and_transactions_under_one_root(monkeypatch):
    """On the golden ``none`` scenario, every round that pins both a
    keyblock and transactions pins them under one signed batch root, with
    the keyblock at entry 0."""
    keyblock_roots: dict[int, bytes] = {}
    tx_roots: dict[int, set[bytes]] = {}
    real_add, real_append = ChainState.add_pinned_keyblock, ChainState.append_to_microblock

    def add_pinned_keyblock(self, block, group):
        real_add(self, block, group)
        assert block.pin_cert.index == 0
        keyblock_roots[self.current_round] = block.pin_cert.batch_root

    def append_to_microblock(self, patient_id, tx, cert, group):
        tx_roots.setdefault(self.current_round, set()).add(cert.batch_root)
        return real_append(self, patient_id, tx, cert, group)

    monkeypatch.setattr(ChainState, "add_pinned_keyblock", add_pinned_keyblock)
    monkeypatch.setattr(ChainState, "append_to_microblock", append_to_microblock)
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]

    both = keyblock_roots.keys() & tx_roots.keys()
    assert len(both) > GOLDEN_BASE.rounds // 2
    for round_number in both:
        assert tx_roots[round_number] == {keyblock_roots[round_number]}


def count_vote_signatures(monkeypatch):
    """Run the golden ``none`` scenario; return the vote signatures made,
    and how many the group makes when it votes once per round on the
    keyblock and the batch: group size times the rounds that mined a
    keyblock or decided a valid transaction."""
    counts = {"signs": 0, "allowed": 0, "mined": False}
    real_sign, real_decide = sim_mod.sign, Simulation._decide_batch
    real_mine_round = Simulation._mine_round

    def counting_sign(msg, keypair):
        counts["signs"] += 1
        return real_sign(msg, keypair)

    def counting_mine_round(self, registers):
        block = real_mine_round(self, registers)
        counts["mined"] = block is not None
        return block

    def counting_decide(self, batch):
        # each round decides its batch once, after mining
        valid = real_decide(self, batch)
        counts["allowed"] += GOLDEN_BASE.group_size * (counts["mined"] or bool(valid))
        return valid

    monkeypatch.setattr(sim_mod, "sign", counting_sign)
    monkeypatch.setattr(Simulation, "_decide_batch", counting_decide)
    monkeypatch.setattr(Simulation, "_mine_round", counting_mine_round)
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]
    return counts["signs"], counts["allowed"], result.summary["medical_txs_pinned"]


def test_group_signs_each_batch_once_not_each_tx(monkeypatch):
    record = record_vote_checks(monkeypatch)
    signs, allowed, pinned = count_vote_signatures(monkeypatch)
    assert 0 < signs == allowed
    # the group's epoch is the round number
    assert max(Counter(group.epoch for group, _, _ in record["votes"]).values()) == 1
    # per-transaction voting would sign every pinned transaction
    assert signs < GOLDEN_BASE.group_size * pinned
    assert count_vote_signatures(monkeypatch)[0] == signs


def record_vote_checks(monkeypatch):
    """Record, in this process, each vote's triples as cast and as sent
    ahead, every vote check ``pin_batch`` makes, and how each check was
    answered: inline (a triple taken from the worker's queue counts here
    too, and is also listed with its verdict under ``stolen``), or by a
    verdict from the worker, claimed."""
    record = {
        "votes": [], "ahead": None, "checks": [], "inline": [], "stolen": [], "claimed": [],
        "stealing": False, "answered": set(),
    }
    real_batch_votes, real_ahead = Simulation._batch_votes, sim_mod.verify_ahead
    real_check, real_inline = consensus_mod.verify_sig, signing_mod._verify_inline
    real_claim, real_steal = signing_mod._Worker.claim, signing_mod._Worker._steal
    real_receive = signing_mod._Worker._receive

    def batch_votes(self, group, subjects, accepts):
        record["ahead"] = []
        votes = real_batch_votes(self, group, subjects, accepts)
        root = merkle_root(subjects)
        cast = [
            (batch_vote_message(group.epoch, root, bitmap), signature, group.member(mid).public_key)
            for mid, bitmap, signature in votes
        ]
        record["votes"].append((group, cast, record["ahead"]))
        record["ahead"] = None
        return votes

    def verify_ahead(triples):
        if record["ahead"] is not None:
            record["ahead"].extend(triples)
        real_ahead(triples)

    def check(*triple):
        record["checks"].append(triple)
        return real_check(*triple)

    def inline(*triple):
        record["inline"].append(triple)
        verdict = real_inline(*triple)
        if record["stealing"]:
            record["stolen"].append((triple, verdict))
        return verdict

    def steal(self):
        record["stealing"] = True
        try:
            return real_steal(self)
        finally:
            record["stealing"] = False

    def receive(self, wait=True):
        # the triples whose verdicts the worker's replies set
        pending = {t for t in self.in_flight if t in self.verdicts and self.verdicts[t] is None}
        real_receive(self, wait)
        record["answered"].update(t for t in pending if self.verdicts.get(t) is not None)

    def claim(self, triple):
        verdict = real_claim(self, triple)
        if triple in record["answered"]:
            record["answered"].discard(triple)
            record["claimed"].append((triple, verdict))
        return verdict

    monkeypatch.setattr(Simulation, "_batch_votes", batch_votes)
    monkeypatch.setattr(sim_mod, "verify_ahead", verify_ahead)
    monkeypatch.setattr(consensus_mod, "verify_sig", check)
    monkeypatch.setattr(signing_mod, "_verify_inline", inline)
    monkeypatch.setattr(signing_mod._Worker, "_steal", steal)
    monkeypatch.setattr(signing_mod._Worker, "_receive", receive)
    monkeypatch.setattr(signing_mod._Worker, "claim", claim)
    return record


def test_every_vote_goes_ahead_as_signed_and_each_is_verified_once(monkeypatch):
    record = record_vote_checks(monkeypatch)
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]

    assert len(record["votes"]) >= GOLDEN_BASE.rounds
    for group, cast, ahead in record["votes"]:
        assert len(cast) == len(group.members)
        # every vote, as signed
        assert ahead == cast
    cast = Counter(t for _, votes, _ in record["votes"] for t in votes)
    assert Counter(record["checks"]) == cast
    # each vote is answered once: by one inline verify in this process, or
    # by one worker verdict, claimed
    inline = Counter(t for t in record["inline"] if t in cast)
    claimed = Counter(t for t, _ in record["claimed"] if t in cast)
    assert inline + claimed == cast
    # and every inline verify of a vote took it from the worker's queue
    stolen = Counter(t for t, _ in record["stolen"] if t in cast)
    assert stolen == inline


def test_a_forged_vote_judged_by_the_worker_counts_for_nothing(monkeypatch):
    """One member's votes carry 64 zero bytes for a signature. Each is
    ignored, and no certificate lists the member, although every such
    vote went to the worker and got its verdict there or was taken back
    and verified inline: each one's verdict is False either way."""
    cfg = dataclasses.replace(GOLDEN_BASE, **GOLDEN["inhibition"][0])
    sim = Simulation(cfg)
    forger = sim.miners[2]
    real_sign = sim_mod.sign

    def sign(message, keypair):
        if keypair is forger.keypair:
            return bytes(64)
        return real_sign(message, keypair)

    tallies = []
    real_pin_batch = sim_mod.pin_batch

    def pin_batch(subjects, votes, group):
        tally = real_pin_batch(subjects, votes, group)
        tallies.append((group, tally))
        return tally

    monkeypatch.setattr(sim_mod, "sign", sign)
    monkeypatch.setattr(sim_mod, "pin_batch", pin_batch)
    record = record_vote_checks(monkeypatch)
    for _ in range(cfg.rounds):
        sim.run_round()

    voted = [(g, t) for g, t in tallies if g.member(forger.address) is not None]
    assert voted
    certificates = 0
    for group, tally in voted:
        assert forger.address in tally.ignored
        for outcome in tally.outcomes:
            if isinstance(outcome, TxCertificate):
                certificates += 1
                assert forger.address not in {v.signer_id for v in outcome.signers}
    assert certificates > 0
    cast = [t for _, votes, _ in record["votes"] for t in votes if t[1] == bytes(64)]
    stolen = [verdict for triple, verdict in record["stolen"] if triple[1] == bytes(64)]
    claimed = [verdict for triple, verdict in record["claimed"] if triple[1] == bytes(64)]
    assert 0 < len(voted) == len(cast) == len(stolen) + len(claimed)
    assert not any(stolen + claimed)


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


def test_each_public_key_is_loaded_once(key_loads, monkeypatch):
    """Counted in this process: the worker verifies with its own key
    cache."""
    calls = {"inline": 0}
    real_verify = signing_mod._verify_inline

    def counting_verify(*triple):
        calls["inline"] += 1
        return real_verify(*triple)

    monkeypatch.setattr(signing_mod, "_verify_inline", counting_verify)
    result = run_scenario(GOLDEN_BASE)
    assert result.summary["chain_digest"] == GOLDEN["none"][1]
    assert 0 < len(key_loads) == len(set(key_loads))
    # every other inline verify reuses a loaded key
    hits = signing_mod._load_public_key.cache_info().hits
    assert 0 < hits == calls["inline"] - len(key_loads)


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
