import dataclasses

import pytest

from spchain.bench import bench_throughput
from spchain.blocks import GENESIS_KEYBLOCK_HASH, keyblock_hash
from spchain.metrics import CSV_HEADER_COMMENT, metrics_csv_text, reputation_csv_text
from spchain.mining import check_puzzle
from spchain.sim import WEIGHT_FLOOR, Simulation, run_scenario
from spchain.simconfig import ConfigError, ScenarioConfig, parse_config_text


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
    a = run_scenario(BASE)
    for shuffle_seed in (1, 77, 123456):
        b = run_scenario(dataclasses.replace(BASE, delivery_shuffle_seed=shuffle_seed))
        assert b.summary["chain_digest"] == a.summary["chain_digest"]
        assert metrics_csv_text(b.records) == metrics_csv_text(a.records)


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
        prev = keyblock_hash(kb, sim.group_params)


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
