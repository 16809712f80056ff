"""Deterministic round-based network simulator.

One round models one keyblock interval: traffic is generated, miners race
the puzzle with attempt budgets proportional to their power share, and a
fair batch of medical/label transactions is drained from the queues. The
consensus group then votes once on the round: entry 0 of the voted batch
is the winning keyblock's hash, and the other entries are the batch's
transactions, decided against the chain as it stood when the batch was
scheduled. Each entry is tallied on its own. The keyblock lands first,
with the patients it registers, then the batch's pinned transactions. A
round that mines no keyblock votes on its batch alone.

Determinism: a single seeded RNG drives every random choice in a fixed
order, and same-round transaction delivery is canonically reordered by
transaction id before queueing, so arrival permutations cannot change the
pinned history.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass
from typing import Optional

from .actors import (
    EmrRecord,
    InstitutionActor,
    PatientActor,
    label as make_label,
    register as make_register,
    setup_institution,
    setup_patient,
    upload as make_upload,
)
from .adversaries import make_adversary
from .blocks import (
    KeyBlock,
    MicroBlock,
    TxCertificate,
    accept_bitmap,
    batch_vote_message,
    institution_root,
    keyblock_hash,
    merkle_root,
    microblock_hash,
    update_institution_root,
)
from .chain import ALREADY_REGISTERED, ChainState
from .consensus import ConsensusGroup, InsufficientQuorum, pin_batch, select_group
from .metrics import MetricsRecord
from .mining import ForkChoice, fork_choice, mine_keyblock, target_from_zero_bits
from .reputation import (
    CHUNK_SIZE,
    REP_A,
    REP_LAMBDA,
    ChunkStats,
    combine_reputation,
    compute_r1,
    compute_r2,
)
from .rewards import FeeSchedule, distribute_rewards
from .scheduler import SchedulerState, schedule_batch
from .signing import sign, verify_ahead
from .simconfig import ScenarioConfig
from .tx import Transaction, TxType


class InvariantViolation(Exception):
    """A safety property the simulator must uphold was broken."""


# floor applied to consensus weights so the strict >2/3 weight quorum is
# meaningful before any reputation has accrued (all-zero weights could
# never be exceeded)
WEIGHT_FLOOR = 0.01

# simulated group agreement time for a batch: a fixed round cost plus one
# verification per pinned transaction, per member
BFT_BASE_S = 0.05
PER_TX_VERIFY_S = 0.01


@dataclass
class SimulationResult:
    config: ScenarioConfig
    records: list[MetricsRecord]
    reputation_rows: list[tuple[int, str, float, float, float]]
    summary: dict
    sim: "Simulation"


class Simulation:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.rng = random.Random(config.seed)
        self.chain = ChainState()
        self.fees = FeeSchedule()
        self.target = target_from_zero_bits(config.target_zero_bits)

        self.adversary = make_adversary(config)
        self.miners: list[InstitutionActor] = [
            setup_institution(b"miner/%d" % i) for i in range(config.miner_count)
        ]
        self.adv_miner: Optional[InstitutionActor] = None
        if self.adversary.joins_as_miner:
            self.adv_miner = setup_institution(b"miner/adversary")
            self.adversary.miner_id = self.adv_miner.address
        elif self.adversary.kind != "none":
            # fraud and inhibition corrupt an existing institution
            self.adversary.miner_id = self.miners[-1].address
            if self.adversary.kind == "inhibition":
                self.adversary.victim_id = self.miners[0].address

        self.institutions: dict[str, InstitutionActor] = {}
        for actor in self.miners + ([self.adv_miner] if self.adv_miner else []):
            self.institutions[actor.address] = actor
            self.chain.register_institution(actor.chain_info())

        self.honest: dict[str, bool] = {mid: True for mid in self.institutions}
        self.kb_rewards: dict[str, float] = {mid: 0.0 for mid in self.institutions}
        self.total_rewards: dict[str, float] = {mid: 0.0 for mid in self.institutions}

        self.patients: dict[str, PatientActor] = {}
        self._spawned = 0

        self.register_mempool: list[Transaction] = []
        self.scheduler = SchedulerState(
            queues={}, batch_cap=min(config.batch_cap, config.keyblock_capacity)
        )
        self.submit_round: dict[bytes, int] = {}

        self.round_number = 0
        self.metrics: list[MetricsRecord] = []
        self.reputation_rows: list[tuple[int, str, float, float, float]] = []
        self.rejected_blocks = 0
        self.pinned_conflicts = 0
        self.invalid_txs = 0
        self.max_pin_latency = 0
        self.victim_latencies: list[int] = []
        self.adversary_group_rounds = 0
        self.detected_round: Optional[int] = None
        self.fraud_fees_paid = 0.0

    @property
    def total_medical_txs(self) -> int:
        return self.chain.medical_tx_count

    # -- helpers ----------------------------------------------------------

    def active_miner_ids(self) -> list[str]:
        ids = [m.address for m in self.miners]
        if self.adv_miner is not None and self.adversary.active(self.round_number):
            ids.append(self.adv_miner.address)
        return ids

    def power_shares(self) -> dict[str, float]:
        base = self.config.power_shares or tuple(
            1.0 / self.config.miner_count for _ in range(self.config.miner_count)
        )
        shares = {m.address: base[i] for i, m in enumerate(self.miners)}
        if self.adv_miner is not None and self.adversary.active(self.round_number):
            p = self.config.adversary_power
            shares = {mid: s * (1.0 - p) for mid, s in shares.items()}
            shares[self.adv_miner.address] = p
        return shares

    def _mark_dishonest(self, miner_id: str) -> None:
        if self.honest.get(miner_id, True):
            self.honest[miner_id] = False
            if self.detected_round is None:
                self.detected_round = self.round_number

    def reputation_of(self, miner_id: str) -> tuple[float, float, float]:
        honest = self.honest[miner_id]
        chain_length = self.chain.tip_height
        r1 = compute_r1(self.chain.keyblocks_mined[miner_id], chain_length, honest)
        n_micro = len(self.chain.microblocks)
        if chain_length == 0 or n_micro == 0 or self.total_medical_txs == 0:
            r2 = 0.0
        else:
            stats = ChunkStats(
                tr=self.chain.register_sums[miner_id],
                tml=self.chain.medical_sums[miner_id],
                chunk_count=self.chain.chunk_count,
                chunk_size=CHUNK_SIZE,
                chain_length=chain_length,
                microblock_count=n_micro,
                tx_count=self.total_medical_txs,
            )
            r2 = compute_r2(stats, honest, REP_A, REP_LAMBDA)
        return r1, r2, combine_reputation(r1, r2)

    def current_group(self, reputations: dict[str, float]) -> ConsensusGroup:
        size = min(self.config.group_size, len(reputations))
        public_keys = {
            mid: self.institutions[mid].keypair.public_key for mid in reputations
        }
        # detected misbehavers keep their zero score; the floor is a
        # bootstrap for honest miners only
        floored = {
            mid: max(rep, WEIGHT_FLOOR) if self.honest[mid] else 0.0
            for mid, rep in reputations.items()
        }
        return select_group(floored, size, public_keys, epoch=self.round_number)

    # -- traffic ------------------------------------------------------------

    def _spawn_patients(self) -> None:
        cfg = self.config
        arrivals = min(cfg.patient_arrival_per_round, cfg.patient_count - self._spawned)
        for _ in range(arrivals):
            idx = self._spawned
            self._spawned += 1
            patient = setup_patient(b"patient/%d" % idx)
            home = self.miners[self.rng.randrange(len(self.miners))]
            self.patients[patient.address] = patient
            tx = make_register(patient, home, b"identity/%d" % idx, fee=self.fees.register_fee)
            self.register_mempool.append(tx)
        for seed, identity in self.adversary.zombie_register_seeds(self.round_number):
            fraud_inst = self.institutions[self.adversary.miner_id]
            zombie = setup_patient(seed)
            self.patients[zombie.address] = zombie
            tx = make_register(zombie, fraud_inst, identity, fee=self.fees.register_fee)
            self.register_mempool.append(tx)
            self.fraud_fees_paid += self.fees.register_fee

    def _generate_traffic(self) -> None:
        cfg = self.config
        staged: list[Transaction] = []

        def stage(tx: Transaction) -> None:
            # the signature goes to the verify worker as soon as it exists;
            # validate_tx collects the verdict, or makes the check itself if
            # the worker has not started it
            staged.append(tx)
            verify_ahead([(tx.body, tx.signature, tx.sender_pk)])

        for patient_id in sorted(self.patients):
            patient = self.patients[patient_id]
            if patient_id not in self.chain.patients:
                continue
            # labels target pinned medical records, so any pinned
            # transaction means the patient has a medical record
            txs = self.chain.microblocks[patient_id].txs
            if self.rng.random() < cfg.upload_rate:
                if txs:
                    inst = self.miners[self.rng.randrange(len(self.miners))]
                else:
                    inst = self.institutions[self.chain.patients[patient_id].home_institution_id]
                record = EmrRecord(
                    plaintext=self.rng.randbytes(cfg.emr_size_bytes),
                    institution_id=inst.address,
                    patient_id=patient_id,
                    creation_round=self.round_number,
                )
                stage(make_upload(patient, inst, record, self.chain, fee=self.fees.tx_fee))
            if txs and self.rng.random() < cfg.label_rate:
                target = next(tx for tx in reversed(txs) if tx.tx_type is TxType.MEDICAL)
                inst = self.institutions[target.payload.receiver_id]
                corrected = EmrRecord(
                    plaintext=self.rng.randbytes(cfg.emr_size_bytes),
                    institution_id=inst.address,
                    patient_id=patient_id,
                    creation_round=self.round_number,
                )
                stage(
                    make_label(
                        patient, inst, target.tx_id, corrected, self.chain, fee=self.fees.tx_fee
                    )
                )
        # arrival order is arbitrary in a real network; members canonically
        # reorder an interval's submissions by id, which makes the pinned
        # history independent of the delivery permutation
        staged.sort(key=lambda tx: tx.tx_id)
        for tx in staged:
            self.scheduler.enqueue(tx.payload.receiver_id, tx)
            self.submit_round[tx.tx_id] = self.round_number

    def _pack_registers(self) -> list[Transaction]:
        """The valid registers for this round's keyblock, up to its capacity.
        Each stays in the mempool until a pinned keyblock carries it."""
        packed: list[Transaction] = []
        pending: list[Transaction] = []
        seen_digests: set[bytes] = set()
        for tx in sorted(self.register_mempool, key=lambda t: t.tx_id):
            ok, reason = self.chain.validate_tx(tx)
            if not ok and reason != ALREADY_REGISTERED:
                # a forged or malformed copy is no evidence against anyone
                self.invalid_txs += 1
                continue
            if not ok or tx.payload.identity_digest in seen_digests:
                pid = self.chain.patient_id_for(tx.sender_pk)
                if pid is not None and self.chain.patients[pid].identity_digest == (
                    tx.payload.identity_digest
                ):
                    continue  # benign replay of an already-pinned registration
                # the receiver certified the identity material behind this
                # digest once already; presenting it under a fresh keypair
                # is fabrication
                self._mark_dishonest(tx.payload.receiver_id)
                continue
            pending.append(tx)
            if len(packed) < self.config.keyblock_capacity:
                packed.append(tx)
                seen_digests.add(tx.payload.identity_digest)
        self.register_mempool = pending
        return packed

    # -- mining and pinning ---------------------------------------------------

    def _mine_round(self, registers: list[Transaction]):
        shares = self.power_shares()
        # eight times the expected attempts per solution, split by power
        attempts_total = 8 << self.config.target_zero_bits
        # the chain does not change until the winner is pinned, so the
        # miners, the adversary's hook and every fork choice share one view
        # of its tip
        tip = self.chain.view()
        candidates = []  # (virtual_time, miner_id, block)
        adversary_blocks = []  # published out-of-band this round
        for miner_id in self.active_miner_ids():
            share = shares[miner_id]
            if share <= 0:
                continue
            is_adv = miner_id == self.adversary.miner_id
            view = self.adversary.mining_view(tip, self.chain) if is_adv else tip
            if view is None:
                continue
            budget = max(1, int(attempts_total * share + 0.5))
            block_registers = registers if view.tip_hash == tip.tip_hash else []
            result = mine_keyblock(
                view,
                block_registers,
                self.institutions[miner_id].keypair,
                self.target,
                budget,
                self.rng,
            )
            if result.block is None:
                continue
            if is_adv:
                published = self.adversary.on_solution(self.round_number, result.block)
                if published is None:
                    continue
                if published.prev_keyblock_hash != tip.tip_hash:
                    adversary_blocks.append(published)
                    continue
            candidates.append((result.attempts / share, miner_id, result.block))

        adversary_blocks.extend(self.adversary.due_publications(self.round_number))
        for block in adversary_blocks:
            verdict = fork_choice(tip, block)
            if verdict is ForkChoice.REJECT:
                self.rejected_blocks += 1
                self._mark_dishonest(self.adversary.miner_id)
            elif verdict is ForkChoice.ACCEPT:
                # a late release that still extends the tip competes normally
                if shares.get(self.adversary.miner_id, 0.0) > 0:
                    candidates.append((float("inf"), self.adversary.miner_id, block))

        candidates.sort(key=lambda entry: (entry[0], entry[1]))
        for _, miner_id, block in candidates:
            if fork_choice(tip, block) is ForkChoice.ACCEPT:
                return block
        return None

    def _pin_keyblock(
        self, group: ConsensusGroup, block: KeyBlock, batch: list[Transaction]
    ) -> tuple[bool, list[tuple[Transaction, TxCertificate | InsufficientQuorum]]]:
        """Vote once on ``block`` and ``batch``: entry 0 is the keyblock's
        hash, and the rest are the batch's transactions, decided against the
        chain before ``block`` lands. Entries are tallied apart, so ``block``
        lands if entry 0 reaches quorum, whatever the transactions'
        outcomes. Returns whether it landed, and the transactions paired
        with their outcomes."""
        txs = self._decide_batch(batch)
        outcome, *tx_outcomes = self._vote(group, [keyblock_hash(block)], txs)
        voted = list(zip(txs, tx_outcomes))
        if isinstance(outcome, InsufficientQuorum):
            return False, voted
        if self.chain.tip_height >= block.height:
            self.pinned_conflicts += 1
            raise InvariantViolation(
                f"second certificate at height {block.height}: pinned history forked"
            )
        pinned = dataclasses.replace(block, pin_cert=outcome)
        self.chain.add_pinned_keyblock(pinned, group)
        for miner, amount in distribute_rewards(pinned, self.fees, group).items():
            self.kb_rewards[miner] = self.kb_rewards.get(miner, 0.0) + amount
            self.total_rewards[miner] = self.total_rewards.get(miner, 0.0) + amount

        creator = max(group.members, key=lambda m: (m.weight, m.miner_id)).miner_id
        for tx in pinned.register_txs:
            info = self.chain.register_patient(tx)
            inst = self.institutions[tx.payload.receiver_id]
            root = institution_root([inst.info_leaf], inst.ch_keys.hk, inst.rng)
            self.chain.create_microblock(
                MicroBlock(
                    owner_patient_id=info.patient_id,
                    institution_root=root,
                    txs=(),
                    creator_miner_id=creator,
                    round_number=self.round_number,
                    prev_hash=self.chain.last_microblock_hash(pinned.height),
                )
            )
        pinned_ids = {tx.tx_id for tx in pinned.register_txs}
        if pinned_ids:
            self.register_mempool = [
                tx for tx in self.register_mempool if tx.tx_id not in pinned_ids
            ]
        return True, voted

    def _pin_tx_batch(
        self,
        group: ConsensusGroup,
        batch: list[Transaction],
        voted: Optional[list[tuple[Transaction, TxCertificate | InsufficientQuorum]]],
    ) -> int:
        """Land ``voted``, the transactions of ``batch`` with their outcomes;
        ``None`` when no keyblock vote covered ``batch``, which is then
        decided and voted on here. Returns how many were pinned."""
        if voted is None:
            txs = self._decide_batch(batch)
            voted = list(zip(txs, self._vote(group, [], txs))) if txs else []
        pinned_count = 0
        requeue: dict[str, list[Transaction]] = {}
        for tx, outcome in voted:
            if isinstance(outcome, InsufficientQuorum):
                # back to the head of its queue (FIFO preserved); retried
                # next interval
                requeue.setdefault(tx.payload.receiver_id, []).append(tx)
                continue
            self._append_pinned(group, tx, outcome)
            pinned_count += 1
        for receiver_id, txs in requeue.items():
            self.scheduler.queues[receiver_id].extendleft(reversed(txs))
        return pinned_count

    def _decide_batch(self, batch: list[Transaction]) -> list[Transaction]:
        """The valid transactions of ``batch``, in order, each validated
        against the chain as it stands. A repeat of an id decided earlier in
        the batch is invalid; the first copy keeps its submit round."""
        valid: list[Transaction] = []
        decided: set[bytes] = set()
        for tx in batch:
            if tx.tx_id in decided:
                self.invalid_txs += 1
                continue
            decided.add(tx.tx_id)
            ok, reason = self.chain.validate_tx(tx)
            if not ok:
                self.invalid_txs += 1
                self.submit_round.pop(tx.tx_id, None)
                continue
            valid.append(tx)
        return valid

    def _vote(self, group: ConsensusGroup, head: list[bytes], txs: list[Transaction]):
        """The tally of the round's one vote on ``head``, a keyblock hash or
        nothing, followed by ``txs``: each entry's certificate or shortfall,
        in that order. Every member accepts the head."""
        adversary = self.adversary

        def accepts(miner_id: str) -> list[bool]:
            return [True] * len(head) + [
                miner_id != adversary.miner_id or adversary.votes_for_tx(tx) for tx in txs
            ]

        subjects = head + [tx.tx_id for tx in txs]
        return pin_batch(subjects, self._batch_votes(group, subjects, accepts), group).outcomes

    def _batch_votes(self, group: ConsensusGroup, subjects: list[bytes], accepts):
        """Each member signs the batch's Merkle root and its accept bitmap,
        ``accepts(miner_id)``, once. Each vote goes to the verify worker
        as it is signed; ``pin_batch`` claims the verdicts, and checks
        inline any vote the worker has not started."""
        root = merkle_root(subjects)
        votes = []
        for m in group.members:
            bitmap = accept_bitmap(accepts(m.miner_id))
            message = batch_vote_message(group.epoch, root, bitmap)
            signature = sign(message, self.institutions[m.miner_id].keypair)
            verify_ahead([(message, signature, m.public_key)])
            votes.append((m.miner_id, bitmap, signature))
        return votes

    def _append_pinned(self, group: ConsensusGroup, tx: Transaction, cert: TxCertificate) -> None:
        patient_id = self.chain.patient_id_for(tx.sender_pk)
        receiver = tx.payload.receiver_id
        certified = self.chain.certified_institutions(patient_id)
        if receiver not in certified:
            # first record at this institution: extend the certified set
            # under the same root via a trapdoor collision at the home
            # institution, so the stored root never changes; the append
            # below adds the receiver to the chain's certified set
            leaves = [self.institutions[i].info_leaf for i in (*certified, receiver)]
            home = self.institutions[self.chain.patients[patient_id].home_institution_id]
            current = self.chain.microblocks[patient_id]
            new_root = update_institution_root(
                current.institution_root, leaves, home.ch_keys.hk, home.ch_keys.tk
            )
            self.chain.replace_microblock(
                dataclasses.replace(current, institution_root=new_root)
            )
        self.chain.append_to_microblock(patient_id, tx, cert, group)

        microblock = self.chain.microblocks[patient_id]
        for miner, amount in distribute_rewards(
            microblock, self.fees, group, pin_cert=cert, batch_txs=[tx]
        ).items():
            self.total_rewards[miner] = self.total_rewards.get(miner, 0.0) + amount

        latency = self.round_number - self.submit_round.pop(tx.tx_id, self.round_number)
        self.max_pin_latency = max(self.max_pin_latency, latency)
        if receiver == self.adversary.victim_id:
            self.victim_latencies.append(latency)

    # -- round loop ------------------------------------------------------------

    def run_round(self) -> MetricsRecord:
        cfg = self.config
        self.round_number += 1
        self.chain.current_round = self.round_number

        reputations = {}
        for miner_id in self.active_miner_ids():
            r1, r2, combined = self.reputation_of(miner_id)
            reputations[miner_id] = combined
            self.reputation_rows.append((self.round_number, miner_id, r1, r2, combined))
        group = self.current_group(reputations)
        adv_in_group = int(group.member(self.adversary.miner_id) is not None)
        self.adversary_group_rounds += adv_in_group

        self._spawn_patients()
        self._generate_traffic()

        block = self._mine_round(self._pack_registers())
        batch = schedule_batch(self.scheduler, reputations)
        landed, voted = False, None
        if block is not None:
            landed, voted = self._pin_keyblock(group, block, batch)
        keyblock_pinned = int(landed)
        registers_pinned = len(block.register_txs) if landed else 0
        micro_pinned = self._pin_tx_batch(group, batch, voted)

        kb_tps = registers_pinned / cfg.kb_interval_s
        if micro_pinned > 0:
            bft_time = group.size * (BFT_BASE_S + micro_pinned * PER_TX_VERIFY_S)
            micro_tps = micro_pinned / bft_time
        else:
            micro_tps = 0.0

        stalled = sum(
            1
            for tx_id, submitted in self.submit_round.items()
            if self.round_number - submitted > 2
        )
        record = MetricsRecord(
            round=self.round_number,
            keyblock_pinned=keyblock_pinned,
            registers_pinned=registers_pinned,
            micro_txs_pinned=micro_pinned,
            keyblock_tps=kb_tps,
            microblock_tps=micro_tps,
            pinned_conflicts=self.pinned_conflicts,
            rejected_blocks=self.rejected_blocks,
            adversary_in_group=adv_in_group,
            adversary_reward_share=self.adversary_reward_share(),
            max_pin_latency=self.max_pin_latency,
            stalled_txs=stalled,
        )
        self.metrics.append(record)
        return record

    def adversary_reward_share(self) -> float:
        if self.adversary.miner_id is None:
            return 0.0
        if self.adversary.joins_as_miner:
            pool, earned = self.kb_rewards, self.kb_rewards.get(self.adversary.miner_id, 0.0)
        else:
            pool, earned = self.total_rewards, self.total_rewards.get(
                self.adversary.miner_id, 0.0
            )
        total = sum(pool.values())
        return earned / total if total > 0 else 0.0

    def chain_digest(self) -> str:
        """Content hash over the pinned history; equal digests mean equal
        pinned keyblocks and microblocks."""
        h = hashlib.sha256()
        for kb in self.chain.pinned_keyblocks:
            h.update(keyblock_hash(kb))
        for patient_id in sorted(self.chain.microblocks):
            h.update(microblock_hash(self.chain.microblocks[patient_id]))
        return h.hexdigest()

    def summary(self) -> dict:
        total_kb = sum(self.kb_rewards.values())
        return {
            "rounds": self.round_number,
            "pinned_keyblocks": len(self.chain.pinned_keyblocks),
            "patients_registered": len(self.chain.patients),
            "medical_txs_pinned": self.total_medical_txs,
            "pinned_conflicts": self.pinned_conflicts,
            "rejected_blocks": self.rejected_blocks,
            "invalid_txs": self.invalid_txs,
            "max_pin_latency": self.max_pin_latency,
            "victim_max_latency": max(self.victim_latencies, default=0),
            "adversary_type": self.config.adversary_type,
            "adversary_reward_share": self.adversary_reward_share(),
            "adversary_group_rounds": self.adversary_group_rounds,
            "adversary_detected_round": -1 if self.detected_round is None else self.detected_round,
            "fraud_fees_paid": self.fraud_fees_paid,
            "mining_rewards_total": total_kb,
            "store_accesses": self.chain.store_accesses,
            "chain_digest": self.chain_digest(),
        }


def run_scenario(config: ScenarioConfig) -> SimulationResult:
    sim = Simulation(config)
    for _ in range(config.rounds):
        sim.run_round()
    return SimulationResult(
        config=config,
        records=sim.metrics,
        reputation_rows=sim.reputation_rows,
        summary=sim.summary(),
        sim=sim,
    )
