"""One workload run: build the scenario from the seed, drive its rounds, time
them, read every patient's history after each round, and check the outputs.

One thread runs the rounds back to back, so the load is a closed loop in
wall time; traffic inside a round is open-loop in simulated
time (independent patients make seeded Bernoulli draws). All delivery is
in-process with zero message delay, so every latency here is processor time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, field

from spchain import actors
from spchain.metrics import metrics_csv_text, reputation_csv_text, summary_text
from spchain.sim import Simulation
from spchain.simconfig import ScenarioConfig
from spchain.tx import TxType

HERE = os.path.dirname(os.path.abspath(__file__))

# drain rounds allowed after the traffic stops; every submitted transaction
# must be pinned by then or it counts as failed
MAX_DRAIN_ROUNDS = 20

# percentiles a tail may be reported at; the tail is the highest one with at
# least ten samples beyond it
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)


def load_spec() -> dict:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as handle:
        return json.load(handle)


def scenario(spec: dict, seed: int, rounds: int | None = None) -> ScenarioConfig:
    config = ScenarioConfig(seed=seed, rounds=rounds or spec["rounds"], **spec["config"])
    config.validate()
    return config


@dataclass
class Instance:
    """Timings and outputs of one replay of the scenario from a fresh
    Simulation. Every replay of one config does identical work."""

    # (start, end) wall clock of the Simulation build, of each round and of
    # the history reads after each round, in patient id order
    setup_span: tuple[float, float] = (0.0, 0.0)
    round_span: list[tuple[float, float]] = field(default_factory=list)
    read_span: list[list[tuple[float, float]]] = field(default_factory=list)
    # (round the transaction was submitted in, round it was pinned in)
    commits: list[tuple[int, int]] = field(default_factory=list)
    submitted: int = 0
    pinned: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    sim: Simulation | None = None

    @property
    def attempted(self) -> int:
        return self.submitted + sum(len(reads) for reads in self.read_span)

    @property
    def round_s(self) -> list[float]:
        """Wall time of each round."""
        return [end - start for start, end in self.round_span]


def _expected_history(txs) -> list[tuple[bytes, bytes]]:
    """(tx id, id of the newest label chained to it) for each entry."""
    newest = {}
    for tx in txs:
        if tx.tx_type is TxType.LABEL:
            newest[tx.payload.target_tx_hash] = tx
    out = []
    for tx in txs:
        current, seen = tx, {tx.tx_id}
        while current.tx_id in newest and newest[current.tx_id].tx_id not in seen:
            current = newest[current.tx_id]
            seen.add(current.tx_id)
        out.append((tx.tx_id, current.tx_id))
    return out


def run_instance(config: ScenarioConfig, tracer=None) -> Instance:
    """Run ``config.rounds`` rounds, each followed by one history read per
    registered patient, then drain rounds with traffic off until every
    submitted transaction is pinned.

    A transaction commits in the round its patient's microblock grows past
    it, found by comparing microblock lengths before and after each round.
    """
    inst = Instance()
    clock = time.perf_counter
    t0 = clock()
    sim = Simulation(config)
    inst.setup_span = (t0, clock())
    seen_len: dict[str, int] = {}
    drained = 0
    while sim.round_number < config.rounds or (sim.submit_round and drained < MAX_DRAIN_ROUNDS):
        if sim.round_number >= config.rounds:
            if not drained:
                sim.config = dataclasses.replace(sim.config, upload_rate=0.0, label_rate=0.0)
            drained += 1
        number = sim.round_number + 1
        if tracer is not None:
            tracer.current_round = number
        t0 = clock()
        sim.run_round()
        inst.round_span.append((t0, clock()))
        for patient_id, microblock in sim.chain.microblocks.items():
            before = seen_len.get(patient_id, 0)
            if len(microblock.txs) > before:
                for tx in microblock.txs[before:]:
                    inst.commits.append((tx.payload.round_number, number))
                seen_len[patient_id] = len(microblock.txs)
        reads = []
        for patient_id in sorted(sim.chain.microblocks):
            t0 = clock()
            history = actors.retrieve_history(patient_id, sim.chain)
            reads.append((t0, clock()))
            if len(history) != seen_len.get(patient_id, 0):
                inst.failed += 1
                inst.problems.append(f"round {number}: history of {patient_id} has wrong length")
        inst.read_span.append(reads)
    for patient_id in sorted(sim.chain.microblocks):
        history = actors.retrieve_history(patient_id, sim.chain)
        got = [(d.tx.tx_id, d.current.tx_id) for d in history]
        if got != _expected_history(sim.chain.microblocks[patient_id].txs):
            inst.failed += 1
            inst.problems.append(f"final history of {patient_id} resolves labels wrongly")

    unpinned = len(sim.submit_round)
    inst.pinned = sim.total_medical_txs
    inst.submitted = inst.pinned + unpinned + sim.invalid_txs
    inst.failed += unpinned + sim.invalid_txs
    if unpinned or sim.invalid_txs:
        inst.problems.append(f"{unpinned} transactions unpinned, {sim.invalid_txs} invalid")
    if len(inst.commits) != inst.pinned:
        inst.problems.append(f"saw {len(inst.commits)} commits, simulator pinned {inst.pinned}")
    inst.sim = sim
    return inst


def outputs_of(sim: Simulation) -> dict[str, str]:
    """chain_digest plus the sha256 of each output file's text."""

    def sha(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {
        "chain_digest": sim.chain_digest(),
        "metrics_csv": sha(metrics_csv_text(sim.metrics)),
        "reputation_csv": sha(reputation_csv_text(sim.reputation_rows)),
        "summary_txt": sha(summary_text(sim.summary())),
    }


def finish(inst: Instance) -> Instance:
    """Record the outputs and drop the simulation it was measured on."""
    inst.outputs = outputs_of(inst.sim)
    inst.sim = None
    return inst


def quantile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_pct(samples: int) -> float:
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if samples * (100.0 - pct) / 100.0 >= 10:
            best = pct
    return best


def wall_time(span: tuple[float, float]) -> float:
    return span[1] - span[0]


def per_step(instances: list[Instance], duration) -> tuple[list[float], list[list[float]]]:
    """Per round, and per read, the median across the replays of its
    ``duration``.

    Replays do identical work, so their times differ only by what the
    shared host did meanwhile. The median ignores a stall that hit fewer
    than half of the replays of a step.
    """
    rounds = [
        statistics.median(duration(span) for span in col)
        for col in zip(*(inst.round_span for inst in instances))
    ]
    reads = [
        [statistics.median(duration(span) for span in col) for col in zip(*per_round)]
        for per_round in zip(*(inst.read_span for inst in instances))
    ]
    return rounds, reads


def summarize(instances: list[Instance], setup_spans: list[tuple[float, float]], duration=wall_time) -> dict[str, dict]:
    """End-to-end metrics over the per-step timeline of one run, with each
    step's time given by ``duration`` of its (start, end) span.

    Commit latency runs on that timeline from the start of the submit round
    to the end of the pin round, counting the rounds and the history reads
    between them; the benchmark's own bookkeeping is not counted. Each
    entry has ``value`` and ``unit``; tails also carry the percentile and
    sample count they were taken at.
    """
    rounds, reads = per_step(instances, duration)
    setup_s = [duration(span) for span in setup_spans]
    starts, ends, clock = [], [], 0.0
    for round_time, read_times in zip(rounds, reads):
        starts.append(clock)
        clock += round_time
        ends.append(clock)
        clock += sum(read_times)
    commits = [ends[done - 1] - starts[submitted - 1] for submitted, done in instances[0].commits]
    all_reads = [t for per_round in reads for t in per_round]
    in_rounds = sum(rounds)
    out: dict[str, dict] = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s", "n": len(setup_s)},
        "rounds_per_s": {"value": len(rounds) / in_rounds, "unit": "1/s", "n": len(rounds)},
        "pinned_tx_per_s": {
            "value": instances[0].pinned / in_rounds,
            "unit": "1/s",
            "n": len(commits),
        },
    }
    for prefix, samples in (
        ("round_ms", rounds),
        ("commit_ms", commits),
        ("history_read_ms", all_reads),
    ):
        pct = tail_pct(len(samples))
        out[f"{prefix}_p50"] = {"value": 1e3 * quantile(samples, 50.0), "unit": "ms", "n": len(samples)}
        out[f"{prefix}_tail"] = {
            "value": 1e3 * quantile(samples, pct),
            "unit": "ms",
            "n": len(samples),
            "pct": pct,
        }
    return out
