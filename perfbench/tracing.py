"""Span tracing of spchain from outside the package.

A traced run replaces each target function with a wrapper that records a
span: name, start, end, parent span and the round it ran in. A module-level
function is replaced under every name that holds it in any ``spchain``
module, because ``from .x import f`` copies the reference into the importing
module (``sign`` lives in ``spchain.signing`` and is also bound in
``spchain.sim`` and ``spchain.tx``). A method is replaced on the class that
defines it. Nothing under ``src/`` changes, and the originals are restored
when tracing ends.

Spans stay in memory, in flat arrays, until the run ends. Per-layer metrics
are computed from them: ``_s`` metrics are self time (span time minus the
time of child spans), except ``sim.*``, which is inclusive time that
partitions ``Simulation.run_round``.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import gzip
import sys
import time


def _microblock_txs(counters, args, result):
    counters["blocks.microblock_hash_txs"] += len(args[0].txs)


def _mining_result(counters, args, result):
    counters["mining.attempts"] += result.attempts
    counters["mining.blocks_found"] += result.block is not None


def _pin_outcome(counters, args, result):
    # a certificate has signers; InsufficientQuorum reports the shortfall
    counters["consensus.quorum_fails"] += not hasattr(result, "signers")


def _scheduled(counters, args, result):
    counters["scheduler.batch_items"] += len(result)
    depth = args[0].total_pending() + len(result)
    counters["scheduler.queue_depth_max"] = max(counters["scheduler.queue_depth_max"], depth)


# "module:qualified name" -> optional observer of (counters, args, result).
# Observers read arguments and results only; they never change them.
TARGETS = {
    "spchain.sim:Simulation.run_round": None,
    "spchain.sim:Simulation.reputation_of": None,
    "spchain.sim:Simulation.current_group": None,
    "spchain.sim:Simulation._spawn_patients": None,
    "spchain.sim:Simulation._generate_traffic": None,
    "spchain.sim:Simulation._pack_registers": None,
    "spchain.sim:Simulation._mine_round": None,
    "spchain.sim:Simulation._pin_keyblock": None,
    "spchain.sim:Simulation._pin_tx_batch": None,
    "spchain.chain:ChainState.view": None,
    "spchain.chain:ChainState.last_microblock_hash": None,
    "spchain.chain:ChainState.validate_tx": None,
    "spchain.chain:ChainState.append_to_microblock": None,
    "spchain.chain:ChainState.find_patient_tx": None,
    "spchain.blocks:microblock_hash": _microblock_txs,
    "spchain.blocks:keyblock_hash": None,
    "spchain.blocks:institution_root": None,
    "spchain.blocks:update_institution_root": None,
    "spchain.tx:signing_bytes": None,
    "spchain.tx:build_tx": None,
    "spchain.mining:mine_keyblock": _mining_result,
    "spchain.mining:fork_choice": None,
    "spchain.consensus:pin": _pin_outcome,
    "spchain.consensus:select_group": None,
    "spchain.signing:sign": None,
    "spchain.signing:verify_sig": None,
    "spchain.chameleon:ch_hash": None,
    "spchain.chameleon:ch_verify": None,
    "spchain.chameleon:ch_collide": None,
    "spchain.envelope:seal_emr": None,
    "spchain.actors:upload": None,
    "spchain.actors:label": None,
    "spchain.actors:register": None,
    "spchain.actors:setup_patient": None,
    "spchain.actors:setup_institution": None,
    "spchain.actors:retrieve_history": None,
    "spchain.scheduler:schedule_batch": _scheduled,
    "spchain.reputation:compute_r2": None,
    "spchain.rewards:distribute_rewards": None,
    "spchain.adversaries:Adversary.active": None,
    "spchain.adversaries:Adversary.mining_view": None,
    "spchain.adversaries:Adversary.on_solution": None,
    "spchain.adversaries:Adversary.due_publications": None,
    "spchain.adversaries:Adversary.votes_for_tx": None,
    "spchain.adversaries:Adversary.zombie_register_seeds": None,
    "spchain.adversaries:SelfishMiner.on_solution": None,
    "spchain.adversaries:SelfishMiner.due_publications": None,
    "spchain.adversaries:FlashMiner.active": None,
    "spchain.adversaries:FlashMiner.mining_view": None,
    "spchain.adversaries:FraudInstitution.zombie_register_seeds": None,
    "spchain.adversaries:InhibitionMember.votes_for_tx": None,
}

ADVERSARY_HOOKS = [t for t in TARGETS if t.startswith("spchain.adversaries:")]


# sim.* phases: inclusive time; together with sim.round_self_s they
# partition Simulation.run_round
SIM_PHASES = {
    "sim.group_s": ["spchain.sim:Simulation.reputation_of", "spchain.sim:Simulation.current_group"],
    "sim.traffic_s": ["spchain.sim:Simulation._spawn_patients", "spchain.sim:Simulation._generate_traffic"],
    "sim.pack_registers_s": ["spchain.sim:Simulation._pack_registers"],
    "sim.mine_s": ["spchain.sim:Simulation._mine_round"],
    "sim.pin_keyblock_s": ["spchain.sim:Simulation._pin_keyblock"],
    "sim.pin_batch_s": ["spchain.scheduler:schedule_batch", "spchain.sim:Simulation._pin_tx_batch"],
}

# self-time metrics: sum of the self time of the listed spans
SELF_TIME = {
    "chain.view_s": ["spchain.chain:ChainState.view"],
    "chain.last_microblock_hash_s": ["spchain.chain:ChainState.last_microblock_hash"],
    "chain.validate_tx_s": ["spchain.chain:ChainState.validate_tx"],
    "chain.append_s": ["spchain.chain:ChainState.append_to_microblock"],
    "chain.find_patient_tx_s": ["spchain.chain:ChainState.find_patient_tx"],
    "blocks.microblock_hash_s": ["spchain.blocks:microblock_hash"],
    "blocks.institution_root_s": ["spchain.blocks:institution_root", "spchain.blocks:update_institution_root"],
    "blocks.keyblock_hash_s": ["spchain.blocks:keyblock_hash"],
    "tx.signing_bytes_s": ["spchain.tx:signing_bytes"],
    "tx.build_tx_s": ["spchain.tx:build_tx"],
    "mining.mine_keyblock_s": ["spchain.mining:mine_keyblock"],
    "mining.fork_choice_s": ["spchain.mining:fork_choice"],
    "consensus.pin_s": ["spchain.consensus:pin"],
    "consensus.select_group_s": ["spchain.consensus:select_group"],
    "signing.sign_s": ["spchain.signing:sign"],
    "signing.verify_s": ["spchain.signing:verify_sig"],
    "chameleon.hash_s": ["spchain.chameleon:ch_hash"],
    "chameleon.verify_s": ["spchain.chameleon:ch_verify"],
    "chameleon.collide_s": ["spchain.chameleon:ch_collide"],
    "envelope.seal_s": ["spchain.envelope:seal_emr"],
    "actors.upload_s": ["spchain.actors:upload"],
    "actors.label_s": ["spchain.actors:label"],
    "actors.register_s": ["spchain.actors:register"],
    "actors.setup_s": ["spchain.actors:setup_patient", "spchain.actors:setup_institution"],
    "actors.retrieve_history_s": ["spchain.actors:retrieve_history"],
    "scheduler.schedule_batch_s": ["spchain.scheduler:schedule_batch"],
    "reputation.reputation_of_s": ["spchain.sim:Simulation.reputation_of", "spchain.reputation:compute_r2"],
    "rewards.distribute_s": ["spchain.rewards:distribute_rewards"],
    "adversaries.hooks_s": ADVERSARY_HOOKS,
}

CALLS = {
    "chain.view_calls": "spchain.chain:ChainState.view",
    "chain.validate_tx_calls": "spchain.chain:ChainState.validate_tx",
    "chain.find_patient_tx_calls": "spchain.chain:ChainState.find_patient_tx",
    "blocks.microblock_hash_calls": "spchain.blocks:microblock_hash",
    "blocks.keyblock_hash_calls": "spchain.blocks:keyblock_hash",
    "tx.signing_bytes_calls": "spchain.tx:signing_bytes",
    "mining.fork_choice_calls": "spchain.mining:fork_choice",
    "consensus.pin_calls": "spchain.consensus:pin",
    "signing.sign_calls": "spchain.signing:sign",
    "signing.verify_calls": "spchain.signing:verify_sig",
    "chameleon.hash_calls": "spchain.chameleon:ch_hash",
    "chameleon.verify_calls": "spchain.chameleon:ch_verify",
    "chameleon.collide_calls": "spchain.chameleon:ch_collide",
    "envelope.seal_calls": "spchain.envelope:seal_emr",
    "actors.retrieve_history_calls": "spchain.actors:retrieve_history",
    "reputation.compute_r2_calls": "spchain.reputation:compute_r2",
    "rewards.distribute_calls": "spchain.rewards:distribute_rewards",
}

# counts kept by the observers above, with the target that feeds each
COUNTERS = {
    "blocks.microblock_hash_txs": "spchain.blocks:microblock_hash",
    "mining.attempts": "spchain.mining:mine_keyblock",
    "mining.blocks_found": "spchain.mining:mine_keyblock",
    "scheduler.batch_items": "spchain.scheduler:schedule_batch",
    "scheduler.queue_depth_max": "spchain.scheduler:schedule_batch",
}


class Tracer:
    """Wraps the targets while installed and keeps their spans."""

    def __init__(self):
        self.targets: list[str] = []  # index = span name id
        self.originals: dict[str, object] = {}  # target -> unwrapped function
        self.missing: list[str] = []
        self.name = array.array("i")
        self.parent = array.array("i")
        self.round = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.current_round = 0
        self.counters: collections.Counter = collections.Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, observe):
        name, parent, rnd, start, end = self.name, self.parent, self.round, self.start, self.end
        stack, counters, clock, tracer = self.stack, self.counters, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            rnd.append(tracer.current_round)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items() if key == "spchain" or key.startswith("spchain.")
        ]
        for target, observe in TARGETS.items():
            module_name, qualname = target.split(":")
            module = sys.modules.get(module_name)
            *owner_path, attr = qualname.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            fn = None if owner is None else vars(owner).get(attr)
            if not callable(fn):
                self.missing.append(target)
                continue
            wrapped = self._wrap(fn, len(self.targets), observe)
            self.targets.append(target)
            self.originals[target] = fn
            if owner is module:
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, key, wrapped)
            else:
                self._patch(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------------

    def calls(self) -> dict[str, int]:
        counts = collections.Counter(self.name)
        return {target: counts.get(i, 0) for i, target in enumerate(self.targets)}

    def times(self) -> tuple[dict[str, int], dict[str, int]]:
        """(inclusive ns, self ns) per target."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += duration[i]
        inclusive = [0] * len(self.targets)
        own = [0] * len(self.targets)
        for i, name_id in enumerate(self.name):
            inclusive[name_id] += duration[i]
            own[name_id] += duration[i] - children[i]
        return (
            dict(zip(self.targets, inclusive)),
            dict(zip(self.targets, own)),
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the spans and counters: name -> (value, unit).

        A metric whose spans include a missing target is left out, so a
        renamed function shows up in ``missing`` rather than as a zero.
        """
        inclusive, own = self.times()
        calls = self.calls()
        found = set(self.targets)
        out: dict[str, tuple[float, str]] = {}

        def covered(targets):
            return all(t in found for t in targets)

        phases = 0
        for metric, targets in SIM_PHASES.items():
            if covered(targets):
                value = sum(inclusive[t] for t in targets)
                phases += value
                out[metric] = (value / 1e9, "s")
        run_round = "spchain.sim:Simulation.run_round"
        if len(out) == len(SIM_PHASES) and run_round in found:
            out["sim.round_self_s"] = ((inclusive[run_round] - phases) / 1e9, "s")
        for metric, targets in SELF_TIME.items():
            if covered(targets):
                out[metric] = (sum(own[t] for t in targets) / 1e9, "s")
        for metric, target in CALLS.items():
            if target in found:
                out[metric] = (calls[target], "count")
        for metric, target in COUNTERS.items():
            if target in found:
                out[metric] = (self.counters[metric], "count")
        pin = "spchain.consensus:pin"
        if pin in found:
            out["consensus.quorum_fail_ratio"] = (
                self.counters["consensus.quorum_fails"] / max(1, calls[pin]),
                "ratio",
            )
        return out

    def write(self, path: str, header: str) -> None:
        """Spans as gzip CSV: span, parent, round, target index, start and
        end in ns; ``#`` lines name the targets."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write(f"# {header}\n")
            for i, target in enumerate(self.targets):
                handle.write(f"# target {i} {target}\n")
            for target in self.missing:
                handle.write(f"# missing {target}\n")
            handle.write("span,parent,round,target,start_ns,end_ns\n")
            rows = zip(self.parent, self.round, self.name, self.start, self.end)
            handle.writelines(
                f"{i},{p},{r},{n},{s},{e}\n" for i, (p, r, n, s, e) in enumerate(rows)
            )
