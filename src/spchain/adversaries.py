"""Adversary strategy plug-ins for the network simulator.

Each strategy overrides a small set of hooks the round engine calls at
fixed points; everything not overridden behaves honestly. Strategies:

* ``selfish``  — a miner that withholds every solved keyblock for a fixed
  number of rounds before publishing.
* ``flash``    — a high-power miner that joins late; in ``attack`` mode it
  mines a private fork that conflicts with already-pinned history, in
  ``honest`` mode it simply mines like everyone else (baseline).
* ``fraud``    — an institution that fabricates patient registrations to
  inflate its service counters. The institution certifies the identity
  material it submits, so a duplicate identity digest implicates it.
* ``inhibition`` — a consensus-group member that refuses to sign
  transactions addressed to a victim institution.
"""

from __future__ import annotations

from typing import Optional

from .blocks import GENESIS_KEYBLOCK_HASH, KeyBlock
from .chain import ChainState, ChainView
from .simconfig import ScenarioConfig
from .tx import Transaction


class Adversary:
    """Honest-equivalent default hooks; subclasses override selectively.

    Used as is when the scenario has no adversary."""

    kind = "none"
    joins_as_miner = False

    def __init__(self, config: ScenarioConfig):
        # the simulator assigns the institution the adversary controls and,
        # for inhibition, the institution it starves
        self.miner_id: Optional[str] = None
        self.victim_id: Optional[str] = None

    def active(self, round_number: int) -> bool:
        return True

    def mining_view(self, tip: ChainView, chain: ChainState) -> Optional[ChainView]:
        """View to mine on, or None to skip mining this round; ``tip`` is
        the round's view of the pinned tip of ``chain``."""
        return tip

    def on_solution(self, round_number: int, block: KeyBlock) -> Optional[KeyBlock]:
        """Called with a freshly solved block; return it to publish now."""
        return block

    def due_publications(self, round_number: int) -> list[KeyBlock]:
        """Withheld blocks scheduled for release this round."""
        return []

    def votes_for_tx(self, tx: Transaction) -> bool:
        return True

    def zombie_register_seeds(self, round_number: int) -> list[tuple[bytes, bytes]]:
        """(keypair seed, identity info) pairs for fabricated registrations."""
        return []


class SelfishMiner(Adversary):
    kind = "selfish"
    joins_as_miner = True

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        self.withhold_rounds = config.adversary_withhold_rounds
        self._withheld: list[tuple[int, KeyBlock]] = []

    def on_solution(self, round_number: int, block: KeyBlock) -> Optional[KeyBlock]:
        self._withheld.append((round_number + self.withhold_rounds, block))
        return None

    def due_publications(self, round_number: int) -> list[KeyBlock]:
        due = [blk for when, blk in self._withheld if when <= round_number]
        self._withheld = [(when, blk) for when, blk in self._withheld if when > round_number]
        return due


class FlashMiner(Adversary):
    kind = "flash"
    joins_as_miner = True

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        self.join_round = config.adversary_join_round
        self.attack = config.adversary_strategy == "attack"

    def active(self, round_number: int) -> bool:
        return round_number >= self.join_round

    def mining_view(self, tip: ChainView, chain: ChainState) -> Optional[ChainView]:
        if not self.attack:
            return tip
        if tip.tip_height == 0:
            # nothing pinned to contradict yet; hold fire
            return None
        # fork off one block behind the pinned tip: the solved block lands
        # at the tip's height with a different hash, a direct attempt to
        # replace pinned history
        tip_height = tip.tip_height - 1
        return ChainView(
            pinned_hashes=tip.pinned_hashes,
            tip_height=tip_height,
            tip_hash=tip.pinned_hash_at(tip_height) or GENESIS_KEYBLOCK_HASH,
            penu_microblock_hash=chain.penu_microblock_hash_for(tip_height + 1),
        )


class FraudInstitution(Adversary):
    kind = "fraud"
    joins_as_miner = False  # attacks through an existing institution

    def __init__(self, config: ScenarioConfig):
        super().__init__(config)
        self.zombie_count = config.zombie_count
        self._emitted = 0

    def zombie_register_seeds(self, round_number: int) -> list[tuple[bytes, bytes]]:
        out = []
        while self._emitted < self.zombie_count:
            index = self._emitted
            self._emitted += 1
            # fresh keypair every time, but the identity material repeats
            # after the first zombie: cloned records are cheaper than
            # inventing plausible new ones
            seed = b"zombie/%d/%d" % (round_number, index)
            identity = b"zombie-identity" if index > 0 else b"zombie-identity-0"
            out.append((seed, identity))
        return out


class InhibitionMember(Adversary):
    kind = "inhibition"
    joins_as_miner = False  # an existing miner turns inhibitor

    def votes_for_tx(self, tx: Transaction) -> bool:
        return tx.payload.receiver_id != self.victim_id


_STRATEGIES = {
    "none": Adversary,
    "selfish": SelfishMiner,
    "flash": FlashMiner,
    "fraud": FraudInstitution,
    "inhibition": InhibitionMember,
}


def make_adversary(config: ScenarioConfig) -> Adversary:
    return _STRATEGIES[config.adversary_type](config)
