"""Reputation-proportional fair transaction scheduler.

Institutions submit pending transactions during an interval; the group
then drains the queues in repeated passes, descending by reputation.
Each pass grants an institution up to its quota, where the quota scales
with reputation but never drops below one, so no non-empty queue is ever
starved. Passes repeat until the batch cap is reached or everything is
drained; within one institution service is FIFO.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Mapping


@dataclass
class SchedulerState:
    """Per-institution FIFO queues plus the batch cap."""

    queues: dict[str, Deque] = field(default_factory=dict)
    batch_cap: int = 12

    def enqueue(self, institution_id: str, item) -> None:
        self.queues.setdefault(institution_id, deque()).append(item)

    def total_pending(self) -> int:
        return sum(len(q) for q in self.queues.values())


def quota(reputation: float, rank: int) -> int:
    """Per-pass allowance for the institution ranked ``rank`` (1 = best).

    Ten slots per reputation point, discounted one per rank step below the
    leader, floored at one so every institution is always served.
    """
    return max(1, int(10 * reputation) - (rank - 1))


def schedule_batch(state: SchedulerState, reputations: Mapping[str, float]) -> list:
    """Drain up to ``batch_cap`` items from the queues, fairly.

    Consumes the scheduled items from ``state``; returns them in service
    order. Institutions are visited in descending reputation (ties by id).
    """
    ranked = sorted(
        (inst for inst in state.queues),
        key=lambda inst: (-reputations.get(inst, 0.0), inst),
    )
    quotas = {
        inst: quota(reputations.get(inst, 0.0), rank)
        for rank, inst in enumerate(ranked, start=1)
    }
    batch: list = []
    first_pass = True
    while len(batch) < state.batch_cap:
        took_any = False
        for pos, inst in enumerate(ranked):
            queue = state.queues[inst]
            budget = state.batch_cap - len(batch)
            if first_pass:
                # hold one slot for each lower-ranked non-empty queue so the
                # first pass serves everyone (starvation freedom)
                reserved = sum(1 for other in ranked[pos + 1 :] if state.queues[other])
                budget = max(0, budget - reserved)
            take = min(quotas[inst], len(queue), budget)
            for _ in range(take):
                batch.append(queue.popleft())
            took_any = took_any or take > 0
            if len(batch) >= state.batch_cap:
                break
        first_pass = False
        if not took_any:
            break
    return batch
