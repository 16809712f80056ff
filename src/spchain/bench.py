"""Throughput benchmark over a block-size x group-size matrix.

Each cell runs the full simulator under saturating traffic (registration
arrivals match keyblock capacity, every registered patient uploads every
round) so measured throughput reflects capacity, not demand. Keyblock
throughput is register transactions pinned per simulated second;
microblock throughput is batch transactions pinned per simulated second
of group agreement time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .sim import run_scenario
from .simconfig import ScenarioConfig


@dataclass(frozen=True)
class BenchCell:
    block_size_mb: float
    group_size: int
    keyblock_tps: float
    microblock_tps: float


def _cell_config(
    block_size_mb: float, group_size: int, miner_count: int, rounds: int, seed: int
) -> ScenarioConfig:
    config = ScenarioConfig(
        seed=seed,
        rounds=rounds,
        miner_count=miner_count,
        group_size=group_size,
        block_size_mb=block_size_mb,
        patient_count=10_000,
        patient_arrival_per_round=0,  # fixed below to the keyblock capacity
        upload_rate=1.0,
        label_rate=0.0,
        emr_size_bytes=256,
        batch_cap=10_000,  # capacity-limited, not cap-limited
    )
    # the capacity is only defined for a valid block size
    config.validate()
    return dataclasses.replace(config, patient_arrival_per_round=config.keyblock_capacity)


def run_cell(
    block_size_mb: float, group_size: int, miner_count: int, rounds: int, seed: int
) -> BenchCell:
    config = _cell_config(block_size_mb, group_size, miner_count, rounds, seed)
    result = run_scenario(config)
    kb_rates = [rec.keyblock_tps for rec in result.records]
    micro_rates = [rec.microblock_tps for rec in result.records if rec.micro_txs_pinned > 0]
    return BenchCell(
        block_size_mb=block_size_mb,
        group_size=group_size,
        keyblock_tps=sum(kb_rates) / len(kb_rates) if kb_rates else 0.0,
        microblock_tps=sum(micro_rates) / len(micro_rates) if micro_rates else 0.0,
    )


def bench_throughput(
    block_sizes: list[float],
    group_sizes: list[int],
    rounds: int = 8,
    seed: int = 7,
) -> list[BenchCell]:
    """One cell per (block size, group size) pair, row-major by block size.

    The miner population is fixed to the largest group size so mining
    dynamics are identical across cells and only the group size varies.
    """
    miner_count = max(group_sizes)
    return [
        run_cell(bs, gs, miner_count, rounds, seed)
        for bs in block_sizes
        for gs in group_sizes
    ]


def bench_csv_text(cells: list[BenchCell]) -> str:
    lines = ["# spchain-metrics v1", "block_size_mb,group_size,keyblock_tps,microblock_tps"]
    for c in cells:
        lines.append(
            f"{c.block_size_mb:.6f},{c.group_size},{c.keyblock_tps:.6f},{c.microblock_tps:.6f}"
        )
    return "\n".join(lines) + "\n"
