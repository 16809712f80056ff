"""Scenario configuration: dataclass, validation and the flat key/value
config-file format.

File format: one ``key = value`` per line, ``#`` starts a comment.
List values are comma-separated. Unknown keys are rejected so typos
fail loudly before any simulation step runs.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

ADVERSARY_TYPES = ("none", "selfish", "flash", "fraud", "inhibition")

# transactions that fit in one megabyte of block
TXS_PER_MB = 16


class ConfigError(ValueError):
    """Invalid scenario configuration."""


@dataclass
class ScenarioConfig:
    seed: int = 1
    rounds: int = 20

    # miners and mining
    miner_count: int = 4
    power_shares: tuple[float, ...] = ()  # empty -> equal shares
    target_zero_bits: int = 6

    # consensus
    group_size: int = 3

    # scheduler
    batch_cap: int = 64  # max transactions the group processes at a time

    # traffic
    patient_count: int = 20
    patient_arrival_per_round: int = 2
    upload_rate: float = 0.3
    label_rate: float = 0.05
    emr_size_bytes: int = 2048

    # block capacity and timing model (simulated seconds)
    block_size_mb: float = 1.0
    kb_interval_s: float = 10.0

    # adversary
    adversary_type: str = "none"
    adversary_power: float = 0.0
    adversary_join_round: int = 0
    adversary_withhold_rounds: int = 2
    adversary_strategy: str = "attack"  # flash only: attack | honest
    zombie_count: int = 0

    def validate(self) -> None:
        # every comparison with NaN is false, so NaN would pass the range
        # checks below; infinity overflows the block capacity
        for name in _FLOAT_FIELDS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if not all(math.isfinite(s) for s in self.power_shares):
            raise ConfigError("power shares must be finite")
        if self.rounds < 1:
            raise ConfigError("rounds must be positive")
        if self.miner_count < 1:
            raise ConfigError("miner_count must be positive")
        if self.group_size < 1:
            raise ConfigError("group_size must be positive")
        if self.power_shares:
            if len(self.power_shares) != self.miner_count:
                raise ConfigError("power_shares length must equal miner_count")
            if abs(sum(self.power_shares) - 1.0) > 1e-9:
                raise ConfigError("power_shares must sum to 1")
            if any(s < 0 for s in self.power_shares):
                raise ConfigError("power shares must be non-negative")
        if not 0 <= self.target_zero_bits <= 32:
            raise ConfigError("target_zero_bits must be in [0, 32]")
        if self.patient_count < 0 or self.patient_arrival_per_round < 0:
            raise ConfigError("patient counts must be non-negative")
        for name in ("upload_rate", "label_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.adversary_type not in ADVERSARY_TYPES:
            raise ConfigError(f"unknown adversary type {self.adversary_type!r}")
        if not 0.0 <= self.adversary_power <= 0.99:
            raise ConfigError("adversary_power must be in [0, 0.99]")
        if self.adversary_strategy not in ("attack", "honest"):
            raise ConfigError("adversary_strategy must be 'attack' or 'honest'")
        if self.batch_cap < 1:
            raise ConfigError("batch_cap must be positive")
        if self.emr_size_bytes < 0:
            raise ConfigError("emr_size_bytes must be non-negative")
        if self.block_size_mb <= 0:
            raise ConfigError("block_size_mb must be positive")
        if self.kb_interval_s <= 0:
            raise ConfigError("kb_interval_s must be positive")
        if self.zombie_count < 0:
            raise ConfigError("zombie_count must be non-negative")

    @property
    def keyblock_capacity(self) -> int:
        """Transactions per block; block_size_mb bounds microblock batches too."""
        return max(1, int(self.block_size_mb * TXS_PER_MB))


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(ScenarioConfig)}
_FLOAT_FIELDS = tuple(name for name, f in _FIELD_TYPES.items() if f.type == "float")


def _coerce(name: str, raw: str):
    f = _FIELD_TYPES[name]
    if f.type == "tuple[float, ...]":
        raw = raw.strip()
        if not raw:
            return ()
        return tuple(float(part) for part in raw.split(","))
    if f.type == "int":
        return int(raw)
    if f.type == "float":
        return float(raw)
    return raw.strip()


def parse_config_text(text: str) -> ScenarioConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, raw)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    config = ScenarioConfig(**values)
    config.validate()
    return config


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_config_text(handle.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
