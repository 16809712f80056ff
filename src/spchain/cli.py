"""Command line entry point.

Exit codes: 0 success, 2 configuration error, 3 invariant violation
during simulation.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .bench import bench_csv_text, bench_throughput
from .metrics import metrics_csv_text, reputation_csv_text, summary_text, write_text
from .sim import InvariantViolation, run_scenario
from .simconfig import ADVERSARY_TYPES, ConfigError, ScenarioConfig, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spchain",
        description="Medical-record blockchain simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write metrics")
    run_p.add_argument("--config", required=True, help="scenario config file")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", required=True, help="output directory")

    bench_p = sub.add_parser("bench", help="throughput matrix benchmark")
    bench_p.add_argument(
        "--block-sizes", default="1,2,4", help="comma-separated block sizes in MB"
    )
    bench_p.add_argument(
        "--group-sizes", default="4,8,16,28", help="comma-separated consensus group sizes"
    )
    bench_p.add_argument("--out", required=True, help="output directory")

    attack_p = sub.add_parser("attack", help="run an adversarial scenario")
    attack_p.add_argument(
        "--type",
        required=True,
        choices=[t for t in ADVERSARY_TYPES if t != "none"],
        dest="attack_type",
    )
    attack_p.add_argument("--config", default=None, help="optional base config file")
    attack_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    attack_p.add_argument("--out", default=None, help="optional output directory")
    return parser


def _write_run_outputs(result, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "metrics.csv"), metrics_csv_text(result.records))
    write_text(
        os.path.join(out_dir, "reputation.csv"),
        reputation_csv_text(result.reputation_rows),
    )
    write_text(os.path.join(out_dir, "summary.txt"), summary_text(result.summary))


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = run_scenario(config)
    _write_run_outputs(result, args.out)
    print(f"completed {config.rounds} rounds; outputs in {args.out}")
    return EXIT_OK


def _parse_number_list(raw: str, cast, flag: str):
    try:
        values = [cast(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma-separated list") from None
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    if not all(v > 0 for v in values):
        raise ConfigError(f"{flag} values must be positive")
    return values


def _cmd_bench(args) -> int:
    block_sizes = _parse_number_list(args.block_sizes, float, "--block-sizes")
    group_sizes = _parse_number_list(args.group_sizes, int, "--group-sizes")
    cells = bench_throughput(block_sizes, group_sizes)
    os.makedirs(args.out, exist_ok=True)
    write_text(os.path.join(args.out, "bench.csv"), bench_csv_text(cells))
    print(f"wrote {len(cells)} cells to {os.path.join(args.out, 'bench.csv')}")
    return EXIT_OK


# defaults chosen so each attack has room to act: miners to corrupt, a
# victim to starve, rounds for reputation to accrue before the attacker
# strikes
_ATTACK_DEFAULTS = {
    "selfish": dict(adversary_power=0.3, adversary_withhold_rounds=2),
    "flash": dict(adversary_power=0.9, adversary_join_round=10),
    "fraud": dict(zombie_count=5),
    "inhibition": dict(group_size=4),
}


def _cmd_attack(args) -> int:
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = ScenarioConfig(rounds=40, miner_count=4, group_size=3)
    overrides = dict(_ATTACK_DEFAULTS[args.attack_type])
    overrides["adversary_type"] = args.attack_type
    config = dataclasses.replace(config, **overrides)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    config.validate()
    result = run_scenario(config)
    if args.out is not None:
        _write_run_outputs(result, args.out)
    sys.stdout.write(summary_text(result.summary))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_attack(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
