#!/usr/bin/env python3
"""Wall-clock benchmark of spchain.

    python3 perfbench/run.py --workload chain|records|history \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the benchmark imports ``spchain`` from that
checkout's ``src/`` and nowhere else, and exits nonzero without a result if
it is missing. See ``perfbench/README.md`` for the workloads and metrics.

``--trace 0`` replays the workload's scenario from a fresh ``Simulation``
for about ``--seconds`` seconds (at least once) and reports the end-to-end
metrics, with times scaled to a reference host speed (``hostspeed.py``).
``--trace 1`` makes one untraced and one traced replay, whatever
``--seconds`` is, and reports the per-layer metrics of the traced one plus
the tracing overhead; spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run whose outputs
fail the correctness check prints ``"correct": false``, counts every
operation as failed and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Simulation builds timed before each replay; setup_s is the median over
# these and the one build of each replay
SETUP_PER_REPLAY = 8

# the end-to-end metrics a --trace 0 run prints, in order
END_TO_END = (
    "setup_s",
    "rounds_per_s",
    "round_ms_p50",
    "round_ms_tail",
    "pinned_tx_per_s",
    "commit_ms_p50",
    "commit_ms_tail",
    "history_read_ms_p50",
    "history_read_ms_tail",
    "peak_rss_mb",
)


def _import_spchain() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "spchain", "__init__.py")):
        sys.exit(f"perfbench: no spchain sources under {src}")
    sys.path.insert(0, src)
    import spchain

    if os.path.dirname(os.path.abspath(spchain.__file__)) != os.path.join(src, "spchain"):
        sys.exit(f"perfbench: imported spchain from {spchain.__file__}, not from {src}")


def _host() -> str:
    import cryptography

    return (
        f"host nproc={os.cpu_count()} python={platform.python_version()} "
        f"cryptography={cryptography.__version__} machine={platform.machine()}"
    )


def _check_outputs(instances, golden, problems: list[str]) -> dict[str, str]:
    """Every replay of a run must give the same outputs, and those must
    match the recorded values when the seed has them."""
    outputs = instances[0].outputs
    for inst in instances[1:]:
        if inst.outputs != outputs or inst.commits != instances[0].commits:
            problems.append("replays of one seed gave different outputs")
    if golden is not None and golden != outputs:
        problems.append("outputs differ from the values recorded for this seed")
    for inst in instances:
        problems.extend(inst.problems)
    return outputs


def _run_untraced(wl, config, seconds: float, golden) -> int:
    from hostspeed import HostSpeed
    from spchain.sim import Simulation

    speed = HostSpeed()
    setup_spans = []
    instances = []
    start = time.perf_counter()
    with speed.sampling():
        while True:
            for _ in range(SETUP_PER_REPLAY):
                t0 = time.perf_counter()
                Simulation(config)
                setup_spans.append((t0, time.perf_counter()))
            instances.append(wl.finish(wl.run_instance(config)))
            setup_spans.append(instances[-1].setup_span)
            if len(instances) == 1:
                # later replays repeat the same work; only the benchmark's own
                # timing records grow with their number
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(instances) > seconds:
                break
    problems: list[str] = []
    outputs = _check_outputs(instances, golden, problems)
    metrics = wl.summarize(instances, setup_spans, speed.duration)
    wall = wl.summarize(instances, setup_spans)
    metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    rounds = sum(len(inst.round_span) for inst in instances)
    print(f"replays={len(instances)} rounds={rounds} wall_s={time.perf_counter() - start:.3f}")
    print(
        f"host speed: {len(speed.starts)} probes, median x{speed.factor():.3f} of the reference "
        "probe time; times below are at reference speed, raw wall-clock values in brackets"
    )
    for name in END_TO_END:
        m = metrics[name]
        extra = f"  [wall {wall[name]['value']:.6g}]" if name in wall else ""
        if "pct" in m:
            extra += f"  (p{m['pct']:g} of {m['n']})"
        elif "n" in m:
            extra += f"  (n={m['n']})"
        print(f"{name} = {m['value']:.6g} {m['unit']}{extra}")
    return _finish(outputs, golden, problems, instances, {k: metrics[k] for k in END_TO_END})


def _run_traced(wl, config, name: str, seed: int, golden) -> int:
    import tracing

    untraced = wl.finish(wl.run_instance(config))
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = wl.run_instance(config, tracer)
    sim = traced.sim
    layer = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics().items()}
    if "mining.blocks_found" in layer:
        found = layer["mining.blocks_found"]["value"]
        layer["mining.pinned_ratio"] = {
            "value": len(sim.chain.pinned_keyblocks) / max(1, found),
            "unit": "ratio",
        }
    layer["adversaries.rejected_blocks"] = {"value": sim.rejected_blocks, "unit": "count"}
    untraced_rps = len(untraced.round_s) / sum(untraced.round_s)
    traced_rps = len(traced.round_s) / sum(traced.round_s)
    layer["trace.untraced_rounds_per_s"] = {"value": untraced_rps, "unit": "1/s"}
    layer["trace.rounds_per_s"] = {"value": traced_rps, "unit": "1/s"}
    wl.finish(traced)

    problems: list[str] = []
    # the traced instance must give the untraced outputs: wrappers change nothing
    outputs = _check_outputs([untraced, traced], golden, problems)
    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.csv.gz")
    tracer.write(path, f"workload={name} seed={seed} {_host()}")
    print(f"spans={len(tracer.start)} written to {os.path.relpath(path, ROOT)}")
    print(
        f"tracing overhead: rounds_per_s {untraced_rps:.6g} untraced, {traced_rps:.6g} traced "
        f"(x{untraced_rps / traced_rps:.3f})"
    )
    if tracer.missing:
        print("wrap targets not found: " + " ".join(tracer.missing))
    for key in sorted(layer):
        print(f"{key} = {layer[key]['value']:.6g} {layer[key]['unit']}")
    return _finish(outputs, golden, problems, [untraced, traced], layer)


def _finish(outputs, golden, problems, instances, metrics) -> int:
    """Print the outputs, any correctness problem and the result line; the
    exit code is 1 when the run is not correct."""
    verdict = "none recorded for this seed" if golden is None else (
        "match" if golden == outputs else "MISMATCH"
    )
    print("outputs " + " ".join(f"{k}={v}" for k, v in outputs.items()) + f" recorded={verdict}")
    for problem in problems:
        print(f"correctness: {problem}")
    correct = not problems
    attempted = sum(inst.attempted for inst in instances)
    failed = sum(inst.failed for inst in instances) if correct else attempted
    print(f"failed_ratio = {failed / max(1, attempted):.6g} ratio ({failed} of {attempted} operations)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="defaults to the workload's seed")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_spchain()
    import workload as wl

    workloads = wl.load_spec()["workloads"]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    spec = workloads[args.workload]
    seed = spec["default_seed"] if args.seed is None else args.seed
    config = wl.scenario(spec, seed)
    golden = spec["recorded_outputs"].get(str(seed))
    print(f"perfbench workload={args.workload} seed={seed} trace={args.trace}")
    print(_host())
    print("config " + json.dumps(spec["config"], sort_keys=True) + f" rounds={config.rounds}")
    if args.trace:
        return _run_traced(wl, config, args.workload, seed, golden)
    return _run_untraced(wl, config, args.seconds, golden)


if __name__ == "__main__":
    sys.exit(main())
