"""Checks on the benchmark itself: the tracer sees every call of every
function it wraps, tracing changes no output, and runs repeat exactly.

    python -m pytest perfbench
"""

from __future__ import annotations

import cProfile
import os
import pstats
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workload as wl  # noqa: E402

# long enough to reach each workload's characteristic calls: rejected
# blocks on chain, labels and trapdoor collisions on records and history
SHORT_ROUNDS = {"chain": 120, "records": 8, "history": 12}


def _config(name: str, seed: int | None = None):
    spec = wl.load_spec()["workloads"][name]
    return wl.scenario(spec, spec["default_seed"] if seed is None else seed, SHORT_ROUNDS[name])


def _traced(config):
    tracer = tracing.Tracer()
    with tracer.installed():
        inst = wl.run_instance(config, tracer)
    return tracer, inst


def _counts(tracer) -> dict:
    return {k: v for k, (v, unit) in tracer.layer_metrics().items() if unit != "s"}


@pytest.mark.parametrize("name", sorted(SHORT_ROUNDS))
def test_traced_calls_equal_cprofile_calls(name):
    """A name imported into a module the tracer missed would show up here
    as more profiled calls than traced ones."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        tracer, _ = _traced(_config(name))
    finally:
        profile.disable()
    ncalls = {key: value[1] for key, value in pstats.Stats(profile).stats.items()}
    assert tracer.missing == []
    calls = tracer.calls()
    assert sum(calls.values()) > 0
    for target, count in calls.items():
        code = tracer.originals[target].__code__
        assert count == ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0), target


@pytest.mark.parametrize("name", sorted(SHORT_ROUNDS))
def test_same_seed_repeats_counts_and_outputs(name):
    first_tracer, first = _traced(_config(name))
    second_tracer, second = _traced(_config(name))
    first, second = wl.finish(first), wl.finish(second)
    untraced = wl.finish(wl.run_instance(_config(name)))
    assert first.outputs == second.outputs == untraced.outputs
    assert first.commits == second.commits == untraced.commits
    assert _counts(first_tracer) == _counts(second_tracer)

    other_tracer, other = _traced(_config(name, seed=wl.load_spec()["workloads"][name]["default_seed"] + 1))
    assert wl.finish(other).outputs != first.outputs
    assert set(other_tracer.layer_metrics()) == set(first_tracer.layer_metrics())


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_scales_to_reference_and_drops_probe_time():
    """A step is scaled by the reference over the median nearby probe, and
    the time a probe interrupted it for is not counted."""
    speed = hostspeed.HostSpeed()
    ref = hostspeed.REFERENCE_PROBE_S
    # probes at twice the reference time; the second one interrupts the step
    speed.starts = [0.000, 0.010, 0.020]
    speed.ends = [s + 2 * ref for s in speed.starts]
    step = (0.005, 0.015)
    expected = (0.010 - 2 * ref) / 2
    assert abs(speed.duration(step) - expected) < 1e-12
    with pytest.raises(ValueError):
        speed.duration((1.0, 1.1))
