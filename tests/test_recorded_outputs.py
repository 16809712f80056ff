"""Each perfbench workload's default seed, replayed at full length, gives
the outputs recorded for it in ``perfbench/workloads.json``.

The replay goes through ``perfbench/workload.py``'s ``run_instance`` and
``finish``, so its history reads and drain rounds are the benchmark's own,
and a change that would fail every benchmark run fails here first.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workload as wl  # noqa: E402

WORKLOADS = wl.load_spec()["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_matches_recorded_outputs(name):
    spec = WORKLOADS[name]
    seed = spec["default_seed"]
    inst = wl.finish(wl.run_instance(wl.scenario(spec, seed)))
    assert inst.problems == []
    assert inst.failed == 0
    assert inst.outputs == spec["recorded_outputs"][str(seed)]
