"""The package against the benchmark's independent reference model.

``perfbench/reference.py`` models the physics with numpy alone, not with
the package. These tests replay the benchmark's first seeded ops through
``cli.run`` and check each output against that model, so the argv, the
inputs and the tolerances are the benchmark's own.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import lightwalk
from lightwalk import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# (workload, seed, ops): 8 ops in all, the first ops of each seed in draw order
REPLAYS = [("trajectory", seed, 2) for seed in (1, 2, 3)] + [
    ("separation", seed, 1) for seed in (1, 2)
]


@pytest.mark.parametrize("name, seed, ops", REPLAYS)
def test_benchmark_ops_match_the_reference(name, seed, ops, tmp_path):
    workload = workloads.WORKLOADS[name](lightwalk, tmp_path)
    rng = np.random.default_rng(seed)
    for _ in range(ops):
        op = workload.make_op(rng, False)
        assert op.check([cli.run(argv) for argv in op.calls]) is None
