"""What a process loads: scipy only once a kriging model is fitted."""

import json
import os
import subprocess
import sys
from pathlib import Path

import gustuq

SRC = str(Path(gustuq.__file__).resolve().parent.parent)

SCRIPT = """
import json, sys
import numpy as np
import gustuq.cli
from gustuq import GustOracle, default_input_space, gudr_build, kriging_fit, mc_estimate

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

oracle, space = GustOracle(), default_input_space()
oracle.evaluate_batch(np.tile(space.midpoint, (4, 1)))
oracle.simulate(space.midpoint)
mc_estimate(oracle, space, 200, 0)
gudr_build(oracle, space, 3)
before = scipy_modules()
rng = np.random.default_rng(0)
kriging_fit(rng.uniform(-1, 1, (12, 2)), rng.normal(size=12))
print(json.dumps({"before": before, "after": scipy_modules()}))
"""


def test_scipy_loads_only_with_the_first_kriging_fit():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120,
                          check=True)
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert modules["before"] == []
    assert "scipy.linalg" in modules["after"]
    assert not [m for m in modules["after"] if m.startswith("scipy.interpolate")]
