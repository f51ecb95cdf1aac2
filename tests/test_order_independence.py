"""Outputs are a function of (config, seed) alone, not of what ran first.

Two fresh interpreters run the same steps in opposite orders; every
digest must agree.  This guards the shared world builder (and anything
else process-global) against state that leaks from one world into the
next within a process.
"""

import json
import os
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import json, sys
from repro.chaos import run_attack_scenario, run_scenario
from repro.obs import run_observed_world
from tests.obs.test_world import export_hashes

STEPS = {
    "chaos tcp:101": lambda: run_scenario("tcp", 101).digest,
    "chaos caravan:108": lambda: run_scenario("caravan", 108).digest,
    "attack benign-control:7 hardened": lambda: run_attack_scenario(
        "benign-control", 7, hardened=True).digest,
    "observed seed 0": lambda: export_hashes(run_observed_world(seed=0)),
}
print(json.dumps({name: STEPS[name]() for name in json.loads(sys.argv[1])}))
"""

_ORDER = ["chaos tcp:101", "chaos caravan:108",
          "attack benign-control:7 hardened", "observed seed 0"]


def _run(order):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(_ROOT, "src"), _ROOT, env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(order)],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_opposite_orders_in_fresh_processes_give_identical_digests():
    forward = _run(_ORDER)
    backward = _run(_ORDER[::-1])
    assert set(forward) == set(_ORDER)
    assert forward == backward
