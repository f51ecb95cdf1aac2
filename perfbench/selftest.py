"""Self-test of the benchmark's determinism and seed handling.

    python3 perfbench/selftest.py

For every workload it runs one rep of the default seed in two fresh
processes and requires identical counts and modeled outputs, then runs
the held-out seed and requires its generated inputs to differ.  It also
checks that ``predictions.json`` names exactly the per-layer metrics of
``BENCHMARK.json``.  Exits 0 when every check passes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import worlds  # noqa: E402


def inputs_digest(inputs: dict) -> str:
    """A short stable digest of generated inputs."""
    blob = json.dumps(inputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def child(workload: str, seed: int) -> None:
    """One rep; prints the inputs digest, counts and modeled outputs."""
    inputs = worlds.make_inputs(workload, seed)
    world = worlds.build(workload, inputs)
    world.run()
    problems = world.check()
    print(json.dumps({
        "inputs": inputs_digest(inputs),
        "fingerprint": run.fingerprint(world),
        "counts": run.layer_counts(world),
        "problems": problems,
    }, sort_keys=True))


def spawn(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", workload, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_predictions() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {metric["name"] for metric in json.load(handle)["per_layer"]}
    with open(os.path.join(HERE, "predictions.json")) as handle:
        predicted = set(json.load(handle)["per_layer"])
    problems = []
    if declared != predicted:
        problems.append(f"predictions.json and BENCHMARK.json disagree on "
                        f"{sorted(declared ^ predicted)}")
    return problems


def main() -> int:
    failures = check_predictions()
    for workload in worlds.WORKLOADS:
        first = spawn(workload, worlds.DEFAULT_SEED)
        second = spawn(workload, worlds.DEFAULT_SEED)
        held_out = spawn(workload, worlds.HELD_OUT_SEED)
        if first["problems"] or held_out["problems"]:
            failures.append(f"{workload}: output check failed: "
                            f"{first['problems'] + held_out['problems']}")
        if first != second:
            failures.append(f"{workload}: two processes disagree on seed "
                            f"{worlds.DEFAULT_SEED}: {first} vs {second}")
        if held_out["inputs"] == first["inputs"]:
            failures.append(f"{workload}: held-out seed {worlds.HELD_OUT_SEED} "
                            f"generated the default seed's inputs")
        verdict = "ok" if not any(f.startswith(workload) for f in failures) else "FAILED"
        print(f"{workload:<16} {verdict}  gateway packets "
              f"{first['fingerprint']['gateway_packets']} (seed {worlds.DEFAULT_SEED}), "
              f"{held_out['fingerprint']['gateway_packets']} (seed {worlds.HELD_OUT_SEED})")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(sys.argv[2], int(sys.argv[3]))
        sys.exit(0)
    sys.exit(main())
