"""Determinism: the whole chaos pipeline is a pure function of the seed.

Running the same (profile, seed) twice in one process must produce the
identical packet-trace digest, the identical oracle verdict, and the
identical fault accounting — this is what makes a red corpus entry
reproducible and shrinkable.
"""

import pytest

from repro.chaos import PROFILES, build_plan, build_world, run_scenario, trace_digest

SEEDS = (11, 205)


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", SEEDS)
def test_same_seed_identical_run(profile, seed):
    first = run_scenario(profile, seed)
    second = run_scenario(profile, seed)
    assert first.digest == second.digest
    assert first.violations == second.violations
    assert first.faults_fired == second.faults_fired
    assert first.checks_run == second.checks_run
    assert first.notes == second.notes


def test_plan_building_is_pure():
    for profile in PROFILES:
        a = build_plan(profile, 77)
        b = build_plan(profile, 77)
        assert a.describe() == b.describe()
        assert len(a) == len(b)


def test_world_building_is_deterministic():
    """Two worlds from one seed run the same workload-free simulation:
    identical topology yields an identical (empty) trace digest, and the
    netem/bottleneck choices derived from the seed agree."""
    a = build_world("pmtud", 31)
    b = build_world("pmtud", 31)
    assert a.links["far_in"].mtu == b.links["far_in"].mtu
    assert set(a.links) == set(b.links)
    assert trace_digest(a.taps.values()) == trace_digest(b.taps.values())


def test_different_seeds_diverge():
    """Sanity check that the digest actually reflects behaviour: three
    different seeds on one profile give three different traces."""
    digests = {run_scenario("caravan", seed).digest for seed in (1, 2, 3)}
    assert len(digests) == 3
