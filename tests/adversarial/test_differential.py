"""The differential attack corpus: hardened holds, unhardened breaks.

Every scenario in :data:`repro.chaos.ATTACK_SCENARIOS` is run twice —
once with every defense on, once with the paper's original trusting
stack — and the compromise predicate must separate the two.  That is
the teeth of this PR: a defense that cannot be shown *off* is not
demonstrably a defense.
"""

import json
import os

import pytest

from repro.chaos import ATTACK_SCENARIOS, attack_corpus, build_attack_plan

from .conftest import DIFF_SEED, differential

ALL_SCENARIOS = sorted(ATTACK_SCENARIOS)
ATTACKS = [name for name in ALL_SCENARIOS if name != "benign-control"]

# The plausibility band the hardened stack enforces: [576, bottleneck].
PLAUSIBLE_FLOOR = 576
BOTTLENECK_MTU = 1280

_GOLDEN = os.path.join(os.path.dirname(__file__), "attack_digests.json")


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_hardened_stack_not_compromised(name):
    hardened, _ = differential(name)
    assert not hardened.compromised, (
        f"hardened stack compromised under {name}: {hardened.notes}"
    )


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_hardened_stack_no_oracle_violations(name):
    hardened, _ = differential(name)
    assert hardened.violations == [], (
        f"oracle violations under {name}: {hardened.violations}"
    )


@pytest.mark.parametrize("name", ATTACKS)
def test_unhardened_stack_is_compromised(name):
    _, unhardened = differential(name)
    assert unhardened.compromised, (
        f"attack {name} did not measurably break the unhardened stack — "
        f"the differential has no teeth: {unhardened.notes}"
    )


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_hardened_estimates_stay_in_plausible_band(name):
    hardened, _ = differential(name)
    for estimate in hardened.estimates:
        assert PLAUSIBLE_FLOOR <= estimate <= BOTTLENECK_MTU, (
            f"{name}: hardened stack acted on estimate {estimate} B "
            f"outside [{PLAUSIBLE_FLOOR}, {BOTTLENECK_MTU}]"
        )


def test_benign_control_is_safe_in_both_modes():
    hardened, unhardened = differential("benign-control")
    assert not hardened.compromised
    assert not unhardened.compromised


def test_corpus_enumerates_every_scenario():
    corpus = attack_corpus()
    assert [name for name, _seed in corpus] == ALL_SCENARIOS
    assert all(seed == DIFF_SEED for _name, seed in corpus)


def test_corpus_has_all_attack_families():
    # One registered scenario per documented attack family, at least.
    kinds = {
        "forged-report": [n for n in ALL_SCENARIOS if n.startswith("forged-report")],
        "lying-daemon": [n for n in ALL_SCENARIOS if n.startswith("lying-daemon")],
        "forged-ptb": [n for n in ALL_SCENARIOS if "ptb" in n],
        "cache-poison": [n for n in ALL_SCENARIOS if "poison" in n],
        "echo-forgery": [n for n in ALL_SCENARIOS if "echo" in n],
    }
    for family, members in kinds.items():
        assert members, f"no scenario covers the {family} family"


def test_unknown_scenario_is_rejected():
    with pytest.raises(ValueError, match="unknown attack scenario"):
        build_attack_plan("no-such-attack")


@pytest.mark.parametrize("name", ATTACKS)
def test_every_attack_scenario_fires_faults(name):
    plan = build_attack_plan(name)
    assert plan.attack_faults or plan.link_faults, (
        f"{name} registers no faults — it cannot be attacking anything"
    )


def test_scenarios_carry_descriptions():
    for name, scenario in ATTACK_SCENARIOS.items():
        assert scenario.description, f"{name} has no description"


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_digests_and_verdicts_match_golden(name):
    # Pins every scenario's trace digest and compromise verdict in both
    # modes, so a refactor of the attack world cannot move a packet.
    with open(_GOLDEN) as handle:
        golden = json.load(handle)
    assert golden["seed"] == DIFF_SEED
    hardened, unhardened = differential(name)
    assert {
        "hardened": {"digest": hardened.digest,
                     "compromised": hardened.compromised},
        "unhardened": {"digest": unhardened.digest,
                       "compromised": unhardened.compromised},
    } == golden["scenarios"][name]


def test_golden_covers_every_scenario():
    with open(_GOLDEN) as handle:
        assert sorted(json.load(handle)["scenarios"]) == ALL_SCENARIOS
