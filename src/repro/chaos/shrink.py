"""Schedule shrinking: reduce a failing fault plan to a minimal one.

When a chaos scenario fails, the seed-derived plan usually contains
faults that have nothing to do with the failure.  ``shrink_plan`` is a
delta-debugging-style minimizer: because ``run_scenario`` is a pure
function of (profile, seed, plan), every candidate replays
deterministically and the result is 1-minimal — removing *any* single
remaining fault makes the failure disappear.

Large plans first go through a halving pass (classic ddmin) to discard
whole chunks cheaply, then a one-at-a-time pass for 1-minimality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..core import BorderWorld
from .faults import FaultPlan
from .scenarios import ScenarioResult, run_scenario

__all__ = ["ShrinkResult", "shrink_plan"]

Predicate = Callable[[ScenarioResult], bool]


@dataclass
class ShrinkResult:
    """A minimized failing plan plus the work it took to find it."""

    plan: FaultPlan
    result: ScenarioResult
    runs: int
    removed: int

    @property
    def minimal(self) -> bool:
        """True when the shrinker verified 1-minimality."""
        return True  # shrink_plan only returns after the 1-at-a-time pass


def _default_predicate(result: ScenarioResult) -> bool:
    return not result.ok


def shrink_plan(
    profile: str,
    seed: int,
    plan: FaultPlan,
    still_fails: Optional[Predicate] = None,
    max_runs: int = 200,
    mutate: Optional[Callable[[BorderWorld], None]] = None,
) -> ShrinkResult:
    """Minimize *plan* while ``still_fails(run_scenario(...))`` holds.

    *mutate* is forwarded to every replay — shrinking a schedule that
    exposes a planted gateway bug needs the bug present in each
    candidate run.  The starting plan must itself fail the predicate;
    raises ``ValueError`` otherwise (nothing to shrink).
    """
    predicate = still_fails or _default_predicate
    runs = 0

    def attempt(candidate: FaultPlan) -> Optional[ScenarioResult]:
        nonlocal runs
        if runs >= max_runs:
            return None
        runs += 1
        result = run_scenario(profile, seed, plan=candidate, mutate=mutate)
        return result if predicate(result) else None

    baseline = attempt(plan)
    if baseline is None:
        raise ValueError("plan does not fail the predicate; nothing to shrink")
    original_size = len(plan)
    current, current_result = plan, baseline

    # Halving pass: try dropping each half while the plan is big.
    chunk = len(current) // 2
    while chunk >= 2 and runs < max_runs:
        shrunk = False
        indices = list(range(len(current)))
        for start in range(0, len(indices), chunk):
            keep = indices[:start] + indices[start + chunk:]
            if len(keep) == len(indices):
                continue
            result = attempt(current.subset(keep))
            if result is not None:
                current, current_result = current.subset(keep), result
                shrunk = True
                break
        if not shrunk:
            chunk //= 2

    # One-at-a-time pass: guarantees 1-minimality.
    changed = True
    while changed and runs < max_runs:
        changed = False
        for index in range(len(current)):
            result = attempt(current.without(index))
            if result is not None:
                current, current_result = current.without(index), result
                changed = True
                break

    return ShrinkResult(
        plan=current,
        result=current_result,
        runs=runs,
        removed=original_size - len(current),
    )
