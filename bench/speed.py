"""The speed of the machine, measured next to every timed call.

The machine the benchmark runs on changes speed by up to a factor of two
over tens of seconds (see README.md), which no run length averages out.  A
worker therefore times a fixed piece of the benchmark's own work, a forward
uniform-cost search from reference.py on a gripper problem built here,
after every timed planner call, for SHARE of the call's time or at least
once.  Nothing of the planner runs in it, so a change to the planner cannot
move it.  A round's times are scaled by REFERENCE_S / (the median
calibration time of the round), which gives them at the speed where one
calibration search takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from types import SimpleNamespace

from reference import forward_ucs

# Scaled times are given at the speed where one calibration search takes
# this long; on the machine in README.md one took 15 to 30 ms.
REFERENCE_S = 0.02
# Calibration time after a timed call, as a share of the call's time.
SHARE = 0.2
BALLS = 5


def _gripper(n: int) -> SimpleNamespace:
    """Sequential gripper, n balls from room 0 to room 1, two grippers,
    with integer atoms and unit costs, in the shape forward_ucs reads."""
    atoms: dict[tuple, int] = {}

    def atom(*key) -> int:
        return atoms.setdefault(key, len(atoms))

    actions = []

    def action(pre, add, delete) -> None:
        actions.append(SimpleNamespace(
            index=len(actions), pre=frozenset(pre), add=frozenset(add),
            delete=frozenset(delete), cost=Fraction(1)))

    for r in (0, 1):
        action([atom("robby", r)], [atom("robby", 1 - r)], [atom("robby", r)])
        for b in range(n):
            for g in (0, 1):
                at, carry, free = atom("at", b, r), atom("carry", b, g), atom("free", g)
                action([at, atom("robby", r), free], [carry], [at, free])
                action([carry, atom("robby", r)], [at, free], [carry])
    init = [atom("robby", 0), atom("free", 0), atom("free", 1)]
    init += [atom("at", b, 0) for b in range(n)]
    return SimpleNamespace(actions=actions, init=frozenset(init),
                           goal=frozenset(atom("at", b, 1) for b in range(n)))


PROBLEM = _gripper(BALLS)
COST = 2 * BALLS + 2 * ((BALLS + 1) // 2) - 1


def calibrate() -> float:
    """Wall time of one calibration search.  The garbage collector is off
    meanwhile, so that the planner's live objects, which a full collection
    would walk, cannot slow it down; the search makes no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        cost = forward_ucs(PROBLEM)
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if cost != COST:
        raise RuntimeError(f"calibration search found cost {cost}, not {COST}")
    return elapsed


def calibrate_after(seconds: float) -> list[float]:
    """Calibration searches for SHARE of `seconds`, at least one."""
    times = [calibrate()]
    while sum(times) < SHARE * seconds:
        times.append(calibrate())
    return times
