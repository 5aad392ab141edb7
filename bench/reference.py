"""Optimal costs computed apart from the planner.

Closed forms cover the families that have one; every other instance gets a
forward search of its own here, which shares nothing with the planner's
regression searches or heuristics (it reads only the ground Problem).

Recompute the reference of every instance of a workload with

    python3 bench/reference.py --workload seq-search --seed 1
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import math
from fractions import Fraction

import srcpath  # noqa: F401
from hmplan import Mode, Problem
from instances import WORKLOADS, workload


def gripper_cost(n: int) -> int:
    """Sequential gripper, n balls, two grippers: carry two balls a trip."""
    return 2 * n + 2 * math.ceil(n / 2) - 1


def chain_cost(n: int) -> int:
    return n


def growing_cost(depth: int, width: int) -> int:
    """Every atom of every layer above the base is made exactly once."""
    return sum(width ** k for k in range(depth))


def assembly_makespan(chains: list[list[Fraction]], final: Fraction) -> Fraction:
    """Independent chains run side by side; the final step waits for all."""
    return max(sum(c, Fraction(0)) for c in chains) + final


def relevant_actions(problem: Problem) -> list:
    """Actions that add a goal or a precondition of a relevant action.

    Dropping the others from a plan keeps it valid (conditions are positive)
    and never makes it longer, so optimal costs and makespans are unchanged.
    """
    needed = set(problem.goal)
    keep: set[int] = set()
    changed = True
    while changed:
        changed = False
        for a in problem.actions:
            if a.index not in keep and a.add & needed:
                keep.add(a.index)
                needed |= a.pre
                changed = True
    return [a for a in problem.actions if a.index in keep]


def forward_ucs(problem: Problem) -> Fraction | None:
    """Uniform-cost search over world states; None if the goal is unreachable."""
    actions = relevant_actions(problem)
    start = problem.init
    dist = {start: Fraction(0)}
    tick = itertools.count()
    heap = [(Fraction(0), next(tick), start)]
    while heap:
        d, _, s = heapq.heappop(heap)
        if d > dist[s]:
            continue
        if problem.goal <= s:
            return d
        for a in actions:
            if a.pre <= s:
                t = (s - a.delete) | a.add
                nd = d + a.cost
                if nd < dist.get(t, nd + 1):
                    dist[t] = nd
                    heapq.heappush(heap, (nd, next(tick), t))
    return None


def _compatible(a, b) -> bool:
    return not (a.delete & (b.pre | b.add) or b.delete & (a.pre | a.add))


def forward_layers(problem: Problem) -> Fraction | None:
    """Breadth-first search over world states, one step being any nonempty
    set of pairwise compatible applicable actions: the parallel makespan."""
    actions = relevant_actions(problem)
    frontier = {problem.init}
    seen = set(frontier)
    depth = 0
    while frontier:
        if any(problem.goal <= s for s in frontier):
            return Fraction(depth)
        depth += 1
        nxt = set()
        for s in frontier:
            usable = [a for a in actions if a.pre <= s]
            for step in _compatible_sets(usable):
                t = s
                for a in step:
                    t = t - a.delete
                for a in step:
                    t = t | a.add
                if t not in seen:
                    seen.add(t)
                    nxt.add(t)
        frontier = nxt
    return None


def _compatible_sets(actions: list) -> list[tuple]:
    out: list[tuple] = []

    def grow(i: int, picked: tuple) -> None:
        for j in range(i, len(actions)):
            a = actions[j]
            if all(_compatible(a, b) for b in picked):
                out.append(picked + (a,))
                grow(j + 1, picked + (a,))

    grow(0, ())
    return out


def reference(params: dict, problem: Problem) -> tuple[Fraction | None, str]:
    """The optimal cost (sequential) or makespan of an instance, and how it
    was obtained."""
    family = params.get("family")
    if family == "gripper" and problem.mode is Mode.SEQUENTIAL:
        return Fraction(gripper_cost(params["n"])), "closed form 2n + 2*ceil(n/2) - 1"
    if family == "growing" and problem.mode is Mode.SEQUENTIAL:
        return Fraction(growing_cost(params["d"], params["w"])), "closed form sum w^k, k < d"
    if family == "assembly":
        return assembly_makespan(params["chains"], params["final"]), \
            "closed form max chain + final"
    if problem.mode is Mode.SEQUENTIAL:
        return forward_ucs(problem), "forward uniform-cost search"
    if all(a.dur == 1 for a in problem.actions):
        # With unit durations every start falls on a whole step, so the
        # temporal makespan is the parallel one.
        return forward_layers(problem), "forward layered search"
    return None, "none"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    from worker import set_up  # worker imports this module through speed.py

    for inst in workload(args.workload, args.seed):
        value, how = reference(inst.params, set_up(inst))
        print(f"{inst.name}\t{value}\t{how}")


if __name__ == "__main__":
    main()
