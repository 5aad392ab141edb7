"""Sequential regression search space over atom sets.

Edge deltas are action costs in the problem's integer units of 1/scale;
`estimate` gives the searches a state's heuristic value in those units and
`evaluate` the same value as a Fraction.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .htable import HeuristicTable
from .model import AtomSet, Cost, GroundAction, Problem, Units


def final_seq(s: AtomSet, init: AtomSet) -> bool:
    return s <= init


_index = attrgetter("index")


class SeqEdge(NamedTuple):
    state: AtomSet
    delta: int  # the action's cost in units of 1/scale
    actions: tuple[GroundAction, ...]  # single regressing action


def successors_seq(problem: Problem, s: AtomSet) -> list[SeqEdge]:
    """One edge per action that regresses s (it adds an atom of s and deletes
    none), in action index order: s minus its adds plus its preconditions."""
    adders, cost = problem.adders, problem.cost_units
    candidates = sorted({a for p in s for a in adders[p]}, key=_index)
    return [SeqEdge((s - a.add) | a.pre, cost[a], (a,))
            for a in candidates if not a.delete & s]


class SequentialSpace:
    """Uniform search-space interface used by IDA* and IDAO*."""

    def __init__(self, problem: Problem):
        self.problem = problem

    def root(self) -> AtomSet:
        return self.problem.goal

    def is_final(self, s: AtomSet) -> bool:
        return final_seq(s, self.problem.init)

    def successors(self, s: AtomSet, forbidden: int = 0):
        """Returns (edges, cut_count); sequential search has no cut rule."""
        return successors_seq(self.problem, s), 0

    def forbidden(self, via) -> int:
        return 0

    def estimate(self, table: HeuristicTable, s: AtomSet) -> Units:
        return table.eval(s)

    def evaluate(self, table: HeuristicTable, s: AtomSet) -> Cost:
        return self.problem.to_cost(table.eval(s))

    def atoms_of(self, s: AtomSet) -> AtomSet:
        return s

    def from_atoms(self, atoms: AtomSet) -> AtomSet:
        return atoms

    def store_value(self, table: HeuristicTable, s: AtomSet, cost: Units) -> None:
        table.store(s, cost)
