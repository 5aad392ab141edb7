"""Sequential regression search space over atom sets.

Edge deltas are action costs in the problem's integer units of 1/scale;
`estimate` gives the searches a state's heuristic value in those units and
`evaluate` the same value as a Fraction.  A space built on the `Mutex` of
the base table never regresses into a set that holds a mutex.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from .htable import HeuristicTable
from .model import AtomSet, Cost, GroundAction, Problem, Units
from .mutex import Mutex, no_mutex


def final_seq(s: AtomSet, init: AtomSet) -> bool:
    return s <= init


_index = attrgetter("index")


class SeqEdge(NamedTuple):
    state: AtomSet
    delta: int  # the action's cost in units of 1/scale
    actions: tuple[GroundAction, ...]  # single regressing action


def successors_seq(problem: Problem, s: AtomSet, mutex: Mutex | None = None) -> list[SeqEdge]:
    """One edge per action that regresses s (it adds an atom of s and deletes
    none), in action index order: s minus its adds plus its preconditions.
    Given the `mutex` of the base table, the actions whose child would hold
    a mutex, the dead ones, are left out too: a dead child's estimate is
    INF, so no search expands it.  Without `mutex`, none is dead."""
    blocking = (no_mutex(problem) if mutex is None else mutex).blocking
    adders, cost = problem.adders, problem.cost_units
    candidates = sorted({a for p in s for a in adders[p]}, key=_index)
    held = 0
    for p in s:
        held |= 1 << p
    return [SeqEdge((s - a.add) | a.pre, cost[a], (a,))
            for a in candidates if not blocking[a.index] & held]


class SequentialSpace:
    """Uniform search-space interface used by IDA* and IDAO*.  Built on the
    `mutex` of the complete h^m table, the space never generates a child
    that holds a mutex: such a child's estimate is INF under any table that
    rises from that one."""

    def __init__(self, problem: Problem, mutex: Mutex | None = None):
        self.problem = problem
        self.mutex = no_mutex(problem) if mutex is None else mutex

    def root(self) -> AtomSet:
        return self.problem.goal

    def is_final(self, s: AtomSet) -> bool:
        return final_seq(s, self.problem.init)

    def successors(self, s: AtomSet, forbidden: int = 0):
        """Returns (edges, cut_count); sequential search has no cut rule."""
        return successors_seq(self.problem, s, self.mutex), 0

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
