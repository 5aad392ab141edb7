"""Sequential regression search space over atom sets.

A state is an atom set as an int mask (bit p for atom p), the goal's at the
root.  Edge deltas are action costs in the problem's integer units of
1/scale; `estimate` gives the searches a state's heuristic value in those
units and `evaluate` the same value as a Fraction.  A space built on the
`Mutex` of the base table never regresses into a set that holds a mutex.
"""

from __future__ import annotations

from typing import NamedTuple

from .htable import HeuristicTable
from .model import AtomMask, Cost, GroundAction, Problem, Units
from .mutex import Mutex, no_mutex


class SeqEdge(NamedTuple):
    state: AtomMask
    delta: int  # the action's cost in units of 1/scale
    actions: tuple[GroundAction, ...]  # single regressing action


def successors_seq(problem: Problem, s: AtomMask, mutex: Mutex | None = None) -> list[SeqEdge]:
    """One edge per action that regresses s (it adds an atom of s and deletes
    none), in action index order: s minus its adds plus its preconditions.
    Given the `mutex` of the base table, the actions whose child would hold
    a mutex, the dead ones, are left out too: a dead child's estimate is
    INF, so no search expands it.  Without `mutex`, none is dead."""
    blocking = (no_mutex(problem) if mutex is None else mutex).blocking
    actions, adds, pre, cost = (problem.actions, problem.add_masks, problem.pre_masks,
                                problem.cost_units)
    candidates = problem.adders_of(s)
    edges = []
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        i = low.bit_length() - 1
        if not blocking[i] & s:
            a = actions[i]
            edges.append(SeqEdge(s & ~adds[i] | pre[i], cost[a], (a,)))
    return edges


class SequentialSpace:
    """Uniform search-space interface used by IDA* and IDAO*.  Built on the
    `mutex` of the complete h^m table, the space never generates a child
    that holds a mutex: such a child's estimate is INF under any table that
    rises from that one."""

    def __init__(self, problem: Problem, mutex: Mutex | None = None):
        self.problem = problem
        self.mutex = no_mutex(problem) if mutex is None else mutex

    def root(self) -> AtomMask:
        return self.problem.goal_mask

    def is_final(self, s: AtomMask) -> bool:
        return not s & ~self.problem.init_mask

    def successors(self, s: AtomMask, forbidden: int = 0):
        """Returns (edges, cut_count); sequential search has no cut rule."""
        return successors_seq(self.problem, s, self.mutex), 0

    def forbidden(self, via) -> int:
        return 0

    def estimate(self, table: HeuristicTable, s: AtomMask) -> Units:
        return table.eval(s)

    def evaluate(self, table: HeuristicTable, s: AtomMask) -> Cost:
        return self.problem.to_cost(table.eval(s))

    def atoms_of(self, s: AtomMask) -> AtomMask:
        return s

    def from_atoms(self, atoms: AtomMask) -> AtomMask:
        return atoms

    def store_value(self, table: HeuristicTable, s: AtomMask, cost: Units) -> None:
        table.store(s, cost)
