"""Mutexes: the atoms and pairs the complete h^m fixpoint never reaches.

A set that holds such an atom or pair is worth INF under the complete h^m
table, so no plan reaches it either.  HSPr pruned spurious regression states
so (Bonet and Geffner, "Planning as heuristic search", 2001).
`hm.compute_base_heuristic` gives the `Mutex` of the table its fixpoint
fills: the atoms and pairs missing from the top level of each atom's list.
A search space built on it never generates a child that holds a mutex.
`no_mutex` is the empty relation, which prunes nothing: the spaces built
without a table and the GBF regress by it.
"""

from __future__ import annotations

from collections.abc import Callable
from weakref import WeakKeyDictionary

from .htable import HeuristicTable
from .model import Problem


class LazyMap(dict):
    """A dict that builds the value of a missing key once, by its function."""

    def __init__(self, build: Callable) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class Mutex:
    """`atoms[p]` is the bitmask of the atoms that p is mutex with: the b
    whose pair with p has no finite value, or every atom (-1) if p itself
    has none.  The relation is symmetric, and a dead atom, one without a
    finite value, is in every atom's mask.  `pre[i]` is the union of
    atoms[p] over the preconditions p of the action of index i, or -1 if
    they hold a mutex themselves.

    `blocking[i]` is the bitmask of the atoms of a state s that rule the
    action of index i out of sequential regression: its deletes, and the
    atoms mutex with its preconditions that it does not add.  For an s that
    holds no mutex, the child (s - add(a)) | pre(a) holds one exactly when
    s - add(a) meets the latter, or pre(a) holds one itself; such an action
    is ruled out everywhere, by every atom (-1).

    The relation is read off the `table` when it is built, so later stores
    leave it as it is: p's top level (`HeuristicTable.top`) holds the atoms
    whose pair with p is finite, p itself unless it is dead.  A table that
    holds no pair (h^1) has every atom in every top level, so only the dead
    atoms are mutexes; without a table nothing is.  The masks of a nonempty
    relation are built on first use: a search over a large grounding
    regresses only a small share of its atoms and actions."""

    def __init__(self, problem: Problem, table: HeuristicTable | None = None) -> None:
        if table is None:
            self.atoms = (0,) * len(problem.atoms)
            self.pre = (0,) * len(problem.actions)
            self.blocking = problem.delete_masks
            return
        self._all = (1 << len(problem.atoms)) - 1
        self._top = [table.top(p) & self._all for p in range(len(problem.atoms))]
        self._dead = sum(1 << p for p, top in enumerate(self._top) if not top >> p & 1)
        self._problem = problem
        self.atoms = LazyMap(self._atom)
        self.pre = LazyMap(self._pre)
        self.blocking = LazyMap(self._blocking)

    def _atom(self, p: int) -> int:
        if self._dead >> p & 1:
            return -1
        # The atoms outside p's top level, and the dead ones, which a table
        # without pairs keeps there.
        return self._all & ~self._top[p] | self._dead

    def _pre(self, i: int) -> int:
        mask = 0
        for p in self._problem.actions[i].pre:
            mask |= self.atoms[p]
        return -1 if mask & self._problem.pre_masks[i] else mask

    def _blocking(self, i: int) -> int:
        near = self.pre[i]
        if near < 0:
            return -1
        a = self._problem.actions[i]
        for p in a.add:
            near &= ~(1 << p)
        for p in a.delete:
            near |= 1 << p
        return near


_EMPTY: WeakKeyDictionary[Problem, Mutex] = WeakKeyDictionary()


def no_mutex(problem: Problem) -> Mutex:
    """The empty relation over the problem's atoms, built once per problem."""
    found = _EMPTY.get(problem)
    if found is None:
        found = _EMPTY[problem] = Mutex(problem)
    return found
