"""Iterative-deepening AND/OR search over the m-regression space.

States of size <= m are OR-nodes, expanded by ordinary regression; larger
states are AND-nodes, expanded into all their size-m subsets, each solved by
a nested iterative-deepening search bounded by the parent's bound.  Exact
costs of solved nodes go into a per-pass solved table; improved lower bounds
of OR-nodes go into the shared heuristic table as a side effect, which is the
whole point: they raise later heuristic evaluations.  In temporal mode a pass
may raise a set above its complete h^m, soundly: a pass searches a state
(E, F) exactly, while the GBF relaxes it by `relax_state`.

A node is entered as in IDA*: one settle step gives a final state cost 0,
and a state found in the solved table its exact cost, by a plain call.  A
subset of an AND node settles before it is estimated; a child of an OR node
is estimated first, for the bound test, and settles before it is expanded.
A search root is never looked up: a pass starts with an empty solved table,
and a subset is searched again only after an iteration that did not solve
it.  Every other node is expanded by a generator, run by `idastar.drive`;
either way a call gives a (cost, solved) pair.

Each node carries down the estimate it was entered with, h.  An OR node
writes the heuristic table once, when it returns, and only a value above h:
its exact cost if solved, else the least bound over its children.  A value
at most h changes no evaluation, as the table only rises.  That holds for a
temporal state too: `storage_value` stores at its relaxed atoms less its
largest offset, and h is at most that offset plus their value.

A pass returns an `idastar.SearchResult`: unsolvable, at the limit with the
next bound, or solved with the relaxed cost.  A pass that expanded no AND
node was a complete regression search, so its result carries the plan.

No transposition table and no right-shift cuts are used here.  Like IDA*,
the search counts in the problem's integer units of 1/scale.
"""

from __future__ import annotations

import itertools
import math

from .htable import HeuristicTable
from .idastar import SearchResult, build_plan, drive
from .metrics import AND, OR, Recorder
from .model import INF, AtomSet, Units


class SolvedTable:
    """Fixed-capacity closed hash map of exactly solved nodes; on collision
    the previous entry is simply overwritten."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots: list[tuple[object, Units] | None] = [None] * capacity

    def get(self, key) -> Units | None:
        slot = self._slots[hash(key) % self.capacity]
        if slot is not None and slot[0] == key:
            return slot[1]
        return None

    def put(self, key, cost: Units) -> None:
        self._slots[hash(key) % self.capacity] = (key, cost)


def enumerate_and_successors(atoms: AtomSet, m: int) -> list[AtomSet]:
    """All size-m subsets in lexical (ascending id) order.  Smaller subsets
    are dominated under max-evaluation, so only exact size m is generated."""
    assert len(atoms) > m
    return [frozenset(c) for c in itertools.combinations(sorted(atoms), m)]


class IdaoSearch:
    """One m-regression pass; the solved table lives exactly as long as the
    instance, the heuristic table is shared and only ever improves."""

    def __init__(self, space, table: HeuristicTable, m: int,
                 solved_capacity: int = 1 << 16, recorder: Recorder | None = None) -> None:
        self.space = space
        self.table = table
        self.m = m
        self.solved = SolvedTable(solved_capacity)
        self.recorder = recorder
        # No AND node expanded yet: the pass is a complete regression search.
        self.complete = True
        self._solution: list = []  # the solved path's edges, final state first
        self._searching: set = set()  # the states of the enclosing _idao_star calls
        # Any solvable node has a witness chain visiting each size-<=m set at
        # most once, so its cost is capped by one worst-case step per set.
        # Climbing past the cap therefore proves the node unsolvable, which
        # keeps open-ended runs from deepening forever.
        problem = space.problem
        n_sets = sum(math.comb(len(problem.atoms), k) for k in range(m + 1))
        steps = [max(problem.cost_units[a], problem.dur_units[a]) for a in problem.actions]
        self._value_cap = n_sets * max(steps, default=0)

    def run(self, bound: Units = INF) -> SearchResult:
        """Search the problem goals to the given cost limit (in units).  The
        result is unsolvable when the relaxed problem has no solution, and
        at the limit, with the least cost above it that could not be ruled
        out, when the search did not solve it within the limit."""
        root = self.space.root()
        # The solved table is empty yet, so only a final root settles.
        search = (0, True) if self.space.is_final(root) else self._idao_star(root, bound, top=True)
        cost, solved = search if type(search) is tuple else drive(search)
        if cost == INF:
            return SearchResult("unsolvable")
        if not solved or cost > bound:
            return SearchResult("limit", next_bound=cost)
        # A complete pass is an exact regression search, so its solution
        # path is a plan.
        plan = build_plan(self.space, self._solution[::-1]) if self.complete else None
        return SearchResult("solved", cost, plan)

    def _settle(self, state):
        """(0, True) for a final state, (cost, True) for a solved one, None
        for a state that must be searched."""
        if self.space.is_final(state):
            return 0, True
        atoms = self.space.atoms_of(state)
        # AND nodes are solved by their atoms, OR nodes by the state itself.
        hit = self.solved.get(atoms if len(atoms) > self.m else state)
        if self.recorder:
            self.recorder.solved_table(hit is not None)
        return None if hit is None else (hit, True)

    def _idao_star(self, state, bound: Units, top: bool = False):
        # A state met again inside its own search, as a subset of an AND node
        # it reached, would be searched afresh, and over zero-cost edges at
        # the same bound forever.  Its cost through that node is at least its
        # own, so, like an on-path state in _expand_or, it is left out.
        if state in self._searching:
            return INF, False
        search = None if top else self._settle(state)
        if search is not None:
            return search
        h = self.space.estimate(self.table, state)
        search = self._search(state, h, h, bound, top)
        if type(search) is tuple:
            return search
        return self._deepen(state, h, bound, top, search)

    def _search(self, state, h: Units, current: Units, bound: Units, top: bool):
        # The bound test is inclusive: a node whose estimate equals the limit
        # still gets one search, which either solves it or proves a larger
        # cost.  A strict test can return the unimproved estimate forever.
        if current > bound or current == INF:
            return current, False
        if current > self._value_cap:
            return INF, False
        if top and self.recorder:
            self.recorder.bound(f"idao:{self.m}", self.space.problem.to_cost(current))
        # Each search gets its own path: an AND node's subsets start afresh.
        return self._expand(state, h, current, set())

    def _deepen(self, state, h: Units, bound: Units, top: bool, search):
        # Search at rising bounds, from the expanding `search` on.
        self._searching.add(state)
        current = h
        while type(search) is not tuple:
            new, solved = yield search
            assert solved or new > current
            current = new
            search = (new, True) if solved else self._search(state, h, new, bound, top)
        self._searching.discard(state)
        return search

    def _expand(self, state, h: Units, bound: Units, on_path: set):
        atoms = self.space.atoms_of(state)
        if len(atoms) > self.m:
            return self._expand_and(atoms, bound)
        return self._expand_or(state, atoms, h, bound, on_path)

    def _expand_and(self, atoms: AtomSet, bound: Units):
        space = self.space
        self.complete = False
        subsets = enumerate_and_successors(atoms, self.m)
        if self.recorder:
            self.recorder.expansion(AND, len(atoms), tuple(len(s) for s in subsets))
        worst, all_solved = 0, True
        for sub in subsets:
            search = self._idao_star(space.from_atoms(sub), bound)
            cost, solved = search if type(search) is tuple else (yield search)
            if cost > bound:
                # This subset alone exceeds the bound; the node's cost does too.
                return cost, False
            all_solved = all_solved and solved
            if cost > worst:
                worst = cost
        if all_solved:
            self.solved.put(atoms, worst)
        return worst, all_solved

    def _expand_or(self, state, atoms: AtomSet, h: Units, bound: Units, on_path: set):
        space = self.space
        edges, _ = space.successors(state)
        if self.recorder:
            self.recorder.expansion(OR, len(atoms),
                                    tuple(len(space.atoms_of(e.state)) for e in edges))
        # best: least cost not proven exceeded, used as the next bound; every
        # contribution exceeds the current bound, so iteration always makes
        # progress.  Branches closing a cycle on the current path are left out
        # of it (the optimal path is cycle-free, so nothing is lost).
        # store_best: the least bound over all children, cycles included, each
        # the child's estimate after its search: valid on every path, so the
        # node writes it to the table when it exceeds h.
        best: Units = INF
        store_best: Units = INF
        estimate, table = space.estimate, self.table
        on_path.add(state)
        for edge in edges:
            child = edge.state
            est = edge.delta + estimate(table, child)
            if child in on_path:
                if est < store_best:
                    store_best = est
                continue
            if est <= bound:
                search = (self._settle(child)
                          or self._expand(child, est - edge.delta, bound - edge.delta, on_path))
                value, solved = search if type(search) is tuple else (yield search)
                r = edge.delta + value
                if solved:
                    on_path.discard(state)
                    self.solved.put(state, r)
                    if r > h:
                        space.store_value(table, state, r)
                    if self.complete:
                        self._solution.append(edge)
                    return r, True
                # Re-evaluate: the child search may have improved the table.
                post = edge.delta + estimate(table, child)
            else:
                r = post = est
            if r < best:
                best = r
            if post < store_best:
                store_best = post
        on_path.discard(state)
        if store_best > h:
            space.store_value(table, state, store_best)
        return best, False
