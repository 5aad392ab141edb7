"""Iterative-deepening AND/OR search over the m-regression space.

States of size <= m are OR-nodes, expanded by ordinary regression; larger
states are AND-nodes, expanded into all their size-m subsets, each solved by
a nested iterative-deepening search bounded by the parent's bound.  Exact
costs of solved nodes go into a per-pass solved table; improved lower bounds
of OR-nodes go into the shared heuristic table as a side effect, which is the
whole point: they raise later heuristic evaluations.

No transposition table and no right-shift cuts are used here.  Like IDA*,
the search counts in the problem's integer units of 1/scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .htable import HeuristicTable
from .idastar import build_plan
from .metrics import AND, OR, Recorder
from .model import INF, AtomSet, Plan, Units


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


@dataclass
class PassResult:
    cost: Units  # exact if solved, else a lower bound above the limit or INF
    solved: bool
    # No AND node was expanded: the pass was a complete regression search,
    # so its cost is exact and, when solved, it carries the plan.
    complete: bool
    plan: Plan | None = None


class IdaoSearch:
    """One m-regression pass; the solved table lives exactly as long as the
    instance, the heuristic table is shared and only ever improves."""

    def __init__(
        self,
        space,
        table: HeuristicTable,
        m: int,
        solved_capacity: int = 1 << 16,
        recorder: Recorder | None = None,
    ) -> None:
        self.space = space
        self.table = table
        self.m = m
        self.solved = SolvedTable(solved_capacity)
        self.recorder = recorder
        self.complete = True
        self._solved_flag = False
        self._chain: list | None = None
        # Any solvable node has a witness chain visiting each size-<=m set at
        # most once, so its cost is capped by one worst-case step per set.
        # Climbing past the cap therefore proves the node unsolvable, which
        # keeps open-ended runs from deepening forever.
        problem = space.problem
        n_sets = sum(math.comb(len(problem.atoms), k) for k in range(m + 1))
        steps = [max(problem.cost_units[a], problem.dur_units[a]) for a in problem.actions]
        self._value_cap = n_sets * max(steps, default=0)

    def run(self, bound: Units = INF) -> PassResult:
        """Search the problem goals to the given cost limit (in units).  An
        unsolved pass returns INF if the relaxed problem has no solution,
        else the least cost above the limit it could not rule out."""
        root = self.space.root()
        cost, solved = self._idao_star(root, bound, top=True)
        plan = None
        if solved and self._chain is not None:
            plan = build_plan(self.space, list(reversed(self._chain)))
        return PassResult(cost, solved, self.complete, plan)

    def _idao_star(self, state, bound: Units, top: bool) -> tuple[Units, bool]:
        self._solved_flag = False
        space = self.space
        current = space.estimate(self.table, state)
        # The bound test is inclusive: a node whose estimate equals the limit
        # still gets one search, which either solves it or proves a larger
        # cost.  A strict test can return the unimproved estimate forever.
        while current <= bound and not self._solved_flag:
            if current == INF:
                break
            if current > self._value_cap:
                current = INF
                break
            if top and self.recorder:
                self.recorder.bound(f"idao:{self.m}", space.problem.to_cost(current))
            # Each search gets its own path: an AND node's subsets start afresh.
            new = self._dfs(state, current, set())
            assert self._solved_flag or new > current
            current = new
        return current, self._solved_flag

    def _dfs(self, state, bound: Units, on_path: set) -> Units:
        space = self.space
        if space.is_final(state):
            self._solved_flag = True
            self._chain = []
            return 0
        # AND nodes are solved by their atoms, OR nodes by the state itself.
        atoms = space.atoms_of(state)
        is_and = len(atoms) > self.m
        hit = self.solved.get(atoms if is_and else state)
        if self.recorder:
            self.recorder.solved_table(hit is not None)
        if hit is not None:
            self._solved_flag = True
            self._chain = None
            return hit
        if is_and:
            return self._expand_and(atoms, bound)
        return self._expand_or(state, atoms, bound, on_path)

    def _expand_and(self, atoms: AtomSet, bound: Units) -> Units:
        space = self.space
        self.complete = False
        subsets = enumerate_and_successors(atoms, self.m)
        if self.recorder:
            self.recorder.expansion(AND, len(atoms), tuple(len(s) for s in subsets))
        worst = 0
        all_solved = True
        for sub in subsets:
            cost, solved = self._idao_star(space.from_atoms(sub), bound, top=False)
            if cost > bound:
                # This subset alone exceeds the bound; the node's cost does too.
                self._solved_flag = False
                self._chain = None
                return cost
            if not solved:
                all_solved = False
            if cost > worst:
                worst = cost
        self._solved_flag = all_solved
        self._chain = None
        if all_solved:
            self.solved.put(atoms, worst)
        return worst

    def _expand_or(self, state, atoms: AtomSet, bound: Units, on_path: set) -> Units:
        space = self.space
        edges, _ = space.successors(state)
        if self.recorder:
            self.recorder.expansion(OR, len(atoms),
                                    tuple(len(space.atoms_of(e.state)) for e in edges))
        # best: least cost not proven exceeded, used as the next bound; every
        # contribution exceeds the current bound, so iteration always makes
        # progress.  Branches closing a cycle on the current path are left out
        # of it (the optimal path is cycle-free, so nothing is lost).
        # store_best: sound lower bound for the table, rebuilt from post-search
        # child evaluations so it stays valid on every path, cycles included.
        best: Units = INF
        store_best: Units = INF
        estimate, table = space.estimate, self.table
        on_path.add(state)
        for edge in edges:
            est = edge.delta + estimate(table, edge.state)
            if edge.state in on_path:
                if est < store_best:
                    store_best = est
                continue
            if est <= bound:
                r = edge.delta + self._dfs(edge.state, bound - edge.delta, on_path)
                if self._solved_flag:
                    on_path.discard(state)
                    self.solved.put(state, r)
                    space.store_value(self.table, state, r)
                    if self._chain is not None:
                        self._chain.append(edge)
                    return r
                if r < best:
                    best = r
                # Re-evaluate: the child search may have improved the table.
                post = edge.delta + estimate(table, edge.state)
                if post < store_best:
                    store_best = post
            else:
                if est < best:
                    best = est
                if est < store_best:
                    store_best = est
        on_path.discard(state)
        self._solved_flag = False
        self._chain = None
        space.store_value(self.table, state, store_best)
        return best
