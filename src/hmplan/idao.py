"""Iterative-deepening AND/OR search over the m-regression space.

States of size <= m are OR-nodes, expanded by ordinary regression; larger
states are AND-nodes, expanded into all their size-m subsets, each solved by
a nested iterative-deepening search bounded by the parent's bound.  Exact
costs of solved nodes go into a per-pass solved table; improved lower bounds
of OR-nodes go into the shared heuristic table as a side effect, which is the
whole point: they raise later heuristic evaluations.

No transposition table and no right-shift cuts are used here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .htable import HeuristicTable
from .idastar import build_plan
from .metrics import AND, OR, Recorder
from .model import INF, ZERO, AtomSet, Cost, Plan


class SolvedTable:
    """Fixed-capacity closed hash map of exactly solved nodes; on collision
    the previous entry is simply overwritten."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots: list[tuple[object, Cost] | None] = [None] * capacity

    def get(self, key) -> Cost | None:
        slot = self._slots[hash(key) % self.capacity]
        if slot is not None and slot[0] == key:
            return slot[1]
        return None

    def put(self, key, cost: Cost) -> None:
        self._slots[hash(key) % self.capacity] = (key, cost)


def enumerate_and_successors(atoms: AtomSet, m: int) -> list[AtomSet]:
    """All size-m subsets in lexical (ascending id) order.  Smaller subsets
    are dominated under max-evaluation, so only exact size m is generated."""
    assert len(atoms) > m
    return [frozenset(c) for c in itertools.combinations(sorted(atoms), m)]


@dataclass
class PassResult:
    cost: Cost
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
        n = len(space.problem.atoms)
        n_sets = sum(math.comb(n, k) for k in range(m + 1))
        steps = [max(a.cost, a.dur) for a in space.problem.actions]
        self._value_cap = n_sets * max(steps, default=ZERO)

    def run(self, bound: Cost = INF) -> PassResult:
        """Search the problem goals to the given cost limit."""
        root = self.space.root()
        cost, solved = self._idao_star(root, bound, top=True)
        plan = None
        if solved and self._chain is not None:
            plan = build_plan(self.space, list(reversed(self._chain)))
        return PassResult(cost, solved, self.complete, plan)

    def _idao_star(self, state, bound: Cost, top: bool) -> tuple[Cost, bool]:
        self._solved_flag = False
        current = self.space.evaluate(self.table, state)
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
                self.recorder.bound(f"idao:{self.m}", current)
            new = self._dfs(state, current, ())
            assert self._solved_flag or new > current
            current = new
        return current, self._solved_flag

    def _lookup_solved(self, key) -> Cost | None:
        hit = self.solved.get(key)
        if self.recorder:
            self.recorder.solved_table(hit is not None)
        return hit

    def _dfs(self, state, bound: Cost, path: tuple) -> Cost:
        space = self.space
        if space.is_final(state):
            self._solved_flag = True
            self._chain = []
            return ZERO
        size = space.size(state)
        if size > self.m:
            return self._expand_and(state, bound)
        return self._expand_or(state, bound, path)

    def _expand_and(self, state, bound: Cost) -> Cost:
        space = self.space
        atoms = space.atoms_of(state)
        hit = self._lookup_solved(atoms)
        if hit is not None:
            self._solved_flag = True
            self._chain = None
            return hit
        self.complete = False
        subsets = enumerate_and_successors(atoms, self.m)
        if self.recorder:
            self.recorder.expansion(AND, len(atoms), tuple(len(s) for s in subsets))
        worst: Cost = ZERO
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

    def _expand_or(self, state, bound: Cost, path: tuple) -> Cost:
        space = self.space
        key = space.key(state)
        hit = self._lookup_solved(key)
        if hit is not None:
            self._solved_flag = True
            self._chain = None
            return hit
        edges, _ = space.successors(state)
        if self.recorder:
            self.recorder.expansion(
                OR, space.size(state), tuple(space.size(e.state) for e in edges)
            )
        # best: least cost not proven exceeded, used as the next bound; every
        # contribution exceeds the current bound, so iteration always makes
        # progress.  Branches closing a cycle on the current path are left out
        # of it (the optimal path is cycle-free, so nothing is lost).
        # store_best: sound lower bound for the table, rebuilt from post-search
        # child evaluations so it stays valid on every path, cycles included.
        best: Cost = INF
        store_best: Cost = INF
        next_path = path + (state,)
        for edge in edges:
            est = edge.delta + space.evaluate(self.table, edge.state)
            if any(edge.state == anc for anc in next_path):
                if est < store_best:
                    store_best = est
                continue
            if est <= bound:
                r = edge.delta + self._dfs(edge.state, bound - edge.delta, next_path)
                if self._solved_flag:
                    self.solved.put(key, r)
                    space.store_value(self.table, state, r)
                    if self._chain is not None:
                        self._chain.append(edge)
                    return r
                if r < best:
                    best = r
                # Re-evaluate: the child search may have improved the table.
                post = edge.delta + space.evaluate(self.table, edge.state)
                if post < store_best:
                    store_best = post
            else:
                if est < best:
                    best = est
                if est < store_best:
                    store_best = est
        self._solved_flag = False
        self._chain = None
        space.store_value(self.table, state, store_best)
        return best
