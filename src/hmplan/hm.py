"""Complete h^m computation by a generalized Bellman-Ford fixpoint.

`compute_base_heuristic` is the one entry point.  It takes the recursion
from the problem's mode: sequential regression for sequential problems, the
relaxed view of temporal regression (right-shift cuts never applied) for
parallel and temporal ones.  Values for every atom set of size <= m start at
infinity (0 for subsets of the initial state) and only decrease, set by set
from a FIFO worklist, until no relaxation step applies.  Oversized regressed
sets are evaluated as the max over their size <= m subsets.  The result is
written into the shared heuristic table.

The fixpoint runs on integers: the successor functions already give every
delta and time offset in the problem's units of 1/scale (`Problem.scale`),
and the final values enter a table of the same scale unchanged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, combinations

from .htable import HeuristicTable, dense_max
from .model import INF, AtomSet, Mode, Problem
from .sequential import successors_seq
from .temporal import TempState, relax_state, successors_temporal

# An edge is (delta, components); its value under current labels is
# delta + max over components (offset + subset-eval of the atom set).  Deltas
# and offsets are whole numbers of 1/scale; labels are those or INF.
Component = tuple[AtomSet, int]
Edge = tuple[int, tuple[Component, ...]]


@dataclass
class GbfStats:
    sets: int  # atom sets of size <= m
    rounds: int  # relaxation steps taken from the worklist


def _all_sets(n_atoms: int, m: int) -> list[AtomSet]:
    return list(_subsets_upto(range(n_atoms), m))


def _subsets_upto(atoms, m: int):
    """The nonempty subsets of size <= m, smallest first, lexical within."""
    ids = sorted(atoms)
    sizes = range(1, min(m, len(ids)) + 1)
    return map(frozenset, chain.from_iterable(combinations(ids, k) for k in sizes))


def _edges(problem: Problem, s: AtomSet) -> list[Edge]:
    if problem.mode is Mode.SEQUENTIAL:
        return [(e.delta, ((e.state, 0),)) for e in successors_seq(problem, s)]
    edges, _ = successors_temporal(problem, TempState(s))
    return [(e.delta, tuple(relax_state(e.state))) for e in edges]


class _Gbf:
    def __init__(self, problem: Problem, m: int):
        self.problem = problem
        self.m = m
        self.sets = _all_sets(len(problem.atoms), m)
        self.value: dict[AtomSet, int | float] = {}
        # For m <= 2, the labels are also held densely by atom id, as in the
        # heuristic table, to evaluate oversized sets without their subsets.
        n = len(problem.atoms)
        self._single = [INF] * n
        self._pairs = [[INF] * n for _ in range(n)] if m == 2 else [None] * n
        for s in self.sets:
            self._set(s, 0 if s <= problem.init else INF)
        self.edges: dict[AtomSet, list[Edge]] = {}
        self.parents: dict[AtomSet, set[AtomSet]] = {s: set() for s in self.sets}
        for s in self.sets:
            if s <= problem.init:
                self.edges[s] = []
                continue
            es = _edges(problem, s)
            self.edges[s] = es
            for _, comps in es:
                for atoms, _ in comps:
                    for d in _subsets_upto(atoms, m):
                        self.parents[d].add(s)
        self.rounds = 0

    def _set(self, s: AtomSet, v: int | float) -> None:
        self.value[s] = v
        if len(s) == 1:
            self._single[min(s)] = v
        elif len(s) == 2 and self.m == 2:
            a, b = sorted(s)
            self._pairs[a][b] = v

    def _subset_eval(self, atoms: AtomSet) -> int | float:
        if not atoms:
            return 0
        if len(atoms) <= self.m:
            return self.value[atoms]
        if self.m <= 2:
            return dense_max(self._single, self._pairs, sorted(atoms))
        return max(map(self.value.__getitem__, _subsets_upto(atoms, self.m)))

    def _relax(self, s: AtomSet) -> int | float:
        best = INF
        for delta, comps in self.edges[s]:
            worst = 0
            for atoms, offset in comps:
                v = offset + self._subset_eval(atoms)
                if v > worst:
                    worst = v
            if delta + worst < best:
                best = delta + worst
        return best

    def run(self) -> None:
        queue = deque(s for s in self.sets if not s <= self.problem.init)
        queued = set(queue)
        while queue:
            s = queue.popleft()
            queued.discard(s)
            self.rounds += 1
            new = self._relax(s)
            if new < self.value[s]:
                self._set(s, new)
                for p in self.parents[s]:
                    if p not in queued and not p <= self.problem.init:
                        queue.append(p)
                        queued.add(p)


def compute_base_heuristic(problem: Problem, table: HeuristicTable, m: int) -> GbfStats:
    """Least fixpoint of the mode's h^m equation for all sets of size <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if table.scale != problem.scale:
        raise ValueError(f"table counts 1/{table.scale}, problem 1/{problem.scale}")
    gbf = _Gbf(problem, m)
    gbf.run()
    for s in gbf.sets:  # by size, lexical within: each prefix comes first
        table.store(s, gbf.value[s])
    return GbfStats(len(gbf.sets), gbf.rounds)
