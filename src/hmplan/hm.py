"""Complete h^m computation by one label-setting engine.

`compute_base_heuristic` is the one entry point.  It takes the recursion
from the problem's mode: sequential regression for sequential problems, the
relaxed view of temporal regression (right-shift cuts never applied) for
parallel and temporal ones.  An edge of a set of size <= m is worth delta +
max(offset + value of a regressed component), an oversized component being
worth the max over its size <= m subsets; as deltas and offsets are >= 0,
that is never below a value it reads.  So Knuth's generalization of
Dijkstra's algorithm (Knuth 1977; Haslum 2009, "h^m(P) = h^1(P^m)") finds
the least fixpoint: a heap settles each set once, in order of value, and an
edge fires once, when the last set it reads is settled.  The result is
written into the shared heuristic table.

The engine runs on integers: the successor functions give every delta and
offset in the problem's units of 1/scale, and so does the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, combinations

from .htable import HeuristicTable
from .model import INF, AtomSet, Mode, Problem
from .sequential import successors_seq
from .temporal import TempState, relax_state, successors_temporal

# An edge is (delta, components), worth delta + max over its components of
# offset + the value of the atom set (0 if empty), in units of 1/scale.
Component = tuple[AtomSet, int]
Edge = tuple[int, tuple[Component, ...]]


@dataclass
class GbfStats:
    sets: int  # atom sets of size <= m
    rounds: int  # edge firings; each edge fires at most once


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


def _label_setting(problem: Problem, m: int, sets: list[AtomSet]) -> tuple[list, int]:
    """The least fixpoint's value of each of the sets, in their order, and
    the number of edge firings."""
    n = len(problem.atoms)
    # Set ids: a for {a} and n + a*n + b for {a, b} with a < b, as htable
    # lays them out; the sets of size >= 3 that m >= 3 needs follow.
    big = {tuple(sorted(s)): n + n * n + i
           for i, s in enumerate(s for s in sets if len(s) >= 3)}

    def ident(ids: list[int]) -> int:
        """The id of the set of the sorted atom ids, of size 1 to m."""
        if len(ids) == 1:
            return ids[0]
        return n + ids[0] * n + ids[1] if len(ids) == 2 else big[tuple(ids)]

    def reads(atoms: AtomSet) -> list[int]:
        """Ids of the sets whose values give the atom set's value: none if it
        is empty, itself up to size m, and its size <= m subsets above."""
        ids = sorted(atoms)
        if len(ids) <= m:
            return [ident(ids)] if ids else []
        found = ids + [n + a * n + b for a, b in combinations(ids, 2)] if m >= 2 else ids
        for k in range(3, m + 1):
            found += map(big.__getitem__, combinations(ids, k))
        return found

    label = [INF] * (n + n * n + len(big) if m >= 2 else n)
    keys = [ident(sorted(s)) for s in sets]
    readers: dict[int, list[int]] = {key: [] for key in keys}  # edges reading a set
    heap: list[tuple[int, int]] = []
    # Per edge: its target's id, its delta, its components as (offset, ids
    # read) and its count of distinct unsettled sets read.
    target, delta, comps, waiting = [], [], [], []
    fired = 0

    def fire(e: int) -> None:
        nonlocal fired
        fired += 1
        v = delta[e] + max(offset + max(map(label.__getitem__, ids), default=0)
                           for offset, ids in comps[e])
        if v < label[target[e]]:
            label[target[e]] = v
            heappush(heap, (v, target[e]))

    for s, key in zip(sets, keys):
        if s <= problem.init:
            label[key] = 0
            heappush(heap, (0, key))
            continue
        for d, cs in _edges(problem, s):
            e = len(target)
            cs = [(offset, reads(atoms)) for atoms, offset in cs]
            wait = cs[0][1] if len(cs) == 1 else set(chain.from_iterable(ids for _, ids in cs))
            for i in wait:
                readers[i].append(e)
            target.append(key)
            delta.append(d)
            comps.append(cs)
            waiting.append(len(wait))
            if not wait:
                fire(e)
    settled = bytearray(len(label))
    while heap:
        _, i = heappop(heap)
        if settled[i]:
            continue
        settled[i] = 1
        for e in readers[i]:
            waiting[e] -= 1
            if not waiting[e] and not settled[target[e]]:
                fire(e)
    return [label[key] for key in keys], fired


def compute_base_heuristic(problem: Problem, table: HeuristicTable, m: int) -> GbfStats:
    """Least fixpoint of the mode's h^m equation for all sets of size <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if table.scale != problem.scale:
        raise ValueError(f"table counts 1/{table.scale}, problem 1/{problem.scale}")
    sets = list(_subsets_upto(range(len(problem.atoms)), m))
    values, fired = _label_setting(problem, m, sets)
    for s, v in zip(sets, values):
        table.store(s, v)
    return GbfStats(len(sets), fired)
