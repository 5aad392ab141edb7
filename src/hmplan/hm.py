"""Complete h^m computation: level rows for sequential h^2, label setting
for the rest.

`compute_base_heuristic` is the one entry point.  It takes the recursion
from the problem's mode: sequential regression for sequential problems, the
relaxed view of temporal regression (right-shift cuts never applied) for
parallel and temporal ones.  The result is written into the shared
heuristic table.  Both engines give its sets of size <= 2 in the table's
own shape, which `HeuristicTable.load` takes whole: per atom p, the
ascending levels v, each with the mask of the q whose pair {p, q} settled
at v or below ({p} itself at q = p).  The atoms and pairs that never
settle, worth INF, are missing from each atom's top level, and the result's
`Mutex` reads them off the table.

Sequential h^2 settles whole rows of pairs one value level at a time, much
as Graphplan builds its levels (Blum and Furst 1997).  Row p is the mask
of the q whose {p, q} has settled, and after each level v at which it grew,
row p is p's mask at v in the table.  The levels come in ascending order,
off a heap of the values that have something queued.  At a level v, the
queued masks are ORed into both rows of each pair they name.  Then each action a
with a precondition row that grew is looked at once (an action with an
empty precondition, when the settled atoms grew): Q is the AND of its
precondition rows (the settled atoms for an empty precondition), the q
whose pair with every precondition has settled.  Once pre(a) lies within
Q, the value of pre(a) is v, and a queues at v + cost(a) every {p} and
every pair within add(a) - delete(a), plus {p, q} for p there and each q
in Q outside add(a) | delete(a): the regression of {p, q} through a is
pre(a) | {q}, worth v, as {q} is worth no more than a pair that holds it.
Afterwards a queues only the q new to its Q, and their level is the value
of pre(a) | {q}.  A zero-cost action queues into the level it is at,
which is then taken again until nothing more settles at v.  Every value is the least over the regressions of the set, so this
is the least fixpoint.

Every other (mode, m), sequential h^1 and h^m for m >= 3 and parallel and
temporal h^m at every m, runs one label-setting engine, Knuth's
generalization of Dijkstra's algorithm (Knuth 1977).  An edge into a set
is worth delta + max(offset + value of a regressed component), an
oversized component being worth the max over its size <= m subsets; as
deltas and offsets are >= 0, that is never below a value it reads.  So a
heap settles each set once, in order of value, and an edge fires once,
when the last set it reads is settled.  The engine builds one edge per
regression of each set, all before the first set settles.  In the
parallel and temporal modes, the recursion of Haslum and Geffner
("Heuristic planning with time and resources", 2001), the regressions of a
set of one or two atoms are enumerated straight from its adders, their
durations and the problem's conflict masks, in the order and with the
cuts of `successors_temporal`; only larger sets, at m >= 3, go through
that function and `relax_state`.  The components of all the edges share
one list of read ids per atom set.

Both engines run on integers: the costs and the successor functions give
every delta and offset in the problem's units of 1/scale, and so does the
table.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from itertools import chain, combinations
from operator import and_

from .htable import HeuristicTable
from .model import INF, AtomSet, Mode, Problem
from .mutex import LazyMap, Mutex
from .sequential import successors_seq
from .temporal import TempState, relax_state, successors_temporal


@dataclass
class GbfStats:
    sets: int  # atom sets of size <= m
    # Relaxations.  Label setting: edge firings, each edge firing at most
    # once.  Sequential h^2: action looks, each action at most once per
    # round of a level, one AND of its precondition rows per look.
    rounds: int
    # Label setting: edges built, one per regression of each set (for a
    # concurrent set of one or two atoms, one per regression
    # `_small_regressions` enumerates).  Sequential h^2: masks queued, one
    # per atom of add(a) - delete(a) per look of a that queued pairs.
    edges: int
    # The atoms and pairs that never settled: their h^m is INF.
    mutex: Mutex


def _subsets_upto(atoms, m: int):
    """The nonempty subsets of size <= m, smallest first, lexical within."""
    ids = sorted(atoms)
    sizes = range(1, min(m, len(ids)) + 1)
    return map(frozenset, chain.from_iterable(combinations(ids, k) for k in sizes))


Regressions = list[tuple[int, list[tuple[AtomSet, int]]]]


def _regressions(problem: Problem, s: AtomSet) -> Regressions:
    """(delta, components) per regression of s in the problem's mode: the
    sequential regression of s as one component at offset 0, or the relaxed
    view of each temporal regression, which `_small_regressions` gives for
    sets of one or two atoms.  No mutex prunes them: the mutexes are what
    the GBF computes."""
    if problem.mode is Mode.SEQUENTIAL:
        return [(e.delta, [(e.state, 0)]) for e in successors_seq(problem, s)]
    if len(s) <= 2:
        return _small_regressions(problem, s)
    return [(e.delta, relax_state(e.state)) for e in successors_temporal(problem, TempState(s))[0]]


def _small_regressions(problem: Problem, s: AtomSet) -> Regressions:
    """The relaxed temporal regressions of a set of one or two atoms, in the
    order `successors_temporal(problem, TempState(s))` gives them, straight
    from the adders.  {p} regresses through each adder a to pre(a), dur(a)
    back.  {p, q}, p < q, takes for p the no-op, then each adder a, and for
    q the same, under that function's cuts: q's no-op only if a does not
    delete q, and an adder b of q only if it neither deletes a no-op'd p
    nor conflicts with a.  Two actions a and b, dur(a) <= dur(b), step back
    dur(b) to pre(a) | pre(b) if they end together or a takes no time; else
    dur(a), to a state where pre(b) is needed dur(b) - dur(a) further
    back."""
    dur = problem.dur_units
    if len(s) == 1:
        return [(dur[a], [(a.pre, 0)]) for a in problem.adders[min(s)]]
    p, q = sorted(s)
    conflict = problem.conflict_masks
    out: Regressions = [(dur[b], [(b.pre | {p}, 0)]) for b in problem.adders[q]
                        if p not in b.delete]
    for a in problem.adders[p]:
        if q not in a.delete:
            out.append((dur[a], [(a.pre | {q}, 0)]))
        for b in problem.adders[q]:
            if b is a:
                out.append((dur[a], [(a.pre, 0)]))
            # A pair of actions that both add p and q comes first with the
            # one of lower index taking p.
            elif not (conflict[a.index] >> b.index & 1
                      or p in b.add and q in a.add and b.index < a.index):
                da, db, y = (dur[a], dur[b], b) if dur[a] <= dur[b] else (dur[b], dur[a], a)
                both = a.pre | b.pre
                out.append((db, [(both, 0)]) if da == db or not da else
                           (da, [(y.pre, db - da), (both, 0)]))
    return out


def _label_setting(problem: Problem, m: int) -> tuple[list[dict], dict, int, int]:
    """The least fixpoint's sets of size <= 2 as per-atom levels for
    `HeuristicTable.load`, the values of the sets of size >= 3, the number of
    edge firings and the number of edges built."""
    n = len(problem.atoms)
    # Set ids: a for {a} and n + a*n + b for {a, b} with a < b, as htable
    # lays them out; the sets of size >= 3 that m >= 3 needs follow.
    big = {ids: n + n * n + i for i, ids in enumerate(chain.from_iterable(
        combinations(range(n), k) for k in range(3, m + 1)))}

    def ident(ids) -> int:
        """The id of the set of the atom ids, of size 1 to m, in any order."""
        if len(ids) == 1:
            return ids[0]
        if len(ids) == 2:
            a, b = ids
            return n + a * n + b if a < b else n + b * n + a
        return big[tuple(sorted(ids))]

    def subsets(ids: list[int]) -> list[int]:
        """Ids of the nonempty size <= m subsets of the sorted atom ids."""
        found = ids + [n + a * n + b for a, b in combinations(ids, 2)] if m >= 2 else ids
        for k in range(3, min(m, len(ids)) + 1):
            found += map(big.__getitem__, combinations(ids, k))
        return found

    def reads(atoms: AtomSet) -> list[int]:
        """Ids of the sets whose values give the atom set's value: none if it
        is empty, itself up to size m, and its size <= m subsets above."""
        ids = sorted(atoms)
        if len(ids) <= m:
            return [ident(ids)] if ids else []
        return subsets(ids)

    label = [INF] * (n + n * n + len(big) if m >= 2 else n)
    settled = bytearray(len(label))
    readers: defaultdict[int, list[int]] = defaultdict(list)  # edges reading a set
    heap: list[tuple[int, int]] = []
    # An edge (delta, components) is worth delta + max over its components
    # (offset, ids read) of offset + the max of the labels read (0 if none).
    # Per waiting edge: (its target's id, its delta, its components) and its
    # count of distinct unsettled sets read.
    edges: list[tuple] = []
    waiting: list[int] = []
    fired = built = 0

    def fire(t: int, d: int, cs) -> None:
        """Evaluate the edge (d, cs) into t, whose reads have all settled."""
        nonlocal fired
        fired += 1
        v = d + max(offset + max(map(label.__getitem__, ids), default=0) for offset, ids in cs)
        if v < label[t]:
            label[t] = v
            heappush(heap, (v, t))

    for key in subsets(sorted(problem.init)):
        label[key] = 0
        heappush(heap, (0, key))
    read_ids = LazyMap(reads)  # one shared list per component atom set
    for s in _subsets_upto(range(n), m):
        if s <= problem.init:
            continue
        key = ident(tuple(s))
        for d, components in _regressions(problem, s):
            built += 1
            cs = [(offset, read_ids[atoms]) for atoms, offset in components]
            wait = cs[0][1] if len(cs) == 1 else set(chain.from_iterable(ids for _, ids in cs))
            if not wait:
                fire(key, d, cs)
                continue
            for i in wait:
                readers[i].append(len(edges))
            edges.append((key, d, cs))
            waiting.append(len(wait))
    # Row p, the q whose {p, q} settled ({p} at q = p), by each value it grew
    # at.  At m = 1 no pair is stored: the row takes every atom with {p}.
    rows = [0] * n
    levels: list[dict] = [{} for _ in range(n)]
    while heap:
        v, i = heappop(heap)
        if settled[i]:
            continue
        settled[i] = 1
        for e in readers.get(i, ()):
            waiting[e] -= 1
            if not waiting[e]:
                t, d, cs = edges[e]
                if not settled[t]:
                    fire(t, d, cs)
        if i < n:
            rows[i] |= 1 << i if m >= 2 else -1
            levels[i][v] = rows[i]
        elif i < n + n * n:
            q, w = divmod(i - n, n)
            rows[q] |= 1 << w
            rows[w] |= 1 << q
            levels[q][v] = rows[q]
            levels[w][v] = rows[w]
    return levels, {frozenset(ids): label[key] for ids, key in big.items()}, fired, built


def _level_rows(problem: Problem) -> tuple[list[dict], int, int]:
    """Sequential h^2 level by level: per atom p its row by each level v at
    which it grew, for `HeuristicTable.load`, the number of action looks and
    the number of masks queued."""
    n = len(problem.atoms)
    rows = [0] * n
    levels: list[dict] = [{} for _ in range(n)]
    # Per action that adds an atom it does not delete: (precondition, its
    # mask, cost, adds, their mask, the mask of the atoms it leaves alone).
    actions: dict[int, tuple] = {}
    users: list[list[int]] = [[] for _ in range(n)]  # atom -> actions that need it
    free = []  # the actions that need nothing
    for a in problem.actions:
        adds = sorted(a.add - a.delete)
        if not adds:
            continue
        actions[a.index] = (sorted(a.pre), problem.pre_masks[a.index], problem.cost_units[a],
                            adds, sum(1 << p for p in adds),
                            ~sum(1 << p for p in a.add | a.delete))
        for r in a.pre:
            users[r].append(a.index)
        if not a.pre:
            free.append(a.index)
    seen: dict[int, int] = {}  # active action -> its Q at its last look
    buckets: dict[int, dict[int, int]] = {}  # level -> atom -> mask of pairs queued
    heap: list[int] = []
    looks = queued = 0

    def queue(w: int, atoms, mask: int) -> None:
        """Queue {p, q} at level w for each p of the atoms and q of the mask."""
        bucket = buckets.get(w)
        if bucket is None:
            bucket = buckets[w] = {}
            heappush(heap, w)
        for p in atoms:
            bucket[p] = bucket.get(p, 0) | mask

    queue(0, problem.init, sum(1 << p for p in problem.init))  # level 0 even if init is empty
    settled = 0
    last = -1  # the settled atoms at the last look of the free actions
    while heap:
        v = heappop(heap)
        grown = set()
        for p, mask in buckets.pop(v).items():
            new = mask & ~rows[p]
            if not new:
                continue
            rows[p] |= new
            grown.add(p)
            while new:
                low = new & -new
                new ^= low
                q = low.bit_length() - 1
                if q == p:
                    settled |= low
                else:
                    rows[q] |= 1 << p
                    grown.add(q)
        for p in grown:
            levels[p][v] = rows[p]
        look = {i for r in grown for i in users[r]}
        if settled != last:
            last = settled
            look.update(free)
        looks += len(look)
        for i in look:
            pre, need, cost, adds, mask, keep = actions[i]
            q = reduce(and_, map(rows.__getitem__, pre)) if pre else settled
            old = seen.get(i)
            if old is None:
                if need & ~q:
                    continue
                new = q & keep | mask
            else:
                new = q & ~old & keep
            seen[i] = q
            if new:
                queued += len(adds)
                queue(v + cost, adds, new)
    return levels, looks, queued


def compute_base_heuristic(problem: Problem, table: HeuristicTable, m: int) -> GbfStats:
    """Least fixpoint of the mode's h^m equation for all sets of size <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if table.scale != problem.scale:
        raise ValueError(f"table counts 1/{table.scale}, problem 1/{problem.scale}")
    if problem.mode is Mode.SEQUENTIAL and m == 2:
        levels, rounds, edges = _level_rows(problem)
        big = {}
    else:
        levels, big, rounds, edges = _label_setting(problem, m)
    table.load(levels)
    for s, v in big.items():
        table.store(s, v)
    n = len(problem.atoms)
    pairs = n * (n - 1) // 2 if m >= 2 else 0
    return GbfStats(n + pairs + len(big), rounds, edges, Mutex(problem, table))
