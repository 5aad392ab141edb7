"""Complete h^m computation by one label-setting engine.

`compute_base_heuristic` is the one entry point.  It takes the recursion
from the problem's mode: sequential regression for sequential problems, the
relaxed view of temporal regression (right-shift cuts never applied) for
parallel and temporal ones.  An edge into a node is worth delta +
max(offset + value of a regressed component), an oversized component being
worth the max over its size <= m subsets; as deltas and offsets are >= 0,
that is never below a value it reads.  So Knuth's generalization of
Dijkstra's algorithm (Knuth 1977) finds the least fixpoint: a heap settles
each node once, in order of value, and an edge fires once, when the last
node it reads is settled.  The result is written into the shared heuristic
table, its sets of size <= 2 in one `HeuristicTable.load`.  The atoms and
pairs that never settle, worth INF, are the result's `Mutex`: the engine
keeps the settled atoms and each atom's settled partners as it goes.

Sequential h^2 is built as Haslum's P^m (Haslum 2009, "h^m(P) =
h^1(P^m)") at m = 2: besides the atom sets of size <= 2, every action a is a
node.  Its label is L(a) = cost(a) + the max over the size <= 2 subsets of
pre(a), reached by one edge that reads those subsets (cost(a) outright if
pre(a) is empty).  Once L(a) settles, a builds one edge into each target T
of size <= 2 that meets add(a), is disjoint from delete(a) and has not
settled yet.  The edge reads L(a) alone if T - add(a) lies within pre(a).
Otherwise T = {p, q} with p added and q outside pre(a), and the edge is
worth max(L(a), cost(a) + the max of {q} and {q, r} for r in pre(a)), and
those sets are all it reads besides L(a).  That is cost(a) + the value of
(T - add(a)) | pre(a), the regression of T through a, since h^m never falls
from a set to its subsets.  The edges of one q share their reads, and their
group watches one read first, as Chaff's watched literals do (Moskewicz et
al. 2001): {q, w} for one atom w of pre(a), or {q} if pre(a) is empty.  The
later of L(a) and that read to settle builds the group, and a read that
ends INF, as most mutex pairs do, leaves it unbuilt.  a builds its other
edges when L(a) settles.  An action whose precondition is never reached
settles never and builds nothing.

Every other (mode, m), sequential h^1 and h^m for m >= 3 and parallel and
temporal h^m at every m, builds one edge per regression of each set, all
before the first set settles.  In the parallel and temporal modes, the
recursion of Haslum and Geffner ("Heuristic planning with time and
resources", 2001), the regressions of a set of one or two atoms are
enumerated straight from its adders, their durations and the problem's
conflict masks, in the order and with the cuts of `successors_temporal`;
only larger sets, at m >= 3, go through that function and `relax_state`.
The components of all the edges share one list of read ids per atom set.

A firing is one evaluation of an edge, counted in `GbfStats.rounds`: an
edge whose reads have all settled when it is built fires at once, so every
action-centred edge that reads L(a) alone counts as a firing.

The engine runs on integers: the costs and the successor functions give
every delta and offset in the problem's units of 1/scale, and so does the
table.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, combinations

from .htable import HeuristicTable
from .model import INF, AtomSet, Mode, Problem
from .mutex import LazyMap, Mutex
from .sequential import successors_seq
from .temporal import TempState, relax_state, successors_temporal


@dataclass
class GbfStats:
    sets: int  # atom sets of size <= m
    # Edge firings, the action nodes' included; each edge fires at most once,
    # and one whose reads have all settled when it is built fires then.
    rounds: int
    # Edges built: one per regression of each set up front (for a concurrent
    # set of one or two atoms, one per regression `_small_regressions`
    # enumerates); for sequential h^2, each action's own edge up front, its
    # target edges as its label settled or, for a group that watches a
    # read, as the later of that label and that read did.
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


def _label_setting(problem: Problem, m: int) -> tuple[list, dict, int, int, list, list]:
    """The least fixpoint's label of every node by id, the ids of the sets of
    size >= 3 by their sorted atom ids, the number of edge firings, the
    number of edges built, the settled atoms, and per atom the atoms its
    settled pairs hold besides it."""
    n = len(problem.atoms)
    # Set ids: a for {a} and n + a*n + b for {a, b} with a < b, as htable
    # lays them out; the sets of size >= 3 that m >= 3 needs follow, and for
    # sequential h^2 one id per action after those.
    big = {ids: n + n * n + i for i, ids in enumerate(chain.from_iterable(
        combinations(range(n), k) for k in range(3, m + 1)))}
    first_action = n + n * n + len(big) if m >= 2 else n
    actions = problem.actions if problem.mode is Mode.SEQUENTIAL and m == 2 else ()

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

    label = [INF] * (first_action + len(actions))
    settled = bytearray(len(label))
    readers: defaultdict[int, list[int]] = defaultdict(list)  # edges reading a node
    heap: list[tuple[int, int]] = []
    # An edge (delta, components) is worth delta + max over its components
    # (offset, ids read) of offset + the max of the labels read (0 if none).
    # Per waiting edge: (its target's id, its delta, its components) and its
    # count of distinct unsettled nodes read.
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

    def add_edges(ts, d: int, cs, wait) -> None:
        """One edge (d, cs) into each target; it fires now if it waits for no
        node, and else when the last of the nodes in wait settles."""
        nonlocal built
        built += len(ts)
        for t in ts:
            if not wait:
                fire(t, d, cs)
                continue
            e = len(edges)
            for i in wait:
                readers[i].append(e)
            edges.append((t, d, cs))
            waiting.append(len(wait))

    def connect(node: int, cost: int, ts: list[int], ids: list[int]) -> None:
        """Edges into the targets reading the action node and, at the
        action's cost, the ids."""
        cs = ((0, (node,)), (cost, ids)) if ids else ((0, (node,)),)
        add_edges(ts, 0, cs, [i for i in ids if not settled[i]])

    # rows[q][r] is the id of {q, r} (q itself at r = q), so a list of atoms
    # maps in bulk to the pairs they make with q.
    rows = [[*range(n + q, n + q + q * n, n), q, *range(n + q * n + q + 1, n + q * n + n)]
            for q in range(n)] if actions else []
    # An action's group of B = {q}, q outside add(a) | delete(a) | pre(a),
    # is built by the later to settle of L(a) and its watched read: {q, w}
    # for one atom w of pre(a), or {q} if pre(a) is empty.  A settled action
    # waits as a tuple `group` takes, in watchers[w] or in free.
    watchers: list[list[tuple]] = [[] for _ in range(n)]
    free: list[tuple] = []
    partners: list[list[int]] = [[] for _ in range(n)]  # atom -> its settled pairs' atoms
    singles: list[int] = []  # the settled singletons

    def targets(q: int, adds: list[int]) -> list[int]:
        """Ids of the unsettled pairs {p, q}, p one of the adds, through q's row."""
        return [t for t in map(rows[q].__getitem__, adds) if not settled[t]]

    def group(action: tuple, q: int) -> None:
        """Build the action's edges of B = {q}, unless q is in add(a),
        delete(a) or pre(a): one into each unsettled {p, q}, p in add(a),
        reading L(a) and, at cost(a), {q} and {q, r} for each r in pre(a)."""
        node, cost, adds, pre, skip = action
        if q in skip:
            return
        ts = targets(q, adds)
        if ts:
            connect(node, cost, ts, [q, *map(rows[q].__getitem__, pre)])

    def regress_through(a) -> None:
        """Build the target edges of action a, whose label has just settled,
        into the unsettled sets of size <= 2 it regresses: a nonempty subset
        of add(a) - delete(a), which reads L(a) alone, and each pair {p, q}
        with p in add(a) - delete(a) and q an atom a neither adds nor
        deletes.  If q is in pre(a), that pair too reads L(a) alone; if not,
        it reads {q} and {q, r} for each r in pre(a) besides, which depend on
        q alone, so the edges of one q share their reads.  Those groups are
        built by `group` once their watched read settles too; all the other
        edges now."""
        node = first_action + a.index
        cost = problem.cost_units[a]
        adds = sorted(a.add - a.delete)
        connect(node, cost, [t for t in subsets(adds) if not settled[t]], [])  # B empty
        pre = sorted(a.pre)
        for q in pre:
            if q not in a.add and q not in a.delete:  # within pre(a): L(a) alone
                ts = targets(q, adds)
                if ts:
                    connect(node, cost, ts, [])
        action = (node, cost, adds, pre, a.add | a.delete | a.pre)
        if pre:
            # Watch the atom with the fewest settled pairs: the fewest
            # groups to build now, for they may never fire.
            w = min(pre, key=lambda r: len(partners[r]))
            watchers[w].append(action)
            for q in partners[w]:
                group(action, q)
        else:
            free.append(action)
            for q in singles:
                group(action, q)

    for key in subsets(sorted(problem.init)):
        label[key] = 0
        heappush(heap, (0, key))
    if not actions:
        read_ids = LazyMap(reads)  # one shared list per component atom set
        for s in _subsets_upto(range(n), m):
            if s <= problem.init:
                continue
            key = ident(tuple(s))
            for d, components in _regressions(problem, s):
                cs = [(offset, read_ids[atoms]) for atoms, offset in components]
                wait = cs[0][1] if len(cs) == 1 else set(chain.from_iterable(ids for _, ids in cs))
                add_edges((key,), d, cs, wait)
    for a in actions:
        ids = subsets(sorted(a.pre))
        add_edges((first_action + a.index,), problem.cost_units[a], ((0, ids),), ids)
    while heap:
        _, i = heappop(heap)
        if settled[i]:
            continue
        settled[i] = 1
        for e in readers.get(i, ()):
            waiting[e] -= 1
            if not waiting[e]:
                t, d, cs = edges[e]
                if not settled[t]:
                    fire(t, d, cs)
        if i >= first_action:
            regress_through(actions[i - first_action])
        elif i < n:
            singles.append(i)
            for action in free:
                group(action, i)
        elif i < n + n * n:
            q, w = divmod(i - n, n)
            partners[q].append(w)
            partners[w].append(q)
            for action in watchers[w]:
                group(action, q)
            for action in watchers[q]:
                group(action, w)
    return label, big, fired, built, singles, partners


def compute_base_heuristic(problem: Problem, table: HeuristicTable, m: int) -> GbfStats:
    """Least fixpoint of the mode's h^m equation for all sets of size <= m."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if table.scale != problem.scale:
        raise ValueError(f"table counts 1/{table.scale}, problem 1/{problem.scale}")
    n = len(problem.atoms)
    label, big, fired, built, singles, partners = _label_setting(problem, m)
    table.load(label[:n], [label[n + a * n:n + a * n + n] for a in range(n)] if m >= 2 else [])
    for ids, key in big.items():
        table.store(frozenset(ids), label[key])
    pairs = n * (n - 1) // 2 if m >= 2 else 0
    mutex = Mutex(problem, singles, partners if m >= 2 else None)
    return GbfStats(n + pairs + len(big), fired, built, mutex)
