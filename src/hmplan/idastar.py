"""Cost-bounded iterative-deepening A* over a regression space, with a
fixed-capacity closed-hash transposition table and footnote-style bound
schedule: each iteration's bound is the least f-value pruned in the previous
one, never a fixed increment.  The space alone orders a node's children:
IDAO* takes them as listed, and IDA* sorts them stably by f.

Every expansion that proves more than the state's score stores it in the
table, whether or not a cycle was pruned or right shift cut below it (after
Reinefeld and Marsland, "Enhanced Iterative-Deepening Search", 1994).  The
value is a lower bound on the search below the state given the actions
right shift forbade there, and the entry carries that set as a mask: it is
used wherever a superset is forbidden, where the state has fewer children.

Both searches, this one and IDAO* (`idao`), are recursive code whose nested
calls are generators (`x = yield self._child(...)`), run by `drive` on one
list, so plan length is not bounded by Python's recursion limit.  Only a
state that will be expanded gets a generator: final states, states whose f
exceeds the bound after the transposition-table probe and, in IDAO*,
solved-table hits are settled by a plain call that returns the result.

The search counts in the problem's integer units of 1/scale: g, h, f, the
bounds, the upper limit and the result's cost and next bound.  `build_plan`
turns the solution path into a plan with Fraction start times and metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .htable import HeuristicTable
from .metrics import NORMAL, Recorder
from .model import INF, Mode, Plan, PlanStep, Units


def drive(call):
    """Run a search call, a generator, to its return value.  Every call it
    yields is pushed and run in turn, and what a call returns is sent back
    to the call below it."""
    stack, value = [call], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


class TranspositionTable:
    """Closed hash table of updated lower bounds for expanded, unsolved
    states.  A slot is (state, value, depth, mask): the value bounds the
    search below the state when the actions in `mask` are forbidden there
    by right shift, and so whenever a superset of them is.  Lookup is a
    single probe plus a full state equality check.  The same state under
    the same mask keeps the larger value and the smaller depth, under
    another mask the new entry replaces it; on collision the entry closer
    to the root is kept."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots: list[tuple[object, Units, int, int] | None] = [None] * capacity

    def _index(self, key) -> int:
        return hash(key) % self.capacity

    def get(self, key) -> tuple[Units, int] | None:
        """(value, mask) of the key's entry, or None."""
        slot = self._slots[self._index(key)]
        if slot is not None and slot[0] == key:
            return slot[1], slot[3]
        return None

    def put(self, key, value: Units, depth: int, mask: int = 0) -> None:
        i = self._index(key)
        slot = self._slots[i]
        if slot is None or (slot[0] == key and slot[3] != mask):
            self._slots[i] = (key, value, depth, mask)
        elif slot[0] == key:
            self._slots[i] = (key, max(slot[1], value), min(slot[2], depth), mask)
        elif depth < slot[2]:
            self._slots[i] = (key, value, depth, mask)


@dataclass
class SearchStats:
    # Expansions and bounds are counted by the Recorder; the benchmark's
    # tracer (bench/tracing.py) reads the iteration count from here.
    iterations: int = 0


@dataclass
class SearchResult:
    outcome: str  # solved | unsolvable | limit
    cost: Units | None = None
    plan: Plan | None = None
    next_bound: Units | None = None
    stats: SearchStats = field(default_factory=SearchStats)


class IdaStar:
    def __init__(self, space, table: HeuristicTable, use_tt: bool = True,
                 tt_capacity: int = 1 << 16, right_shift: bool = False,
                 recorder: Recorder | None = None) -> None:
        self.space = space
        self.table = table
        self.tt = TranspositionTable(tt_capacity) if use_tt else None
        self.right_shift = right_shift
        self.recorder = recorder
        self.stats = SearchStats()

    def run(self, upper_limit: Units = INF) -> SearchResult:
        """Search to the first bound above `upper_limit` (in units)."""
        space = self.space
        root = space.root()
        root_h = space.estimate(self.table, root)
        bound = root_h
        while bound != INF and bound <= upper_limit:
            self.stats.iterations += 1
            if self.recorder:
                self.recorder.bound("ida", space.problem.to_cost(bound))
            self._on_path = set()  # the states of the current path
            search = self._enter(root, 0, root_h, None, bound)
            value, _, solution = search if type(search) is tuple else drive(search)
            if solution is not None:
                plan = build_plan(space, solution[::-1])
                return SearchResult("solved", value, plan, stats=self.stats)
            assert value > bound
            bound = value
        if bound == INF:
            return SearchResult("unsolvable", stats=self.stats)
        return SearchResult("limit", next_bound=bound, stats=self.stats)

    def _enter(self, state, g: Units, h: Units, via, bound: Units):
        """Settle a final state, or one whose f exceeds the bound, as (value,
        clean, solution edges last first or None); give any other state's
        expansion.  h is the score the parent ordered it by, raised by a
        table entry whose forbidden set lies within the one `via` imposes.
        That set, F, is computed at most once per entered state: here when
        an entry carries a mask, else by `_dfs`."""
        if self.space.is_final(state):
            return g, True, (None if g > bound else [])
        forbidden = None  # the actions right shift forbids here, when known
        if self.tt is not None:
            cached = self.tt.get(state)
            if cached is not None and cached[0] > h:
                value, mask = cached
                if mask:
                    forbidden = self.space.forbidden(via)
                if not mask or not mask & ~forbidden:
                    h = value
        if g + h > bound:
            return g + h, True, None
        return self._dfs(state, g, h, via, forbidden, bound)

    def _dfs(self, state, g: Units, h: Units, via, forbidden: int | None, bound: Units):
        """Enter the children by f, those of equal f in the space's order.
        The value is the least pruned f below this node, with branches that
        closed a cycle on the current path left out: every remaining
        contribution exceeds the bound, so the schedule always advances, and
        the optimal path is cycle-free so it is never the branch left out.
        Leaving cycles out makes the value path-dependent, so it is clean
        only if no cycle was pruned anywhere below.  The table is given
        `sound` instead, clean or not: the least over all children, those on
        the path included, of the child's value if clean and its entry f
        otherwise.  Each term bounds every path through its child."""
        space = self.space
        if forbidden is None and self.right_shift:
            forbidden = space.forbidden(via)
        edges, cuts = space.successors(state, via, self.right_shift, forbidden)
        if self.recorder:
            self.recorder.expansion(NORMAL, len(space.atoms_of(state)),
                                    tuple(len(space.atoms_of(e.state)) for e in edges))
        estimate, table = space.estimate, self.table
        scored = sorted([(e.delta + estimate(table, e.state), e) for e in edges],
                        key=lambda it: it[0])
        least = sound = INF
        clean = True
        on_path = self._on_path
        on_path.add(state)
        for est, edge in scored:
            if edge.state in on_path:
                clean = False
                sound = min(sound, g + est)
                continue
            child = self._enter(edge.state, g + edge.delta, est - edge.delta, edge, bound)
            value, child_clean, solution = child if type(child) is tuple else (yield child)
            if solution is not None:
                solution.append(edge)
                return value, clean, solution
            clean = clean and child_clean
            least = min(least, value)
            sound = min(sound, value if child_clean else g + est)
        on_path.discard(state)
        # The children depend on `via` only through the actions right shift
        # forbade here, so the entry holds under any superset of them.  The
        # path now holds the state's ancestors: their number is its depth.
        if self.tt is not None and sound - g > h:
            self.tt.put(state, sound - g, len(on_path), forbidden if cuts else 0)
        return least, clean, None


def build_plan(space, edges) -> Plan:
    """Turn a root-to-final regression path into a forward plan, converting
    its unit times and costs to Fractions."""
    problem = space.problem
    # Sequential edges cost their action; temporal edges advance the time.
    total = sum(edge.delta for edge in edges)
    if problem.mode is Mode.SEQUENTIAL:
        # The edge taken first from the goal holds the action executed last.
        steps = [PlanStep(Fraction(t), edge.actions[0])
                 for t, edge in enumerate(reversed(edges))]
        return Plan(steps, problem.to_cost(total))
    # Walking root -> final is walking backwards in time from the end.
    steps, elapsed = [], 0
    for edge in edges:
        for a in edge.actions:
            start = total - elapsed - problem.dur_units[a]
            steps.append(PlanStep(problem.to_cost(start), a))
        elapsed += edge.delta
    # Steps regressed later run earlier, also at one time point.
    steps.reverse()
    steps.sort(key=lambda st: st.start)
    return Plan(steps, problem.to_cost(total))
