"""Cost-bounded iterative-deepening A* over a regression space, with a
fixed-capacity closed-hash transposition table and footnote-style bound
schedule: each iteration's bound is the least f-value pruned in the previous
one, never a fixed increment.

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

_SOLVED = object()


class TranspositionTable:
    """Closed hash table of updated lower bounds for expanded, unsolved
    states.  Lookup is a single probe plus a full state equality check; on
    collision the entry closer to the root is kept."""

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots: list[tuple[object, Units, int] | None] = [None] * capacity

    def _index(self, key) -> int:
        return hash(key) % self.capacity

    def get(self, key) -> Units | None:
        slot = self._slots[self._index(key)]
        if slot is not None and slot[0] == key:
            return slot[1]
        return None

    def put(self, key, value: Units, depth: int) -> None:
        i = self._index(key)
        slot = self._slots[i]
        if slot is None:
            self._slots[i] = (key, value, depth)
        elif slot[0] == key:
            self._slots[i] = (key, max(slot[1], value), min(slot[2], depth))
        elif depth < slot[2]:
            self._slots[i] = (key, value, depth)


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
    def __init__(
        self,
        space,
        table: HeuristicTable,
        use_tt: bool = True,
        tt_capacity: int = 1 << 16,
        right_shift: bool = False,
        recorder: Recorder | None = None,
    ) -> None:
        self.space = space
        self.table = table
        self.tt = TranspositionTable(tt_capacity) if use_tt else None
        self.right_shift = right_shift
        self.recorder = recorder
        self.stats = SearchStats()
        self._solution: list = []
        self._on_path: set = set()  # the states of the current path

    def run(self, upper_limit: Units = INF) -> SearchResult:
        """Search to the first bound above `upper_limit` (in units)."""
        space = self.space
        root = space.root()
        if space.is_final(root):
            plan = build_plan(self.space, [])
            return SearchResult("solved", 0, plan, stats=self.stats)
        root_h = space.estimate(self.table, root)
        bound = root_h
        if self.tt is not None:
            cached = self.tt.get(root)
            if cached is not None and cached > bound:
                bound = cached
        while True:
            if bound == INF:
                return SearchResult("unsolvable", stats=self.stats)
            if bound > upper_limit:
                return SearchResult("limit", next_bound=bound, stats=self.stats)
            self.stats.iterations += 1
            if self.recorder:
                self.recorder.bound("ida", space.problem.to_cost(bound))
            self._solution = []
            result = self._dfs(root, root_h, 0, bound, 0, None)
            if result is _SOLVED:
                edges = list(reversed(self._solution))
                plan = build_plan(self.space, edges)
                return SearchResult("solved", sum(e.delta for e in edges), plan,
                                    stats=self.stats)
            value, _clean = result
            assert value > bound
            bound = value

    def _dfs(self, state, h: Units, g: Units, bound: Units, depth: int, via):
        """Returns _SOLVED or (value, clean).

        via is the edge the search came to the state by (None at the root);
        the space's right-shift rule reads it.

        h is the state's heuristic value, computed by the caller when it
        scored the state for ordering; the table is never written during
        the search, so evaluating it again would give the same value.

        The value is the least pruned f below this node, with branches that
        closed a cycle on the current path left out: every remaining
        contribution exceeds the bound, so the schedule always advances, and
        the optimal path is cycle-free so it is never the branch left out.
        Leaving cycles out makes the value path-dependent, though, so only
        clean values (no cycle pruned anywhere below) may be cached.
        """
        space = self.space
        if space.is_final(state):
            if g > bound:
                return g, True
            return _SOLVED
        if self.tt is not None:
            cached = self.tt.get(state)
            if cached is not None and cached > h:
                h = cached
        f = g + h
        if f > bound:
            return f, True
        edges, cut_count = space.successors(state, via, self.right_shift)
        if self.recorder:
            self.recorder.expansion(NORMAL, len(space.atoms_of(state)),
                                    tuple(len(space.atoms_of(e.state)) for e in edges))
        estimate, table = space.estimate, self.table
        scored = sorted(
            ((e.delta + estimate(table, e.state), e) for e in edges),
            key=lambda it: (it[0], tuple(a.index for a in it[1].actions)),
        )
        subtree_min: Units = INF
        clean = True
        on_path = self._on_path
        on_path.add(state)
        for est, edge in scored:
            if edge.state in on_path:
                clean = False
                continue
            r = self._dfs(edge.state, est - edge.delta, g + edge.delta, bound,
                          depth + 1, edge)
            if r is _SOLVED:
                on_path.discard(state)
                self._solution.append(edge)
                return _SOLVED
            value, child_clean = r
            clean = clean and child_clean
            if value < subtree_min:
                subtree_min = value
        on_path.discard(state)
        # Right-shift cuts make the updated cost path-dependent, so the
        # transposition table is not fed from expansions the rule touched.
        if self.tt is not None and cut_count == 0 and clean:
            new_h = subtree_min - g if subtree_min != INF else INF
            if new_h > h:
                self.tt.put(state, new_h, depth)
        return subtree_min, clean


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
    return Plan(steps, problem.to_cost(total))
