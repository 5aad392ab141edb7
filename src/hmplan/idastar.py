"""Cost-bounded iterative-deepening A* over a regression space, with a
fixed-capacity closed-hash transposition table and footnote-style bound
schedule: each iteration's bound is the least f-value pruned in the previous
one, never a fixed increment.  Each iteration walks the tree with an
explicit stack of frames, one per state on the current path, so the plan
length is not bounded by Python's recursion limit.

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
            edges, value = self._iteration(root, root_h, bound)
            if edges is not None:
                plan = build_plan(space, edges)
                return SearchResult("solved", sum(e.delta for e in edges), plan,
                                    stats=self.stats)
            assert value > bound
            bound = value
        if bound == INF:
            return SearchResult("unsolvable", stats=self.stats)
        return SearchResult("limit", next_bound=bound, stats=self.stats)

    def _iteration(self, root, root_h: Units, bound: Units):
        """One depth-first pass under `bound`.  Returns (edges, None) with
        the solution's edges from the root to a final state, or (None,
        value) with the least f pruned in the pass.

        The current path is a stack of frames, one per expanded state:
        [state, g, h, edge in, scored children, least pruned f below,
        clean, right-shift cuts].  The edge in is the one the search came
        to the state by (None at the root); the space's right-shift rule
        reads it.  A state is entered with the h its parent scored it by:
        the table is never written during the search, so evaluating it
        again would give the same value.

        A state's value is the least pruned f below it, with branches that
        closed a cycle on the current path left out: every remaining
        contribution exceeds the bound, so the schedule always advances,
        and the optimal path is cycle-free so it is never the branch left
        out.  Leaving cycles out makes the value path-dependent, though, so
        only clean values (no cycle pruned anywhere below) are cached.
        """
        space, table, tt, recorder = self.space, self.table, self.tt, self.recorder
        estimate = space.estimate
        path: list[list] = []
        on_path: set = set()
        state, g, h, via = root, 0, root_h, None
        while True:
            # Enter the state: settle it as final or pruned, or expand it.
            if space.is_final(state):
                if g <= bound:
                    return ([frame[3] for frame in path] + [via])[1:], None
                value, clean = g, True
            else:
                if tt is not None:
                    cached = tt.get(state)
                    if cached is not None and cached > h:
                        h = cached
                value, clean = g + h, True
                if value <= bound:
                    edges, cuts = space.successors(state, via, self.right_shift)
                    if recorder:
                        recorder.expansion(NORMAL, len(space.atoms_of(state)),
                                           tuple(len(space.atoms_of(e.state)) for e in edges))
                    scored = sorted(
                        ((e.delta + estimate(table, e.state), e) for e in edges),
                        key=lambda it: (it[0], tuple(a.index for a in it[1].actions)),
                    )
                    path.append([state, g, h, via, iter(scored), INF, True, cuts])
                    on_path.add(state)
                    value = None
            # Fold settled values into their parents until a child is next.
            while path:
                frame = path[-1]
                if value is not None:
                    frame[5] = min(frame[5], value)
                    frame[6] = frame[6] and clean
                for est, edge in frame[4]:
                    if edge.state not in on_path:
                        break
                    frame[6] = False
                else:
                    path.pop()
                    state, g, h, _, _, value, clean, cuts = frame
                    on_path.discard(state)
                    # Right-shift cuts make the updated cost path-dependent,
                    # so the table is not fed from expansions they touched.
                    if tt is not None and cuts == 0 and clean and value - g > h:
                        tt.put(state, value - g, len(path))
                    continue
                state, g, h, via = edge.state, frame[1] + edge.delta, est - edge.delta, edge
                break
            else:
                return None, value


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
