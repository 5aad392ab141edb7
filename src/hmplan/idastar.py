"""Cost-bounded iterative-deepening A* over a regression space, with a
fixed-capacity closed-hash transposition table and footnote-style bound
schedule: each iteration's bound is the least f-value pruned in the previous
one, never a fixed increment.  The space alone orders a node's children:
IDAO* takes them as listed, and IDA* sorts them stably by f.

Every expansion that proves more than the state's score stores it in the
table, whether or not a cycle was pruned or right shift cut below it (after
Reinefeld and Marsland, "Enhanced Iterative-Deepening Search", 1994).  The
value bounds the search below the state given F, the actions the space's
`forbidden` says right shift forbids there (0 where the space applies none),
and the entry carries F as a mask: it is used wherever a superset is
forbidden, where the state has fewer children.

Within an iteration each (state, F) is searched once, the transposition
cutoff of the same paper: a map holds the g and the value of every expansion
finished in the iteration, and a (state, F) entered again at g' >= g returns
that value plus g' - g, unclean, so the table takes its entry f as for a
child on the path.  The next bound still never passes the optimum C*, though
a cutoff's value may exceed what a fresh search of the state would return.
Let h*(s, F) be the cheapest cost on from (s, F) to a final state, and take
an iteration that finds no solution.
- Its value V is the least f of the states it pruned by f and the least g of
  the final states it met (all above the bound): an expansion returns the
  least of its children's values, so every finished expansion's value
  reaches the root, and a cutoff returns no less than an expansion that has
  already finished.  A child left out as a cycle adds nothing.
- Call an entered (s, F) at g good when g + h*(s, F) <= C*.  The root is.
  If V > C*, no good state is pruned or final, since its f or g would be at
  most C* (h and every table entry are admissible); so a good state is
  expanded, or cut off by an expansion of the same (s, F) at some g0 <= g,
  which is good too.
- Order the (s, F) by h*(s, F), and those of equal h* by the fewest edges
  on an optimal path on.  Suppose V > C*, and take a good expansion X, of
  (s, F) at g, that comes first.  Let e be the first edge of such a path,
  to (q, F'); q comes before s, since h* falls by e's cost and, where e
  costs nothing, the path on is one edge shorter.  If X entered e's child,
  the child was expanded or cut off, and either way a good expansion of
  (q, F') exists: it comes before X, a contradiction.
- Else X left q out as a cycle on its own path, which may not be this
  path: q is the state of an ancestor A, expanded at g_A <= g under its own
  F_A.  Where edges cost nothing, as zero-duration actions do, A may be
  reached at exactly its optimal g and h* need not fall from X to A; the
  edge count still orders them.  Every path on from (q, F') is also a path
  on from (q, F_A) when F_A lies within F', and always where F is empty (in
  a sequential space, or without right shift).  Then A is good and comes
  no later than (q, F'), so before X: again a contradiction.  Under right
  shift F_A may not lie within F'; there, as for dropping cycles at all,
  the search assumes the cycle loses nothing, and the tests against the
  blind oracles check it.
So V <= C*: the iteration that finds no solution ends below the optimum or
at it, and the one at bound C* finds an optimal plan.

Both searches, this one and IDAO* (`idao`), are recursive code whose nested
calls are generators (`x = yield self._child(...)`), run by `drive` on one
list, so plan length is not bounded by Python's recursion limit.  Only a
state that will be expanded gets a generator: final states, states whose f
exceeds the bound after the transposition-table probe, cut-off states and,
in IDAO*, solved-table hits are settled by a plain call that returns the
result.

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


# Fibonacci hashing (Knuth, TAOCP vol. 3, 6.4): the key's hash times 2^64
# over the golden ratio, modulo 2^64.  The high bits of the product depend
# on every bit of the hash, and `slot_index` keeps those.
_GOLDEN = 0x9E3779B97F4A7C15
_BITS64 = (1 << 64) - 1


def slot_index(key, capacity: int) -> int:
    """The slot of the key in a closed-hash table of that capacity: the
    mixed hash, read as a fraction of 2^64, times the capacity, rounded
    down.  An atom mask hashes to itself, so `hash(key) % capacity` would
    see only its low bits, the lowest atom ids."""
    return (hash(key) * _GOLDEN & _BITS64) * capacity >> 64


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

    def get(self, key) -> tuple[Units, int] | None:
        """(value, mask) of the key's entry, or None."""
        slot = self._slots[slot_index(key, self.capacity)]
        if slot is not None and slot[0] == key:
            return slot[1], slot[3]
        return None

    def put(self, key, value: Units, depth: int, mask: int = 0) -> None:
        i = slot_index(key, self.capacity)
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
                 tt_capacity: int = 1 << 16, recorder: Recorder | None = None) -> None:
        self.space = space
        self.table = table
        self.tt = TranspositionTable(tt_capacity) if use_tt else None
        self.recorder = recorder
        self.stats = SearchStats()
        # (state, F) -> (g, least) of each expansion finished this iteration
        self._done: dict = {}

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
            self._done.clear()
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
        clean, solution edges last first or None); settle a (state, F) whose
        expansion at some g0 <= g finished earlier in the iteration with
        value v0 as (v0 + g - g0, unclean, None); give any other state's
        expansion.  h is the score the parent ordered it by, raised by a
        table entry whose forbidden set lies within F, the one `via`
        imposes.  F is computed at most once per entered state, and only for
        a state with a mask entry or one that passes the bound test.

        The cutoff value can exceed a fresh search's: the earlier expansion
        left out as cycles the children on its own path, which this path
        may not hold.  The next bound stays at most the optimum all the same
        (module docstring): an optimal path on from this state through such
        a child runs into an ancestor of the earlier expansion, reached no
        later, at exactly its optimal g where the edges between cost
        nothing, and that ancestor's own expansion, finished or still on
        the path, bounds the iteration's value by the optimum."""
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
        if forbidden is None:
            forbidden = self.space.forbidden(via)
        done = self._done.get((state, forbidden))
        if done is not None and g >= done[0]:
            return done[1] + g - done[0], False, None
        return self._dfs(state, g, h, via, forbidden, bound)

    def _dfs(self, state, g: Units, h: Units, via, forbidden: int, bound: Units):
        """Enter the children by f, those of equal f in the space's order.
        The value is the least pruned f below this node, with branches that
        closed a cycle on the current path left out and cut-off states
        counted by their earlier expansion's value: every remaining
        contribution exceeds the bound, so the schedule always advances, and
        it never passes the optimum (module docstring).  Leaving cycles out
        makes the value path-dependent, so it is clean only if no cycle was
        pruned and no state cut off anywhere below.  The table is given
        `sound` instead, clean or not: the least over all children, those on
        the path included, of the child's value if clean and its entry f
        otherwise.  Each term bounds every path through its child."""
        space = self.space
        edges, _ = space.successors(state, forbidden)
        if self.recorder:
            self.recorder.expansion(NORMAL, space.atoms_of(state).bit_count(),
                                    tuple(space.atoms_of(e.state).bit_count() for e in edges))
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
            self.tt.put(state, sound - g, len(on_path), forbidden)
        self._done[state, forbidden] = g, least
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
