"""Shared oracles and generators.

The oracles here are deliberately independent of the planner's search code:
sequential costs come from forward Dijkstra over full world states, parallel
makespans from forward breadth-first search over compatible action sets.
The temporal oracle is a blind (heuristic-free) Dijkstra over the regression
graph.  Its transitions come from `successors_product`, the plain product
enumeration of establisher choices that `successors_temporal` must match;
the two share only `compatible` and the state and edge types.  Sequential
regression is stated here by `applicable_seq` and `regress_seq`, the full
scan over every action that `successors_seq` must match, and temporal plan
validation by `validate_temporal_oracle`, which `validate_plan` must match.
`ground_by_product` is the plain product grounder that `pddl.ground`'s join
must match.

The oracles hold atom sets as frozensets, as `Problem` does; the search core
holds them as int masks.  `mask` and `ids` convert one set, and `masked`
and `unmasked` convert a `TempState` or `TempEdge` between the two forms.
"""

from __future__ import annotations

import heapq
import itertools
import random
from fractions import Fraction

import pytest

from hmplan.metrics import Recorder
from hmplan.model import INF, ZERO, Atom, AtomSet, GroundAction, Mode, Plan, Problem
from hmplan.pddl import DomainAst, Literal, PddlError, ProblemAst, _pos, _subtypes
from hmplan.temporal import FEntry, TempEdge, TempState, compatible
from hmplan.validate import ValidationResult


def mask(atom_ids) -> int:
    """The int mask of the atom ids, as the search core holds a set."""
    out = 0
    for p in atom_ids:
        out |= 1 << p
    return out


def ids(atoms: int) -> AtomSet:
    """The atom ids of an int mask, as a frozenset."""
    return frozenset(p for p in range(atoms.bit_length()) if atoms >> p & 1)


def masked(x):
    """An oracle `TempState` or `TempEdge`, atom sets as frozensets, in the
    search core's form, atom sets as masks; None stays None."""
    if x is None:
        return None
    if type(x) is TempState:
        return TempState(mask(x.goals), x.in_progress)
    return TempEdge(masked(x.state), x.delta, x.actions, mask(x.carried), masked(x.source))


def unmasked(x):
    """The inverse of `masked`: a search core `TempState` or `TempEdge` with
    its atom sets as frozensets, for the oracles; None stays None."""
    if x is None:
        return None
    if type(x) is TempState:
        return TempState(ids(x.goals), x.in_progress)
    return TempEdge(unmasked(x.state), x.delta, x.actions, ids(x.carried), unmasked(x.source))


def forward_dijkstra(problem: Problem) -> dict[AtomSet, Fraction]:
    """Cheapest action-cost to reach every reachable world state."""
    start = problem.init
    dist: dict[AtomSet, Fraction] = {start: ZERO}
    heap: list[tuple[Fraction, int, AtomSet]] = [(ZERO, 0, start)]
    tick = itertools.count(1)
    while heap:
        d, _, s = heapq.heappop(heap)
        if d > dist.get(s, INF):
            continue
        for a in problem.actions:
            if a.pre <= s:
                s2 = (s - a.delete) | a.add
                nd = d + a.cost
                if nd < dist.get(s2, INF):
                    dist[s2] = nd
                    heapq.heappush(heap, (nd, next(tick), s2))
    return dist


def achieve_cost(dist: dict[AtomSet, Fraction], goals: AtomSet):
    """Cheapest cost to reach any world state containing all the goals."""
    return min((d for s, d in dist.items() if goals <= s), default=INF)


def seq_optimal(problem: Problem):
    return achieve_cost(forward_dijkstra(problem), problem.goal)


def _compatible_subsets(actions: list[GroundAction]):
    """All nonempty pairwise-compatible subsets, generated recursively."""
    out: list[tuple[GroundAction, ...]] = []

    def rec(i: int, picked: tuple[GroundAction, ...]) -> None:
        for j in range(i, len(actions)):
            a = actions[j]
            if all(compatible(a, b) for b in picked):
                out.append(picked + (a,))
                rec(j + 1, picked + (a,))

    rec(0, ())
    return out


def parallel_makespan(problem: Problem):
    """Forward breadth-first search, one layer of compatible actions per step."""
    if problem.goal <= problem.init:
        return ZERO
    frontier = {problem.init}
    seen = set(frontier)
    depth = 0
    n_states = 1 << len(problem.atoms)
    while frontier and depth <= n_states:
        depth += 1
        nxt = set()
        for s in frontier:
            applicable = [a for a in problem.actions if a.pre <= s]
            for subset in _compatible_subsets(applicable):
                s2 = s
                for a in subset:
                    s2 = s2 - a.delete
                for a in subset:
                    s2 = s2 | a.add
                if problem.goal <= s2:
                    return Fraction(depth)
                if s2 not in seen:
                    seen.add(s2)
                    nxt.add(s2)
        frontier = nxt
    return INF


def _right_shift_forbids(via: TempEdge | None, a: GroundAction) -> bool:
    """The right-shift rule stated with `compatible`: a may not establish
    anything at via.state if every atom of its E that a adds was carried
    from via.source by a no-op, a deletes none of the source's goals, and it
    is compatible with the source's in-progress actions and with the
    establishers chosen there."""
    if via is None:
        return False
    added = a.add & via.state.goals
    if not added or not added <= via.carried:
        return False
    if a.delete & via.source.goals:
        return False
    if any(not compatible(a, b) for b, _ in via.source.in_progress):
        return False
    return all(compatible(a, c) for c in via.actions)


def forbidden_set(problem: Problem, via: TempEdge | None) -> int:
    """The actions `_right_shift_forbids` removes below `via`, as a bitmask
    over action indices."""
    return sum(1 << a.index for a in problem.actions if _right_shift_forbids(via, a))


def successors_product(
    problem: Problem,
    s: TempState,
    via: TempEdge | None = None,
    use_right_shift: bool = False,
) -> tuple[list[TempEdge], int]:
    """Reference enumeration for `successors_temporal`: the full
    `itertools.product` of establisher candidates per sorted goal atom (the
    no-op first, then the adders in action index order), each signature
    (chosen actions, no-op'd atoms) kept at its first occurrence and only
    then filtered for compatibility and no-op deletes.  Returns the edges in
    that order and the number of (atom, adder) pairs the right-shift rule
    removed."""
    goal_ids = sorted(s.goals)
    f_actions = [a for a, _ in s.in_progress]
    dur = problem.dur_units
    cut_count = 0

    # Establisher candidates per atom; None encodes the no-op.
    options: list[list[GroundAction | None]] = []
    for p in goal_ids:
        cands: list[GroundAction | None] = [None]
        for a in problem.adders[p]:
            if use_right_shift and _right_shift_forbids(via, a):
                cut_count += 1
                continue
            if all(compatible(a, b) for b in f_actions):
                cands.append(a)
        options.append(cands)

    edges: list[TempEdge] = []
    seen: set[tuple[tuple[int, ...], AtomSet]] = set()
    for choice in itertools.product(*options):
        chosen: dict[int, GroundAction] = {}
        noops: set[int] = set()
        for p, a in zip(goal_ids, choice):
            if a is None:
                noops.add(p)
            else:
                chosen[a.index] = a
        if not chosen and not s.in_progress:
            continue  # pure stutter
        sig = (tuple(sorted(chosen)), frozenset(noops))
        if sig in seen:
            continue
        seen.add(sig)
        acts = [chosen[i] for i in sorted(chosen)]
        if any(a.delete & noops for a in acts):
            continue
        if any(a.delete & noops for a in f_actions):
            continue
        ok = True
        for a, b in itertools.combinations(acts, 2):
            if not compatible(a, b):
                ok = False
                break
        if not ok:
            continue

        # Offsets: durations of chosen positive-duration actions plus F.
        offsets: list[FEntry] = [(a, dur[a]) for a in acts if dur[a] > 0]
        offsets.extend(s.in_progress)
        zero_pre: AtomSet = frozenset()
        for a in acts:
            if dur[a] == 0:
                zero_pre = zero_pre | a.pre
        noop_set = frozenset(noops)
        released = zero_pre
        if not offsets:
            advance = 0
            new_f: tuple[FEntry, ...] = ()
        else:
            advance = min(d for _, d in offsets)
            remaining = []
            for a, d in offsets:
                if d == advance:
                    released = released | a.pre
                else:
                    remaining.append((a, d - advance))
            new_f = tuple(sorted(remaining, key=lambda e: (e[0].index, e[1])))
        new_e = noop_set | released
        # An atom counts as no-op-carried only if persistence is its sole
        # reason for being a goal; atoms also required as preconditions stay
        # required no matter how the carried copy came about.
        edges.append(TempEdge(TempState(new_e, new_f), advance, tuple(acts),
                              noop_set - released, s))
    return edges, cut_count


def temporal_makespan(problem: Problem, cap: int = 200_000, at_least=INF):
    """Blind Dijkstra over the temporal regression graph (no heuristic,
    no right-shift, no transposition table).  The graph's time advances
    count units of 1/problem.scale; the makespan returned is a Fraction.
    A search that reaches `at_least` stops there and returns the distance
    reached: a lower bound on the makespan, and at least `at_least`."""
    root = TempState(problem.goal)
    dist: dict[TempState, int] = {root: 0}
    heap: list[tuple[int, int, TempState]] = [(0, 0, root)]
    tick = itertools.count(1)
    popped = 0
    enough = at_least * problem.scale
    while heap:
        d, _, s = heapq.heappop(heap)
        if d > dist.get(s, INF):
            continue
        if d >= enough:
            return Fraction(d, problem.scale)
        popped += 1
        assert popped <= cap, "temporal oracle exceeded its search cap"
        if not s.in_progress and s.goals <= problem.init:
            return Fraction(d, problem.scale)
        edges, _ = successors_product(problem, s)
        for e in edges:
            nd = d + e.delta
            if nd < dist.get(e.state, INF):
                dist[e.state] = nd
                heapq.heappush(heap, (nd, next(tick), e.state))
    return INF


def optimum(p: Problem):
    """The oracles' optimum.  A schedule exists exactly when a sequential
    plan does (compatible overlapping steps also run one after another), so
    the temporal oracle, a blind search, is not asked to exhaust the
    regression graph of an unsolvable problem."""
    if p.mode is Mode.SEQUENTIAL:
        return seq_optimal(p)
    if seq_optimal(Problem(p.atoms, p.actions, p.init, p.goal, Mode.SEQUENTIAL)) == INF:
        return INF
    return parallel_makespan(p) if p.mode is Mode.PARALLEL else temporal_makespan(p)


def applicable_seq(action: GroundAction, s: AtomSet) -> bool:
    """An action regresses s iff it deletes nothing in s and adds something in s."""
    return not (action.delete & s) and bool(action.add & s)


def regress_seq(s: AtomSet, action: GroundAction) -> AtomSet:
    assert applicable_seq(action, s)
    return (s - action.add) | action.pre


def validate_temporal_oracle(problem: Problem, plan: Plan) -> ValidationResult:
    """`validate_plan` for temporal and parallel plans by brute force: every
    pair of steps is tested for overlap, and every step at every time point."""
    errors: list[str] = []
    steps = plan.sorted_steps()
    for i, st in enumerate(steps):
        if st.start < 0:
            errors.append(f"step {i} ({st.action.name}): negative start time {st.start}")
    makespan = max((st.start + st.action.dur for st in steps), default=Fraction(0))

    # Any two actions whose execution intervals properly overlap must not
    # interfere.  Meeting end to start is ordinary sequencing and is allowed.
    for i, a in enumerate(steps):
        for b in steps[i + 1:]:
            if _overlap(a.start, a.action.dur, b.start, b.action.dur):
                if not compatible(a.action, b.action):
                    errors.append(
                        f"incompatible overlap: ({a.action.name}) at {a.start} "
                        f"and ({b.action.name}) at {b.start}"
                    )

    state = set(problem.init)
    times = sorted({st.start for st in steps} | {st.start + st.action.dur for st in steps})
    for t in times:
        for st in steps:
            if st.action.dur > 0 and st.start + st.action.dur == t:
                state -= st.action.delete
                state |= st.action.add
        # Zero-duration actions at t fire one at a time: each time the first
        # pending one in plan order whose precondition holds, until all have
        # fired or none can.
        pending = [st for st in steps if st.action.dur == 0 and st.start == t]
        while pending:
            ready = next((st for st in pending if st.action.pre <= state), None)
            if ready is None:
                for st in pending:
                    miss = st.action.pre - state
                    names = ", ".join(sorted(problem.set_names(frozenset(miss))))
                    errors.append(
                        f"({st.action.name}) at {t}: precondition not satisfied: {names}"
                    )
                break
            state -= ready.action.delete
            state |= ready.action.add
            pending.remove(ready)
        for st in steps:
            if st.action.dur > 0 and st.start == t:
                miss = st.action.pre - state
                if miss:
                    names = ", ".join(sorted(problem.set_names(frozenset(miss))))
                    errors.append(
                        f"({st.action.name}) at {t}: precondition not satisfied: {names}"
                    )
    missing = problem.goal - state
    if missing:
        names = ", ".join(sorted(problem.set_names(frozenset(missing))))
        errors.append(f"goal not satisfied at makespan: {names}")
    if plan.metric != makespan:
        errors.append(f"plan metric {plan.metric} differs from makespan {makespan}")
    return ValidationResult(not errors, makespan, errors)


def _overlap(s1: Fraction, d1: Fraction, s2: Fraction, d2: Fraction) -> bool:
    e1, e2 = s1 + d1, s2 + d2
    if d1 == 0 and d2 == 0:
        return False  # instantaneous actions at one point fire one at a time
    if d1 == 0:
        return s2 < s1 < e2
    if d2 == 0:
        return s1 < s2 < e1
    return s1 < e2 and s2 < e1


def regression_states(problem: Problem, cap: int = 100_000) -> set[AtomSet]:
    """All states reachable by blind sequential regression from the goal, as
    frozensets."""
    from hmplan.sequential import successors_seq

    root = mask(problem.goal)
    seen = {root}
    stack = [root]
    while stack:
        s = stack.pop()
        assert len(seen) <= cap
        for e in successors_seq(problem, s):
            if e.state not in seen:
                seen.add(e.state)
                stack.append(e.state)
    return set(map(ids, seen))


def gbf_sweep(problem: Problem, m: int) -> dict[AtomSet, int | float]:
    """Reference schedule for the GBF h^m fixpoint: relax every set of size
    <= m round-robin (by size, lexical within) until a whole sweep changes
    nothing.  Each set has one edge per regression of it: by an action from
    `successors_seq` in sequential mode, and otherwise by a relaxed temporal
    regression from `successors_temporal` and `relax_state`.  It keeps its own
    sets, labels and relaxation step, with neither rows nor value levels, so
    it checks both engines of `compute_base_heuristic`, and returns every
    set's value in units of 1/problem.scale."""
    from hmplan.sequential import successors_seq
    from hmplan.temporal import relax_state, successors_temporal

    def edges(s: AtomSet):
        """(delta, ((atoms, offset), ...)) per regression of s."""
        if problem.mode is Mode.SEQUENTIAL:
            return [(e.delta, ((ids(e.state), 0),)) for e in successors_seq(problem, mask(s))]
        return [(e.delta, [(ids(atoms), offset) for atoms, offset in relax_state(problem, e.state)])
                for e in successors_temporal(problem, TempState(mask(s)))[0]]

    def subsets(atoms):
        ids = sorted(atoms)
        return [frozenset(c) for k in range(1, min(m, len(ids)) + 1)
                for c in itertools.combinations(ids, k)]

    value = {s: 0 if s <= problem.init else INF for s in subsets(range(len(problem.atoms)))}
    regressions = {s: edges(s) for s in value if not s <= problem.init}

    def atoms_value(atoms: AtomSet):
        if 0 < len(atoms) <= m:
            return value[atoms]
        return max(map(value.__getitem__, subsets(atoms)), default=0)

    changed = True
    while changed:
        changed = False
        for s, es in regressions.items():
            new = min((delta + max(offset + atoms_value(atoms) for atoms, offset in comps)
                       for delta, comps in es), default=INF)
            if new < value[s]:
                value[s] = new
                changed = True
    return value


def random_problem(rng: random.Random, max_atoms: int = 10,
                   max_actions: int = 15, mode: Mode = Mode.SEQUENTIAL,
                   costs: tuple[Fraction, ...] | None = None,
                   durs: tuple[Fraction, ...] | None = None,
                   max_add: int = 2) -> Problem:
    """A random problem; sequential action costs are drawn from `costs` and
    temporal durations from `durs` when they are given, and each action adds
    1 to `max_add` atoms."""
    n = rng.randint(4, max_atoms)
    atoms = [Atom(i, f"x{i}") for i in range(n)]
    ids = list(range(n))
    actions = []
    for k in range(rng.randint(3, max_actions)):
        add = frozenset(rng.sample(ids, rng.randint(1, max_add)))
        rest = [i for i in ids if i not in add]
        delete = frozenset(rng.sample(rest, min(len(rest), rng.randint(0, 2))))
        pre = frozenset(rng.sample(ids, rng.randint(0, min(3, n))))
        if mode is Mode.SEQUENTIAL and costs is not None:
            cost = rng.choice(costs)
            dur = Fraction(1)
        elif mode is Mode.SEQUENTIAL:
            cost = Fraction(rng.choice([1, 1, 1, 2, 3]), rng.choice([1, 1, 2]))
            dur = Fraction(1)
        elif mode is Mode.TEMPORAL and durs is not None:
            cost = Fraction(1)
            dur = rng.choice(durs)
        else:
            cost = Fraction(1)
            dur = Fraction(1) if mode is Mode.PARALLEL else \
                Fraction(rng.choice([1, 2, 3, 3]), rng.choice([1, 1, 2]))
        actions.append(GroundAction(k, f"a{k}", pre, add, delete, cost, dur))
    init = frozenset(rng.sample(ids, rng.randint(1, n)))
    goal = frozenset(rng.sample(ids, rng.randint(1, min(3, n))))
    return Problem(atoms, actions, init, goal, mode, f"random-{mode.value}")


# Action costs whose common scale (6) is the LCM of unlike denominators.
MIXED_COSTS = (Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), Fraction(1))
# Durations with the same scale, and zero-duration actions among them.
MIXED_DURS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6),
              Fraction(1), Fraction(3, 2))


def mixed_temporal_draws(count: int):
    """The first `count` draws of the temporal family with MIXED_DURS on
    Random(20240817).  Its 26th draw, 4 atoms and 7 actions with two of zero
    duration, is unsolvable although h^2 gives its goal a finite value."""
    rng = random.Random(20240817)
    return [random_problem(rng, max_atoms=7, max_actions=10, mode=Mode.TEMPORAL,
                           durs=MIXED_DURS) for _ in range(count)]


def ground_by_product(domain: DomainAst, problem: ProblemAst,
                      mode: Mode = Mode.SEQUENTIAL) -> Problem:
    """The reference grounder `pddl.ground` must match: it walks every
    binding of `itertools.product` over the typed pools and substitutes all
    of a binding's literals before it tests the (in)equality constraints and
    static preconditions.  Same atoms (ids and names), actions (order,
    names, sets, durations), init and goal as `pddl.ground`, far slower.
    """
    if problem.domain.text != domain.name:
        raise PddlError(f"problem is for domain {problem.domain.text!r}, not {domain.name!r}",
                        problem.filename, *_pos(problem.domain))
    assignable = _subtypes(domain.types, domain.filename)
    objects: dict[str, str] = {}
    declared = [(o, t, domain.filename) for o, t in domain.constants]
    declared += [(o, t, problem.filename) for o, t in problem.objects]
    for o, t, filename in declared:
        if o in objects:
            raise PddlError(f"object {o!r} declared twice", filename)
        if t not in assignable:
            raise PddlError(f"object {o!r} has undeclared type {t!r}", filename)
        objects[o] = t
    by_type: dict[str, list[str]] = {}
    for o, t in objects.items():
        for sup, subs in assignable.items():
            if t in subs:
                by_type.setdefault(sup, []).append(o)

    arities = dict(domain.predicates)
    affected = {lit.pred for a in domain.actions for lit in a.add + a.delete}

    def check_lit(lit: Literal, ctx: str, filename: str, variables=()) -> None:
        """Raise at the literal's position unless its predicate is declared
        with its arity, its variables are bound and its objects declared."""
        def fail(message: str) -> None:
            raise PddlError(f"{message} in {ctx}", filename, lit.line, lit.col)

        if lit.pred not in arities:
            fail(f"undeclared predicate {lit.pred!r}")
        if len(lit.args) != len(arities[lit.pred]):
            fail(f"wrong arity for {lit.pred!r}")
        for arg in lit.args:
            if arg.startswith("?"):
                if arg not in variables:
                    fail(f"unbound variable {arg}")
            elif arg not in objects:
                fail(f"undeclared object {arg!r}")

    for lit in problem.init + problem.goal:
        check_lit(lit, "problem", problem.filename)

    # A ground atom is (predicate, objects), without a source position.
    static_init = {(lit.pred, lit.args) for lit in problem.init
                   if lit.pred not in affected}

    # Deterministic atom ids: first occurrence order.
    atom_ids: dict[tuple[str, tuple[str, ...]], int] = {}

    def atom_of(atom: tuple[str, tuple[str, ...]]) -> int:
        return atom_ids.setdefault(atom, len(atom_ids))

    raw: list[tuple[str, frozenset, frozenset, frozenset, Fraction]] = []
    for schema in domain.actions:
        ctx = f"action {schema.name}"
        var_names = [v for v, _ in schema.params]
        for lit in schema.pre + schema.add + schema.delete:
            check_lit(lit, ctx, domain.filename, var_names)
        for x in itertools.chain.from_iterable(schema.eq + schema.neq):
            if x.startswith("?") and x not in var_names:
                raise PddlError(f"unbound variable {x} in {ctx}", domain.filename,
                                schema.line, schema.col)
        pools = []
        for v, t in schema.params:
            if t not in assignable:
                raise PddlError(f"undeclared type {t!r} in {ctx}", domain.filename,
                                schema.line, schema.col)
            pools.append(by_type.get(t, []))
        for binding in itertools.product(*pools):
            env = dict(zip(var_names, binding))
            term = lambda x: env.get(x, x)  # every variable is bound (checked)
            if any(term(x) != term(y) for x, y in schema.eq):
                continue
            if any(term(x) == term(y) for x, y in schema.neq):
                continue
            sub = lambda lit: (lit.pred, tuple(term(a) for a in lit.args))
            pre_lits = [sub(l) for l in schema.pre]
            add_lits = [sub(l) for l in schema.add]
            del_lits = [sub(l) for l in schema.delete]
            if any(l[0] not in affected and l not in static_init for l in pre_lits):
                continue  # a static precondition is false
            pre_lits = [l for l in pre_lits if l[0] in affected]
            if set(add_lits) & set(del_lits):
                continue  # contradictory instance
            if not add_lits:
                continue  # cannot establish anything; irrelevant to regression
            name = " ".join((schema.name,) + binding)
            pre_set = frozenset(atom_of(l) for l in pre_lits)
            add_set = frozenset(atom_of(l) for l in add_lits)
            del_set = frozenset(atom_of(l) for l in del_lits)
            raw.append((name, pre_set, add_set, del_set, schema.dur))

    init_atoms = frozenset(atom_of((l.pred, l.args)) for l in problem.init
                           if l.pred in affected)
    goal_atoms = frozenset(atom_of((l.pred, l.args)) for l in problem.goal
                           if l.pred in affected)
    for lit in problem.goal:
        if lit.pred not in affected and (lit.pred, lit.args) not in static_init:
            # A static goal no action can achieve: keep it as an atom with no
            # adder so the planner reports unsolvable rather than erroring.
            goal_atoms = goal_atoms | {atom_of((lit.pred, lit.args))}

    # Prune actions whose preconditions can never all become true.
    keep = list(range(len(raw)))
    while True:
        addable = set(init_atoms)
        for i in keep:
            addable |= raw[i][2]
        new_keep = [i for i in keep if raw[i][1] <= addable]
        if new_keep == keep:
            break
        keep = new_keep

    atoms = [Atom(i, " ".join((pred,) + args))
             for i, (pred, args) in enumerate(atom_ids)]
    actions = []
    for idx, i in enumerate(keep):
        name, pre, add, delete, dur = raw[i]
        if mode is not Mode.TEMPORAL:
            dur = Fraction(1)
        actions.append(GroundAction(idx, name, pre, add, delete, Fraction(1), dur))
    return Problem(atoms, actions, init_atoms, goal_atoms, mode, problem.name)


class CappedRecorder(Recorder):
    """A Recorder that fails the test at its `cap`-th expansion, so a search
    that would run on fails at once instead."""

    def __init__(self, cap: int) -> None:
        super().__init__()
        self.cap = cap

    def expansion(self, *event) -> None:
        super().expansion(*event)
        assert self.expansions < self.cap, f"{self.cap} expansions"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
