import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import MIXED_DURS, forbidden_set, mask, masked, random_problem, successors_product
from hmplan import fixtures, pddl, temporal
from hmplan.hm import compute_base_heuristic
from hmplan.htable import HeuristicTable
from hmplan.idastar import IdaStar
from hmplan.model import ZERO, Atom, GroundAction, Mode, Problem
from hmplan.pipeline import PlannerConfig, run_pipeline
from hmplan.temporal import (
    TempEdge,
    TempState,
    TemporalSpace,
    compatible,
    forbidden_mask,
    relax_state,
    relaxed_atoms,
    storage_value,
    successors_temporal,
)


DATA = Path(__file__).parent / "data"

_NAMES = ["p", "q", "r", "s", "u", "v"]
_ID = {n: i for i, n in enumerate(_NAMES)}


def act(index, name, pre, add, delete=(), dur=1):
    return GroundAction(index, name, frozenset(_ID[x] for x in pre),
                       frozenset(_ID[x] for x in add),
                       frozenset(_ID[x] for x in delete),
                       Fraction(1), Fraction(dur))


def problem(atom_names, actions, init, goal, mode=Mode.TEMPORAL):
    del atom_names  # the full universe is always declared
    atoms = [Atom(i, n) for i, n in enumerate(_NAMES)]
    return Problem(atoms, actions, frozenset(_ID[x] for x in init),
                   frozenset(_ID[x] for x in goal), mode)


@pytest.fixture(scope="module")
def sat1():
    return fixtures.satellite(mode=Mode.TEMPORAL)


def by_name(p, name):
    return next(a for a in p.actions if a.name == name)


class TestCompatibility:
    def test_satellite_turn_vs_power_on(self, sat1):
        # [DERIVED: no delete of either touches the other's pre or add]
        assert compatible(by_name(sat1, "turn d1 d2"), by_name(sat1, "power-on"))

    def test_delete_of_precondition_incompatible(self, sat1):
        # turn d4 d5 deletes (point d4), precondition of take-image d4
        assert not compatible(
            by_name(sat1, "turn d4 d5"), by_name(sat1, "take-image d4")
        )

    def test_delete_of_add_incompatible(self):
        a = act(0, "a", [], ["p"])
        b = act(1, "b", [], ["q"], delete=["p"])
        assert not compatible(a, b)
        assert not compatible(b, a)


class TestRelaxation:
    def test_no_in_progress_single_component(self):
        s = TempState(mask({3, 4}))
        assert relax_state(problem(_NAMES, [], [], ["p"]), s) == [(mask({3, 4}), ZERO)]

    def test_components_in_decreasing_offset_order(self):
        # [DERIVED: offsets 2 then 1 then 0; deeper offsets join shallower sets]
        a1 = act(0, "a1", ["q"], ["u"])
        a2 = act(1, "a2", ["q", "r"], ["v"])
        s = TempState(mask({0}), ((a1, 1), (a2, 2)))
        comps = relax_state(problem(_NAMES, [a1, a2], [], ["p"]), s)
        assert comps == [
            (mask(a2.pre), 2),
            (mask(a1.pre | a2.pre), 1),
            (mask({0} | a1.pre | a2.pre), ZERO),
        ]

    def test_equal_offsets_share_a_component(self):
        a1 = act(0, "a1", ["q"], ["u"])
        a2 = act(1, "a2", ["r"], ["v"])
        s = TempState(mask({0}), ((a1, 2), (a2, 2)))
        comps = relax_state(problem(_NAMES, [a1, a2], [], ["p"]), s)
        assert comps[0] == (mask(a1.pre | a2.pre), 2)
        assert len(comps) == 2

    def test_state_size_counts_union(self):
        # [DERIVED: |{p} u {q} u {q,r}| = 3]
        a1 = act(0, "a1", ["q"], ["u"])
        a2 = act(1, "a2", ["q", "r"], ["v"])
        s = TempState(mask({0}), ((a1, 1), (a2, 2)))
        space = TemporalSpace(problem(_NAMES, [a1, a2], [], ["p"]))
        assert space.atoms_of(s).bit_count() == 3
        assert relaxed_atoms(space.problem, s) == mask({0} | a1.pre | a2.pre)

    def test_storage_subtracts_max_offset(self):
        # [DERIVED: 5 - 2 = 3]
        a1 = act(0, "a1", ["q"], ["u"])
        a2 = act(1, "a2", ["r"], ["v"])
        p = problem(_NAMES, [a1, a2], [], ["p"])
        s = TempState(mask({0}), ((a1, 1), (a2, 2)))
        atoms, value = storage_value(p, s, 5)
        assert atoms == relaxed_atoms(p, s)
        assert value == 3

    def test_storage_clamps_at_zero(self):
        a = act(0, "a", ["q"], ["u"])
        s = TempState(mask({0}), ((a, 4),))
        assert storage_value(problem(_NAMES, [a], [], ["p"]), s, 2)[1] == ZERO

    def test_storage_without_in_progress_is_identity(self):
        s = TempState(mask({1, 2}))
        assert storage_value(problem(_NAMES, [], [], ["p"]), s, 6) == (mask({1, 2}), 6)


class TestSuccessors:
    def test_single_establisher_unit_duration(self):
        # [TRIVIAL: one real establisher, stutter no-op branch dropped]
        a = act(0, "a", ["q"], ["p"])
        p = problem(["p", "q"], [a], ["q"], ["p"])
        edges, cuts = successors_temporal(p, TempState(mask(p.goal)))
        assert cuts == 0 and len(edges) == 1
        e = edges[0]
        assert e.delta == 1 and e.actions == (a,)
        assert e.state == TempState(mask(a.pre))
        assert not e.state.in_progress

    def test_advance_releases_nearest_action(self):
        # [DERIVED: advance by min offset; nearer action's pre joins E]
        a1 = act(0, "a1", ["q"], ["u"], dur=3)
        a2 = act(1, "a2", ["r"], ["v"], dur=3)
        p = problem(["p", "q", "r", "u", "v"], [a1, a2], ["q", "r", "p"], ["p"])
        s = TempState(mask(p.atom_set("p")), ((a1, 1), (a2, 2)))
        edges, _ = successors_temporal(p, s)
        noop_edge = next(e for e in edges if not e.actions)
        assert noop_edge.delta == 1
        assert noop_edge.state.goals == mask(a1.pre | p.atom_set("p"))
        assert noop_edge.state.in_progress == ((a2, 1),)

    def test_chosen_action_enters_progress_when_longer(self):
        a = act(0, "a", ["q"], ["p"], dur=3)
        b = act(1, "b", ["r"], ["s"], dur=1)
        p = problem(["p", "q", "r", "s"], [a, b], ["q", "r"], ["p", "s"])
        edges, _ = successors_temporal(p, TempState(mask(p.goal)))
        both = next(e for e in edges if len(e.actions) == 2)
        assert both.delta == 1
        assert both.state.in_progress == ((a, 2),)
        assert both.state.goals == mask(b.pre)  # a's pre released 2 units later

    def test_zero_duration_effects_at_start_point(self):
        z = act(0, "z", ["q"], ["p"], dur=0)
        p = problem(["p", "q"], [z], ["q"], ["p"])
        edges, _ = successors_temporal(p, TempState(mask(p.goal)))
        assert len(edges) == 1
        e = edges[0]
        assert e.delta == ZERO
        assert e.state == TempState(mask(z.pre))
        assert not e.state.in_progress

    def test_establishers_must_be_pairwise_compatible(self):
        a = act(0, "a", [], ["p"], delete=["r"])
        b = act(1, "b", ["r"], ["q"])
        p = problem(["p", "q", "r"], [a, b], ["r"], ["p", "q"])
        edges, _ = successors_temporal(p, TempState(mask(p.goal)))
        assert all({x.name for x in e.actions} != {"a", "b"} for e in edges)

    def test_establisher_may_not_delete_nooped_atom(self):
        a = act(0, "a", [], ["p"], delete=["q"])
        p = problem(["p", "q"], [a], ["q"], ["p", "q"])
        edges, _ = successors_temporal(p, TempState(mask(p.goal)))
        # the only establisher of p deletes the no-op'd q: dead end
        assert edges == []

    def test_parallel_unit_durations_never_carry(self, sat1):
        par = fixtures.satellite(mode=Mode.PARALLEL)
        seen = [TempState(mask(par.goal))]
        for _ in range(3):
            nxt = []
            for s in seen:
                for e in successors_temporal(par, s)[0]:
                    assert e.state.in_progress == ()
                    nxt.append(e.state)
            seen = nxt[:5]

    def test_final_requires_empty_progress(self):
        a = act(0, "a", ["q"], ["p"], dur=2)
        space = TemporalSpace(problem(["p", "q"], [a], ["q"], ["p"]))
        assert space.is_final(TempState(mask({1})))
        assert not space.is_final(TempState(mask({1}), ((a, 1),)))


def forbids(problem, via, a):
    """Whether `forbidden_mask` has a's bit set below `via`."""
    return bool(forbidden_mask(problem, via) >> a.index & 1)


class TestRightShift:
    def test_cut_when_only_persistence_needed(self, sat1):
        take5 = by_name(sat1, "take-image d5")
        take4 = by_name(sat1, "take-image d4")
        edges, _ = successors_temporal(sat1, TempState(mask(sat1.goal)))
        via = next(e for e in edges if e.actions == (take5,))
        assert via.carried == mask(sat1.atom_set("img d4"))
        assert forbids(sat1, via, take4)
        # take-image d4 is the only adder of the carried (img d4)
        assert forbidden_mask(sat1, via) == 1 << take4.index

    def test_no_cut_without_predecessor(self, sat1):
        assert forbidden_mask(sat1, None) == 0

    def test_no_cut_when_incompatible_with_chosen(self, sat1):
        # turn d4 d5 deletes (point d4): take-image d4 cannot shift across it
        take5 = by_name(sat1, "take-image d5")
        turn = by_name(sat1, "turn d4 d5")
        take4 = by_name(sat1, "take-image d4")
        root = TempState(mask(sat1.goal))
        s1 = next(e for e in successors_temporal(sat1, root)[0]
                  if e.actions == (take5,)).state
        via = next(e for e in successors_temporal(sat1, s1)[0]
                   if e.actions == (turn,))
        assert via.carried >> sat1.atom_id("img d4") & 1
        assert not forbids(sat1, via, take4)

    def test_no_cut_when_atom_also_released_precondition(self, sat1):
        # (point d4) is no-op'd and simultaneously pre of the chosen take-image
        take4 = by_name(sat1, "take-image d4")
        turn24 = by_name(sat1, "turn d2 d4")
        s2 = TempState(mask(sat1.atom_set("point d4", "img d4", "on", "cal")))
        via = next(e for e in successors_temporal(sat1, s2)[0]
                   if e.actions == (take4,))
        assert not via.carried >> sat1.atom_id("point d4") & 1
        assert not forbids(sat1, via, turn24)

    def test_cut_counting(self, sat1):
        take5 = by_name(sat1, "take-image d5")
        root = TempState(mask(sat1.goal))
        via = next(e for e in successors_temporal(sat1, root)[0]
                   if e.actions == (take5,))
        _, cuts = successors_temporal(sat1, via.state, forbidden_mask(sat1, via))
        assert cuts >= 1
        _, no_cuts = successors_temporal(sat1, via.state)
        assert no_cuts == 0


class TestSpaceInterface:
    def test_evaluate_adds_offsets(self):
        a = act(0, "a", ["q"], ["u"])
        p = problem(["p", "q", "u"], [a], ["q"], ["p"])
        sp = TemporalSpace(p)
        t = HeuristicTable()
        t.store(mask(p.atom_set("q")), 4)
        s = TempState(mask(p.atom_set("p")), ((a, 2),))
        # component (pre a, offset 2) evaluates to 2 + 4, in units and as a cost
        assert sp.estimate(t, s) == 6
        assert sp.evaluate(t, s) == 6 and type(sp.evaluate(t, s)) is Fraction

    def test_store_value_uses_storage_rule(self):
        a = act(0, "a", ["q"], ["u"])
        p = problem(["p", "q", "u"], [a], ["q"], ["p"])
        sp = TemporalSpace(p)
        t = HeuristicTable()
        s = TempState(mask(p.atom_set("p")), ((a, 2),))
        sp.store_value(t, s, 5)
        assert t.eval(mask(p.atom_set("p", "q"))) == 3


def _expanded(p, space):
    """The (state, F) pairs a right-shift IDA* over `space` asks it to expand,
    in order; an h^1 table and a limit of 4 time units keep the iterations
    many and the search short, solvable or not."""
    table = HeuristicTable(p.scale)
    compute_base_heuristic(p, table, 1)
    asked = []
    successors = space.successors

    def recording(s, forbidden=0):
        asked.append((s, forbidden))
        return successors(s, forbidden)

    space.successors = recording
    IdaStar(space, table).run(4 * p.scale)
    del space.successors
    return asked


def _held(space):
    """The edges the space's successor memo holds."""
    return sum(len(edges) for edges, _ in space._memo.values())


class TestSuccessorMemo:
    """`TemporalSpace.successors` answers a repeated (state, F) from its memo
    with what `successors_temporal` answers afresh; the searches never mutate
    a cached edge list, and a memo that reaches `_MEMO_CAP` edges starts
    afresh."""

    @pytest.mark.parametrize("mode", [Mode.TEMPORAL, Mode.PARALLEL])
    def test_repeats_equal_fresh_answers(self, rng, mode):
        repeats = with_f = 0
        for _ in range(60):
            p = random_problem(rng, mode=mode,
                               durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
            space = TemporalSpace(p, right_shift=True)
            asked = _expanded(p, space)
            repeats += len(asked) - len(set(asked))
            for s, f in set(asked):
                with_f += f != 0
                cached = space._memo[s, f]
                # After the searches, the cached list is still the fresh one.
                assert space.successors(s, f) is cached
                assert cached == successors_temporal(p, s, f)
                if f:
                    # The same state under no F is its own entry, with all
                    # the edges F cut and no cuts.
                    edges, cuts = space.successors(s, 0)
                    assert (edges, cuts) == successors_temporal(p, s, 0)
                    assert space._memo[s, 0] is not cached
                    assert cuts == 0 < cached[1]
            assert space._memo_edges == _held(space)
        assert repeats > 0 and with_f > 0

    def test_cap_clears_and_bounds_the_memo(self, rng, monkeypatch):
        cap = 6
        monkeypatch.setattr(temporal, "_MEMO_CAP", cap)
        clears = 0
        for _ in range(60):
            p = random_problem(rng, mode=Mode.TEMPORAL, durs=MIXED_DURS)
            space = TemporalSpace(p, right_shift=True)
            successors = space.successors

            def checked(s, forbidden=0):
                nonlocal clears
                before, hit = space._memo_edges, (s, forbidden) in space._memo
                answer = successors(s, forbidden)
                assert answer == successors_temporal(p, s, forbidden)
                held = _held(space)
                assert held == space._memo_edges
                if not hit and before >= cap:
                    # At the cap, a new entry clears the memo first.
                    clears += 1
                    assert list(space._memo) == [(s, forbidden)]
                else:
                    assert held == before + (0 if hit else len(answer[0]))
                # Never more than the cap plus one entry.
                assert held < cap + max(len(e) for e, _ in space._memo.values())
                return answer

            space.successors = checked
            _expanded(p, space)
        assert clears > 0


def _self_deleting(rng, mode):
    """A random problem in which some actions delete their own
    preconditions (so they conflict with themselves)."""
    p = random_problem(rng, mode=mode, durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
    actions = [
        GroundAction(a.index, a.name, a.pre | frozenset(sorted(a.delete)[:rng.randint(0, 1)]),
                     a.add, a.delete, a.cost, a.dur)
        for a in p.actions
    ]
    return Problem(list(p.atoms), actions, p.init, p.goal, mode, p.name)


class TestConflictMasks:
    @staticmethod
    def check(problem):
        for a in problem.actions:
            conflicts = problem.conflict_masks[a.index]
            for b in problem.actions:
                assert bool(conflicts >> b.index & 1) == (not compatible(a, b)), (a, b)
            assert problem.delete_masks[a.index] == sum(1 << p for p in a.delete)

    def test_satellite(self, sat1):
        self.check(sat1)
        # take-image d4 needs (point d4), which turn d4 d5 deletes
        take4, turn = by_name(sat1, "take-image d4"), by_name(sat1, "turn d4 d5")
        assert sat1.conflict_masks[take4.index] >> turn.index & 1

    def test_temporal_mix(self):
        self.check(fixtures.temporal_mix())

    def test_workshop_pddl(self):
        self.check(pddl.load(str(DATA / "workshop-domain.pddl"),
                             str(DATA / "workshop-1.pddl"), Mode.TEMPORAL))

    def test_random_self_deleting(self, rng):
        self_conflicts = 0
        for mode in (Mode.TEMPORAL, Mode.PARALLEL):
            for _ in range(40):
                p = _self_deleting(rng, mode)
                self.check(p)
                self_conflicts += sum(p.conflict_masks[a.index] >> a.index & 1
                                      for a in p.actions)
        assert self_conflicts > 0

    def test_sequential_runs_build_no_masks(self):
        p = fixtures.satellite()
        assert run_pipeline(p, PlannerConfig()).outcome == "solved"
        assert "conflict_masks" not in vars(p) and "delete_masks" not in vars(p)


def _walk(problem, rng, depth=4, width=3):
    """(edge, state) pairs up to `depth` regression steps from the goal, each
    state with the edge the walk came to it by (None at the goal), following
    up to `width` random edges of each state."""
    out = []
    frontier = [(None, TempState(problem.goal))]
    for _ in range(depth):
        nxt = []
        for via, s in frontier:
            out.append((via, s))
            edges, _ = successors_product(problem, s)
            nxt += [(e, e.state) for e in rng.sample(edges, min(width, len(edges)))]
        frontier = nxt
    return out


class TestAgainstProduct:
    """`successors_temporal` against the product enumeration it replaced:
    the same edges in the same order (state, delta, actions, carried atoms
    and source all compared) and the same cuts, given the actions the
    product's rule forbids; `forbidden_mask` gives those actions, and so
    does a `TemporalSpace` built with right shift.  Right shift cuts at a
    state exactly when it forbids an action there: IDA* stores that set with
    its table entries without asking the cut count.  The product works on
    frozensets and the space on masks, so the product's edges are compared
    by `masked`.  The edges are `TempEdge`s over `TempState`s, not tuples
    that merely compare equal, and within one call equal child states are
    one object."""

    @staticmethod
    def same(problem, via, s, right_shift):
        forbidden = forbidden_set(problem, via)
        core_via = masked(via)
        assert forbidden_mask(problem, core_via) == forbidden
        space = TemporalSpace(problem, right_shift=right_shift)
        assert space.forbidden(core_via) == (forbidden if right_shift else 0)
        got, got_cuts = space.successors(masked(s), space.forbidden(core_via))
        want, want_cuts = successors_product(problem, s, via, right_shift)
        assert got_cuts == want_cuts
        assert got == [masked(e) for e in want]
        if right_shift:
            assert (got_cuts > 0) == (forbidden != 0)
        states = {}
        for e in got:
            assert type(e) is TempEdge and type(e.state) is TempState
            assert states.setdefault(e.state, e.state) is e.state
        return len(got), got_cuts

    @pytest.mark.parametrize("mode", [Mode.TEMPORAL, Mode.PARALLEL])
    def test_random_walks(self, rng, mode):
        edges = cuts = with_f = 0
        for _ in range(30):
            p = random_problem(rng, mode=mode,
                               durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
            for via, s in _walk(p, rng):
                with_f += bool(s.in_progress)
                for right_shift in (False, True):
                    n, c = self.same(p, via, s, right_shift)
                    edges, cuts = edges + n, cuts + c
        assert edges > 0 and cuts > 0
        if mode is Mode.TEMPORAL:
            assert with_f > 0

    @pytest.mark.parametrize("mode", [Mode.TEMPORAL, Mode.PARALLEL])
    def test_many_shallow_walks(self, mode):
        # Five times the draws of test_random_walks, each walked less deep,
        # with and without right shift.
        rng = random.Random(150)
        edges = carried = 0
        for _ in range(150):
            p = random_problem(rng, mode=mode,
                               durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
            for via, s in _walk(p, rng, depth=3, width=2):
                carried += via is not None and bool(via.carried)
                for right_shift in (False, True):
                    edges += self.same(p, via, s, right_shift)[0]
        assert edges > 150 and carried > 0

    def test_random_states(self, rng):
        # States no regression from the goal reaches: there, no action of F
        # ever deletes an atom of E, so only drawn states reach that rule.
        f_deletes = 0
        for _ in range(60):
            p = random_problem(rng, mode=Mode.TEMPORAL, durs=MIXED_DURS)
            ids = range(len(p.atoms))
            long = [a for a in p.actions if p.dur_units[a] > 1]
            for _ in range(10):
                goals = frozenset(rng.sample(ids, rng.randint(1, 4)))
                f = tuple(sorted({(a, rng.randint(1, p.dur_units[a] - 1))
                                  for a in rng.sample(long, min(len(long), rng.randint(0, 2)))},
                                 key=lambda e: (e[0].index, e[1])))
                s = TempState(goals, f)
                f_deletes += any(a.delete & goals for a, _ in f)
                self.same(p, None, s, False)
        assert f_deletes > 0

    def test_self_deleting_walks(self, rng):
        for _ in range(20):
            p = _self_deleting(rng, Mode.TEMPORAL)
            for via, s in _walk(p, rng):
                for right_shift in (False, True):
                    self.same(p, via, s, right_shift)

    def test_fixtures(self, sat1):
        rng = random.Random(7)
        for p in (sat1, fixtures.satellite(("d2", "d3", "d4", "d5"), Mode.PARALLEL),
                  fixtures.temporal_mix()):
            for via, s in _walk(p, rng, width=2):
                for right_shift in (False, True):
                    self.same(p, via, s, right_shift)
