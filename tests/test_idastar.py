import random
from fractions import Fraction

import pytest

from conftest import (MIXED_DURS, achieve_cost, forbidden_set, forward_dijkstra, optimum,
                      random_problem, seq_optimal, temporal_makespan)
from hmplan import fixtures
from hmplan.hm import compute_base_heuristic
from hmplan.htable import HeuristicTable
from hmplan.idastar import IdaStar, TranspositionTable, build_plan
from hmplan.metrics import Recorder
from hmplan.model import INF, Atom, GroundAction, Mode, Problem
from hmplan.sequential import SequentialSpace
from hmplan.temporal import TemporalSpace
from hmplan.validate import validate_plan


def searcher(problem, m=2, right_shift=False, **kw):
    t = HeuristicTable(problem.scale)
    compute_base_heuristic(problem, t, m)
    space = (
        SequentialSpace(problem)
        if problem.mode is Mode.SEQUENTIAL
        else TemporalSpace(problem, right_shift=right_shift)
    )
    return IdaStar(space, t, **kw)


def recorded(problem, m=2, **kw):
    """The search's result and the Recorder that counted its work."""
    rec = Recorder()
    return searcher(problem, m, recorder=rec, **kw).run(), rec


class TestTranspositionTable:
    def test_put_get(self):
        tt = TranspositionTable(8)
        tt.put("k", Fraction(3), depth=2)
        assert tt.get("k") == (3, 0)
        assert tt.get("other") is None

    def test_same_key_keeps_max_value_min_depth(self):
        # Under one mask the larger value and the smaller depth are kept;
        # under another mask the new entry replaces the old one whole.
        tt = TranspositionTable(8)
        tt.put("k", Fraction(3), depth=5)
        tt.put("k", Fraction(2), depth=1)
        assert tt.get("k") == (3, 0)
        assert tt._slots[tt._index("k")] == ("k", 3, 1, 0)
        tt.put("k", Fraction(2), depth=4, mask=0b110)
        assert tt._slots[tt._index("k")] == ("k", 2, 4, 0b110)
        tt.put("k", Fraction(5), depth=6, mask=0b110)
        tt.put("k", Fraction(4), depth=2, mask=0b110)
        assert tt._slots[tt._index("k")] == ("k", 5, 2, 0b110)

    def test_entry_keeps_its_forbidden_set(self):
        # A value found where more actions were forbidden may exceed what
        # the state's search gives with fewer forbidden: it is returned with
        # its own mask only, never merged into an entry under another mask.
        tt = TranspositionTable(8)
        tt.put("k", Fraction(9), depth=1, mask=0b11)
        tt.put("k", Fraction(4), depth=1, mask=0b01)
        assert tt.get("k") == (4, 0b01)
        tt.put("k", Fraction(6), depth=1)
        assert tt.get("k") == (6, 0)

    def test_collision_prefers_shallower_entry(self):
        tt = TranspositionTable(1)
        tt.put("a", Fraction(4), depth=3)
        tt.put("b", Fraction(9), depth=5, mask=0b1)
        assert tt.get("a") == (4, 0) and tt.get("b") is None
        tt.put("c", Fraction(1), depth=0, mask=0b1)
        assert tt.get("c") == (1, 0b1) and tt.get("a") is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TranspositionTable(0)


class TestSequentialSearch:
    def test_satellite_optimal(self):
        # [DERIVED: brute-force forward search gives 7]
        p = fixtures.satellite()
        assert seq_optimal(p) == 7
        res = searcher(p).run()
        assert res.outcome == "solved" and res.cost == 7
        assert validate_plan(p, res.plan).ok

    def test_weak_heuristic_still_optimal(self):
        # h1 underestimates, forcing several deepening iterations
        p = fixtures.satellite()
        res = searcher(p, m=1).run()
        assert res.cost == 7
        assert res.stats.iterations > 1

    def test_bounds_strictly_increase(self):
        p = fixtures.satellite()
        res, rec = recorded(p, m=1)
        b = [r.bound for r in rec.trace if r.phase == "ida"]
        assert len(b) == res.stats.iterations
        assert all(x < y for x, y in zip(b, b[1:]))

    def test_empty_goal_solved_immediately(self):
        p = fixtures.chain(3)
        q = Problem(p.atoms, p.actions, p.init, frozenset(), p.mode)
        res = searcher(q).run()
        assert res.outcome == "solved" and res.cost == 0
        assert res.plan.steps == []

    def test_unsolvable_detected(self):
        res = searcher(fixtures.unsolvable()).run()
        assert res.outcome == "unsolvable"
        assert res.cost is None and res.plan is None

    def test_upper_limit_reports_next_bound(self):
        p = fixtures.satellite()
        res = searcher(p).run(upper_limit=Fraction(5))
        assert res.outcome == "limit"
        assert res.next_bound == 7  # h2 root estimate already exceeds 5

    def test_tt_does_not_change_cost(self):
        p = fixtures.growing(depth=2, width=2)
        with_tt, rec_with = recorded(p, m=1, use_tt=True)
        without, rec_without = recorded(p, m=1, use_tt=False)
        assert with_tt.cost == without.cost
        assert rec_with.expansions <= rec_without.expansions

    def test_chain_plan_in_execution_order(self):
        p = fixtures.chain(4)
        res = searcher(p).run()
        names = [s.action.name for s in res.plan.sorted_steps()]
        assert names == ["step0", "step1", "step2", "step3"]


class TestTemporalSearch:
    def test_parallel_satellite_makespan(self):
        # [DERIVED: forward layered search gives 6]
        p = fixtures.satellite(mode=Mode.PARALLEL)
        res = searcher(p, right_shift=True).run()
        assert res.cost == 6
        assert validate_plan(p, res.plan).ok

    def test_temporal_mix_fractional_makespan(self):
        # [DERIVED: by hand; both millings overlap, box at the end]
        p = fixtures.temporal_mix()
        res = searcher(p, right_shift=True).run()
        # [DERIVED: 5/2 is 5 halves]
        assert p.scale == 2 and res.cost == 5
        assert res.plan.metric == Fraction(5, 2)
        assert validate_plan(p, res.plan).ok

    def test_right_shift_preserves_cost(self):
        p = fixtures.satellite(mode=Mode.PARALLEL)
        on = searcher(p, right_shift=True).run()
        off = searcher(p, right_shift=False).run()
        assert on.cost == off.cost == 6


class TestBuildPlan:
    def test_temporal_start_times(self):
        # a regression path: last edge regressed holds the earliest action
        atoms = [Atom(0, "p"), Atom(1, "q")]
        a = GroundAction(0, "a", frozenset(), frozenset({0}), frozenset(),
                         Fraction(1), Fraction(2))
        b = GroundAction(1, "b", frozenset({0}), frozenset({1}), frozenset(),
                         Fraction(1), Fraction(3))
        p = Problem(atoms, [a, b], frozenset(), frozenset({1}), Mode.TEMPORAL)
        space = TemporalSpace(p)

        class E:
            def __init__(self, actions, delta):
                self.actions = actions
                self.delta = delta

        # edge deltas count units of 1/scale; the plan holds Fractions
        plan = build_plan(space, [E((b,), 3), E((a,), 2)])
        assert plan.metric == 5 and type(plan.metric) is Fraction
        starts = {s.action.name: s.start for s in plan.steps}
        assert starts == {"a": 0, "b": 2}
        assert all(type(s.start) is Fraction for s in plan.steps)


class TestEvaluationCount:
    def test_one_evaluation_per_child(self):
        # The root is evaluated once per run and every child once, when it is
        # scored for ordering; entering it reuses that score.  The search
        # evaluates in units, through the space's estimate.
        p = fixtures.satellite()
        ida = searcher(p, m=1)
        calls = {"evaluate": 0, "edges": 0}
        estimate, successors = ida.space.estimate, ida.space.successors

        def counted_estimate(table, s):
            calls["evaluate"] += 1
            return estimate(table, s)

        def counted_successors(s, forbidden=0):
            edges, cuts = successors(s, forbidden)
            calls["edges"] += len(edges)
            return edges, cuts

        ida.space.estimate = counted_estimate
        ida.space.successors = counted_successors
        res = ida.run()
        assert res.cost == 7 and res.stats.iterations > 1
        assert calls["evaluate"] == 1 + calls["edges"]

    def test_expansions_unchanged_by_reuse(self):
        # [DERIVED: counts of the search that evaluated every child twice;
        # m = 1 of the search that stores a bound under pruned cycles]
        p = fixtures.satellite()
        assert recorded(p, m=1)[1].expansions == 337
        assert recorded(p, m=2)[1].expansions == 7
        _, mix = recorded(fixtures.temporal_mix(), m=1, right_shift=True)
        assert mix.expansions == 3


class TestChildOrder:
    """IDA* enters a node's children in order of f, and children of equal f
    in the order the space listed them: the space alone breaks ties."""

    @staticmethod
    def entered_in_listed_order(problem, m=2):
        ida = searcher(problem, m, right_shift=True)
        listed = {}  # id(edge) -> (expansion number, position in its list)
        entered = []  # per expansion, (f, position) of each child entered
        successors, enter = ida.space.successors, ida._enter

        def recording_successors(s, forbidden=0):
            edges, cuts = successors(s, forbidden)
            for i, e in enumerate(edges):
                listed[id(e)] = (len(entered), i)
            entered.append([])
            return edges, cuts

        def recording_enter(state, g, h, via, bound):
            if via is not None:
                n, i = listed[id(via)]
                entered[n].append((g + h, i))
            return enter(state, g, h, via, bound)

        ida.space.successors = recording_successors
        ida._enter = recording_enter
        res = ida.run()
        ties = 0
        for children in entered:
            for (f, i), (f_next, i_next) in zip(children, children[1:]):
                assert f <= f_next
                if f == f_next:
                    assert i < i_next
                    ties += 1
        return res, ties

    def test_satellite_four_images(self):
        p = fixtures.satellite(("d2", "d3", "d4", "d5"), Mode.TEMPORAL)
        res, ties = self.entered_in_listed_order(p)
        assert res.outcome == "solved" and ties > 0
        assert validate_plan(p, res.plan).ok

    @pytest.mark.parametrize("seed", [122, 154, 164, 193, 212])
    def test_random_temporal_problems(self, seed):
        # Draws whose search enters children of equal f.
        p = random_problem(random.Random(seed), mode=Mode.TEMPORAL, durs=MIXED_DURS)
        res, ties = self.entered_in_listed_order(p)
        assert res.outcome == "solved" and ties > 0
        assert validate_plan(p, res.plan).ok


class TestProbeOrder:
    """Transposition-table probes and hits, expansions and the bounds of
    each iteration, pinned: the search must enter the same states in the
    same order, with and without the table."""

    FOUR = ("d2", "d3", "d4", "d5")

    # [DERIVED: counts of the search that walked an explicit frame stack; the
    # last four rows' counts of the search that sorts children by f alone;
    # the -tt rows' counts of the search that stores under pruned cycles
    # and under right-shift cuts]
    @pytest.mark.parametrize("goals, mode, m, use_tt, counts, bounds", [
        (("d4", "d5"), Mode.SEQUENTIAL, 1, True, (2138, 1509, 337), [3, 4, 5, 6, 7]),
        (("d4", "d5"), Mode.SEQUENTIAL, 1, False, (0, 0, 3663), [3, 4, 5, 6, 7]),
        (("d4", "d5"), Mode.TEMPORAL, 2, True, (6, 0, 6), [6]),
        (("d4", "d5"), Mode.TEMPORAL, 2, False, (0, 0, 6), [6]),
        (FOUR, Mode.TEMPORAL, 2, True, (729, 116, 75), [6, 7, 8, 9]),
        (FOUR, Mode.TEMPORAL, 2, False, (0, 0, 108), [6, 7, 8, 9]),
        (("d5",), Mode.TEMPORAL, 1, True, (565, 420, 61), [3, 4]),
        (("d5",), Mode.TEMPORAL, 1, False, (0, 0, 189), [3, 4]),
    ], ids=["seq-tt", "seq", "temp-tt", "temp", "temp4-tt", "temp4", "temp1-tt", "temp1"])
    def test_satellite(self, monkeypatch, goals, mode, m, use_tt, counts, bounds):
        hits = []
        get = TranspositionTable.get

        def counted_get(tt, key):
            value = get(tt, key)
            hits.append(value is not None)
            return value

        monkeypatch.setattr(TranspositionTable, "get", counted_get)
        # Right shift is on in temporal mode.
        _, rec = recorded(fixtures.satellite(goals, mode), m, use_tt=use_tt,
                          right_shift=mode is Mode.TEMPORAL)
        assert (len(hits), sum(hits), rec.expansions) == counts
        assert [r.bound for r in rec.trace if r.phase == "ida"] == bounds


class TestForbiddenContext:
    """An entry stored where right shift forbade the actions F bounds the
    search below its state whenever a superset of F is forbidden, since
    fewer children can only raise the value.  The search uses it exactly
    there."""

    @staticmethod
    def probes(problem, m):
        """(entry, forbidden set, h before, h after) per probe that found
        an entry above the state's score."""
        ida = searcher(problem, m, right_shift=True)
        found, entered, out = [], [], []
        get = ida.tt.get
        enter, dfs = ida._enter, ida._dfs

        def recording_get(key):
            found.append(get(key))
            return found[-1]

        def recording_dfs(state, g, h, *rest):
            entered.append(h)
            return dfs(state, g, h, *rest)

        def recording_enter(state, g, h, via, bound):
            n, e = len(found), len(entered)
            result = enter(state, g, h, via, bound)
            if len(found) > n and found[-1] is not None and found[-1][0] > h:
                after = entered[-1] if len(entered) > e else result[0] - g
                out.append((found[-1], forbidden_set(problem, via), h, after))
            return result

        ida.tt.get, ida._enter, ida._dfs = recording_get, recording_enter, recording_dfs
        res = ida.run()
        assert res.outcome == "solved"
        assert validate_plan(problem, res.plan).ok
        return out

    @pytest.mark.parametrize("goals, m", [(("d2", "d3", "d4", "d5"), 2), (("d5",), 1)])
    def test_satellite(self, goals, m):
        used = wider = refused = 0
        for (value, mask), forbidden, h, after in self.probes(
                fixtures.satellite(goals, Mode.TEMPORAL), m):
            if mask & ~forbidden:
                assert after == h
                refused += 1
            else:
                assert after == value
                used += bool(mask)
                wider += bool(mask) and forbidden != mask
        assert wider > 0 and refused > 0


class TestStoredBoundsAdmissible:
    """After a search, every value left in the transposition table is at
    most the optimal cost of achieving its state from the initial state."""

    @staticmethod
    def entries(p, m, **kw):
        ida = searcher(p, m, **kw)
        assert ida.run().outcome == "solved"
        return [slot for slot in ida.tt._slots if slot is not None]

    def test_sequential(self):
        rng = random.Random(19)
        checked = 0
        for _ in range(600):
            p = random_problem(rng)
            dist = forward_dijkstra(p)
            if achieve_cost(dist, p.goal) == INF:
                continue
            for state, value, _, mask in self.entries(p, 1):
                assert mask == 0
                assert value <= achieve_cost(dist, state) * p.scale
                checked += 1
        assert checked > 100

    @pytest.mark.parametrize("mode", [Mode.TEMPORAL, Mode.PARALLEL])
    def test_temporal(self, mode):
        # Only an entry stored where right shift cut nothing bounds the
        # state's makespan itself; one with in-progress actions bounds a
        # state no plain goal set stands for.  A schedule exists exactly
        # when a sequential plan does, so the blind oracle is asked only
        # about reachable goals, and only up to the stored value.
        rng = random.Random(23)
        checked = 0
        for _ in range(500):
            p = random_problem(rng, max_atoms=7, max_actions=10, mode=mode,
                               durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
            dist = forward_dijkstra(p)
            if achieve_cost(dist, p.goal) == INF:
                continue
            for state, value, _, mask in self.entries(p, 1, right_shift=True):
                if mask or state.in_progress:
                    continue
                checked += 1
                if achieve_cost(dist, state.goals) == INF:
                    continue
                q = Problem(p.atoms, p.actions, p.init, state.goals, p.mode)
                at_least = Fraction(value, p.scale)
                assert value <= temporal_makespan(q, at_least=at_least) * p.scale
        assert checked > 30


class TestOneSlotTable:
    """With one slot nearly every probe finds an entry, most of them another
    state's.  A table that answered for the wrong state, or gave one state
    another's value, would prune the optimal path.  Each search runs only up
    to the oracle's optimum, so such a table makes it answer `limit`; on an
    unsolvable problem nothing bounds it, so those are left out."""

    FIXTURES = [
        fixtures.satellite(),
        fixtures.satellite(mode=Mode.PARALLEL),
        fixtures.satellite(mode=Mode.TEMPORAL),
        fixtures.satellite(TestProbeOrder.FOUR, Mode.SEQUENTIAL),
        fixtures.satellite(TestProbeOrder.FOUR, Mode.PARALLEL),
        fixtures.chain(6),
        fixtures.chain(4, Mode.TEMPORAL, durs=[Fraction(1, 2), 2, 0, Fraction(3, 2)]),
        fixtures.growing(2, 3),
        fixtures.temporal_mix(),
    ]

    @staticmethod
    def solves(p, m, opt):
        res = searcher(p, m, tt_capacity=1, right_shift=True).run(upper_limit=opt * p.scale)
        assert res.outcome == "solved" and res.cost == opt * p.scale
        assert validate_plan(p, res.plan).ok

    @pytest.mark.parametrize("p", FIXTURES, ids=lambda p: f"{p.name}-{p.mode.value}")
    def test_fixtures(self, p):
        self.solves(p, 2, optimum(p))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_random_problems(self, mode):
        rng = random.Random(31)
        for _ in range(60):
            p = random_problem(rng, max_atoms=7, max_actions=10, mode=mode,
                               durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
            opt = optimum(p)
            if opt != INF and not p.goal <= p.init:
                self.solves(p, 1, opt)
