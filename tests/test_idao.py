import itertools
import random
from fractions import Fraction

import pytest

from conftest import MIXED_DURS, mask, random_problem, seq_optimal, temporal_makespan
from hmplan import fixtures
from hmplan.hm import compute_base_heuristic
from hmplan.htable import HeuristicTable
from hmplan.idao import IdaoSearch, SolvedTable, enumerate_and_successors
from hmplan.metrics import AND, Recorder
from hmplan.model import INF, Mode, Problem
from hmplan.pipeline import PlannerConfig, run_pipeline
from hmplan.sequential import SequentialSpace
from hmplan.temporal import TempState, TemporalSpace
from hmplan.validate import validate_plan


def search(problem, m, base_m=1, **kw):
    t = HeuristicTable(problem.scale)
    compute_base_heuristic(problem, t, base_m)
    space = (
        SequentialSpace(problem)
        if problem.mode is Mode.SEQUENTIAL
        else TemporalSpace(problem)
    )
    return IdaoSearch(space, t, m, **kw)


class TestSolvedTable:
    def test_put_get(self):
        st = SolvedTable(8)
        st.put(frozenset({1}), Fraction(4))
        assert st.get(frozenset({1})) == 4
        assert st.get(frozenset({2})) is None

    def test_full_table_takes_no_new_key(self):
        # A full table still updates the entries it holds.
        st = SolvedTable(1)
        st.put("a", Fraction(1))
        st.put("b", Fraction(2))
        assert st.get("b") is None and st.get("a") == 1
        st.put("a", Fraction(3))
        assert st.get("a") == 3 and len(st._entries) == 1

    def test_capacity_validated(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                SolvedTable(capacity)


class TestAndSuccessors:
    def test_counts(self):
        # [TRIVIAL: C(8,3) = 56]
        subs = enumerate_and_successors(mask(range(8)), 3)
        assert len(subs) == 56
        assert all(s.bit_count() == 3 for s in subs)

    def test_lexical_order(self):
        subs = enumerate_and_successors(mask({5, 1, 3, 0}), 2)
        assert subs == [
            mask({0, 1}), mask({0, 3}), mask({0, 5}),
            mask({1, 3}), mask({1, 5}), mask({3, 5}),
        ]

    def test_requires_oversized_input(self):
        with pytest.raises(AssertionError):
            enumerate_and_successors(mask({1, 2}), 2)

    def test_random_masks_match_combinations(self):
        # Ids up to 200, so masks span several machine words.
        rng = random.Random(41)
        for _ in range(150):
            ids = rng.sample(range(201), rng.randint(2, 9))
            m = rng.randint(1, len(ids) - 1)
            assert enumerate_and_successors(mask(ids), m) == \
                [mask(c) for c in itertools.combinations(sorted(ids), m)]


class TestExactness:
    def test_satellite_m2_solves_goal(self):
        # [DERIVED: brute-force optimal 7; goal has 2 atoms so m=2 suffices]
        p = fixtures.satellite()
        out = search(p, 2).run()
        assert out.outcome == "solved" and out.cost == 7
        # size-4 regressed states split into pairs, so the pass has no plan
        assert out.plan is None

    def test_satellite_m4_is_and_free(self):
        # no regressed state exceeds 4 atoms, so m=4 yields a plan chain
        p = fixtures.satellite()
        out = search(p, 4, base_m=2).run()
        assert out.outcome == "solved" and out.cost == 7
        assert out.plan is not None and out.plan.metric == 7

    def test_complete_flags_and_free_passes_only(self):
        # [DERIVED: with h^3 below, the m=4 pass meets no state above 4 atoms;
        # the m=3 pass splits one size-4 state]
        p = fixtures.satellite()
        free = search(p, 4, base_m=3).run()
        assert free.outcome == "solved" and free.plan is not None
        split = search(p, 3, base_m=2).run()
        assert split.outcome == "solved" and split.plan is None

    def test_random_or_only_matches_oracle(self):
        # m at least the largest reachable state removes all AND nodes
        rng = random.Random(31)
        checked = 0
        for _ in range(25):
            p = random_problem(rng, max_atoms=6, max_actions=9)
            opt = seq_optimal(p)
            out = search(p, len(p.atoms)).run()
            assert (out.outcome == "solved") == (opt != INF)
            if out.outcome == "solved":
                assert p.to_cost(out.cost) == opt
                checked += 1
        assert checked >= 5

    def test_unsolvable_pair(self):
        out = search(fixtures.unsolvable(), 2).run()
        assert out.outcome == "unsolvable"

    def test_bounded_run_stops_early(self):
        p = fixtures.satellite()
        out = search(p, 2).run(bound=Fraction(4))
        assert out.outcome == "limit"
        assert out.next_bound > 4

    def test_temporal_pass(self):
        # [DERIVED: forward layered search gives makespan 6]
        p = fixtures.satellite(mode=Mode.PARALLEL)
        out = search(p, 2).run()
        assert out.outcome == "solved" and out.cost == 6


class TestComputesHm:
    """The source paper's identity: h^m is the optimal cost in the relaxed
    m-regression space, so a solved pass at m over the table at a lower
    base returns exactly the root's complete h^m value, and an unsolvable
    pass means that value is INF.  A wrong solved-table hit or a dropped
    subset would leave the pass short of it, also with a one-slot table.

    A pass from the complete h^(m-1) also leaves no set of size at most m
    above its complete h^m in sequential and parallel mode.  In temporal
    mode it may, where actions stay in progress (see `idao`), but never
    above the set's makespan."""

    @staticmethod
    def run_pass(p, base_m, m, solved_capacity):
        """(the pass's result, the root's complete h^m, the number of sets
        of size at most m the pass left above their complete h^m).  Sets
        are checked only after a pass from the complete h^(m-1)."""
        complete = HeuristicTable(p.scale)
        compute_base_heuristic(p, complete, m)
        idao = search(p, m, base_m, solved_capacity=solved_capacity)
        out = idao.run()
        above = 0
        for k in range(1, m + 1) if base_m == m - 1 else ():
            for atoms in map(frozenset, itertools.combinations(range(len(p.atoms)), k)):
                value = idao.table.eval(mask(atoms))
                if value <= complete.eval(mask(atoms)):
                    continue
                assert p.mode is Mode.TEMPORAL, (p.name, sorted(atoms))
                goal = Problem(list(p.atoms), list(p.actions), p.init, atoms, p.mode)
                makespan = temporal_makespan(goal, at_least=p.to_cost(value))
                assert value <= makespan * p.scale, (p.name, sorted(atoms))
                above += 1
        return out, complete.eval(mask(p.goal)), above

    @pytest.mark.parametrize("solved_capacity", [1 << 16, 1])
    def test_random_problems(self, solved_capacity):
        rng = random.Random(5)
        modes = list(Mode)
        equal = unsolvable = 0
        for draw in range(90):
            p = random_problem(rng, max_atoms=8, max_actions=12, mode=modes[draw % 3])
            for base_m, m in ((1, 2), (1, 3), (2, 3)):
                out, want, _ = self.run_pass(p, base_m, m, solved_capacity)
                if out.outcome == "solved":
                    assert out.cost == want
                    equal += 1
                else:
                    assert out.outcome == "unsolvable" and want == INF
                    unsolvable += 1
        assert equal > 0 and unsolvable > 0
        # [DERIVED: draw 158 of these leaves two sets above h^3]
        rng = random.Random(11)
        above = 0
        for _ in range(160):
            p = random_problem(rng, max_atoms=8, max_actions=12, mode=Mode.TEMPORAL,
                               durs=MIXED_DURS)
            for base_m, m in ((1, 2), (2, 3)):
                above += self.run_pass(p, base_m, m, solved_capacity)[2]
        assert above > 0


class TestPassPlans:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_plans_are_plans(self, mode):
        # A solved pass has a plan exactly when it split no state, and the
        # plan is valid at the pass cost.  Temporal durations are positive.
        rng = random.Random(43)
        plans = splits = 0
        for _ in range(15):
            p = random_problem(rng, max_atoms=8, max_actions=12, mode=mode)
            for m, base_m in ((1, 1), (2, 1), (len(p.atoms), 2)):
                rec = Recorder()
                out = search(p, m, base_m=base_m, recorder=rec).run()
                if out.outcome != "solved":
                    assert out.plan is None
                    continue
                split = any(e.space == AND for e in rec.events)
                assert (out.plan is None) == split
                if out.plan is not None:
                    assert validate_plan(p, out.plan).ok
                    assert out.plan.metric == p.to_cost(out.cost)
                plans += not split
                splits += split
        assert plans >= 20 and splits >= 5


class TestTableSideEffects:
    def test_pass_improves_heuristic_table(self):
        p = fixtures.satellite()
        t = HeuristicTable()
        compute_base_heuristic(p, t, 1)
        assert t.eval(mask(p.goal)) == 3
        IdaoSearch(SequentialSpace(p), t, 2).run()
        assert t.eval(mask(p.goal)) == 7
        assert t.eval(mask(p.atom_set("point d4", "on"))) == 2

    def test_values_stay_admissible(self):
        rng = random.Random(37)
        from conftest import achieve_cost, forward_dijkstra, regression_states

        for _ in range(10):
            p = random_problem(rng, max_atoms=6, max_actions=9)
            t = HeuristicTable(p.scale)
            compute_base_heuristic(p, t, 1)
            IdaoSearch(SequentialSpace(p), t, 2).run()
            dist = forward_dijkstra(p)
            for s in regression_states(p, cap=20_000):
                assert p.to_cost(t.eval(mask(s))) <= achieve_cost(dist, s)

    @pytest.mark.parametrize("mode", [Mode.TEMPORAL, Mode.PARALLEL])
    def test_temporal_values_stay_admissible(self, mode):
        # After boosting, no goal of at most three atoms evaluates above the
        # makespan of reaching it.  A goal's makespan is at least any of its
        # subsets', so the oracle runs only where those do not decide it.
        # (Seed 37 draws a goal on which the blind oracle takes seconds.)
        rng = random.Random(3)
        durs = MIXED_DURS if mode is Mode.TEMPORAL else None
        checked = raised = 0
        for _ in range(40):
            p = random_problem(rng, max_atoms=6, max_actions=9, mode=mode, durs=durs)
            space = TemporalSpace(p)
            t = HeuristicTable(p.scale)
            compute_base_heuristic(p, t, 1)
            sets = [frozenset(c) for k in (1, 2, 3)
                    for c in itertools.combinations(range(len(p.atoms)), k)]
            base = {s: space.evaluate(t, TempState(mask(s))) for s in sets}
            # The passes of hspa from h^1 under fixed:3.
            for m in (2, 3):
                IdaoSearch(space, t, m).run()
            makespan = {}  # goal -> a lower bound on its makespan
            for s in sets:
                v = space.evaluate(t, TempState(mask(s)))
                makespan[s] = max((makespan[s - {a}] for a in s if len(s) > 1),
                                  default=0)
                if v > makespan[s]:
                    goal = Problem(list(p.atoms), list(p.actions), p.init, s, mode)
                    makespan[s] = temporal_makespan(goal, at_least=v)
                    checked += 1
                assert v <= makespan[s], (p.name, sorted(s))
                raised += v > base[s]
        assert checked >= 80 and raised >= 15

    def test_solved_table_reused_within_pass(self):
        p = fixtures.satellite()
        rec = Recorder()
        out = search(p, 2, recorder=rec).run()
        assert out.outcome == "solved" and out.cost == 7
        assert rec.solved_hits > 0


class TestSearchRoots:
    """No search root is ever in the solved table, so none is looked up: a
    pass starts with the table empty, and a subset of an AND node is
    searched again only after an iteration that did not solve it."""

    @pytest.fixture
    def roots(self, monkeypatch):
        """Checks every root as its iteration starts; one entry per root,
        True when the iteration is a deepened one."""
        deepened = []
        search = IdaoSearch._search

        def checked(self, state, h, current, *rest):
            assert self._settle(state) is None
            deepened.append(current > h)
            return search(self, state, h, current, *rest)
        monkeypatch.setattr(IdaoSearch, "_search", checked)
        return deepened

    STOPS = ("fixed:3", "fixed:4", "no-and", "converged")

    @pytest.mark.parametrize("mode", list(Mode))
    def test_satellite(self, roots, mode):
        for base_m in (1, 2):
            for stop in self.STOPS:
                res = run_pipeline(fixtures.satellite(mode=mode),
                                   PlannerConfig(pipeline="hspa", base_m=base_m, stop=stop))
                assert res.outcome == "solved"
        assert sum(roots) >= 10

    def test_random_problems(self, roots):
        rng = random.Random(61)
        for i in range(100):
            mode = list(Mode)[i % 3]
            p = random_problem(rng, max_atoms=10, max_actions=14, mode=mode,
                               durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
            for base_m in (1, 2):
                for stop in self.STOPS:
                    run_pipeline(p, PlannerConfig(pipeline="hspa", base_m=base_m, stop=stop))
        assert len(roots) >= 800 and sum(roots) >= 150
