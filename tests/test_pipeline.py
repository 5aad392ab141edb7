import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import parallel_makespan, random_problem, seq_optimal, temporal_makespan
from conftest import MIXED_COSTS, MIXED_DURS
from hmplan import fixtures
from hmplan.cli import _build_parser
from hmplan.metrics import AND, NORMAL, OR, Recorder, collect_metrics
from hmplan.model import INF, Atom, GroundAction, Mode, Problem
from hmplan.pipeline import PlannerConfig, run_pipeline
from hmplan.sequential import SequentialSpace
from hmplan.temporal import TemporalSpace
from hmplan.validate import validate_plan


def plan(problem, **kw):
    return run_pipeline(problem, PlannerConfig(**kw))


def recorded(problem, **kw):
    """The run's result and the Recorder that counted its work."""
    rec = Recorder()
    return run_pipeline(problem, PlannerConfig(**kw), rec), rec


def phases(rec):
    """The phases of the bound trace in the order they ran."""
    return list(dict.fromkeys(r.phase for r in rec.trace))


def expansions(rec, space):
    return sum(e.space == space for e in rec.events)


class TestAgreement:
    def test_satellite_all_configurations(self):
        # [DERIVED: optimal 7 sequential, makespan 6 parallel]
        for mode, want in [(Mode.SEQUENTIAL, 7), (Mode.PARALLEL, 6),
                           (Mode.TEMPORAL, 6)]:
            p = fixtures.satellite(mode=mode)
            for pipeline in ("tp4", "hspa"):
                for rs in (True, False):
                    for tt in (True, False):
                        res = plan(p, pipeline=pipeline, right_shift=rs,
                                   use_tt=tt)
                        assert res.outcome == "solved" and res.cost == want
                        assert validate_plan(p, res.plan).ok

    def test_random_instances_match_oracle(self):
        rng = random.Random(41)
        for _ in range(15):
            p = random_problem(rng, max_atoms=6, max_actions=9)
            opt = seq_optimal(p)
            a = plan(p, pipeline="tp4")
            b = plan(p, pipeline="hspa")
            if opt == INF:
                assert a.outcome == b.outcome == "unsolvable"
            else:
                assert a.cost == b.cost == opt

    def test_random_parallel_match_oracle(self):
        rng = random.Random(43)
        for _ in range(10):
            p = random_problem(rng, max_atoms=6, max_actions=8,
                               mode=Mode.PARALLEL)
            opt = parallel_makespan(p)
            res = plan(p, pipeline="tp4")
            if opt == INF:
                assert res.outcome == "unsolvable"
            else:
                assert res.cost == opt
                assert validate_plan(p, res.plan).ok


def optimum(p):
    """The oracles' optimum.  A schedule exists exactly when a sequential
    plan does (compatible overlapping steps also run one after another), so
    the temporal oracle, a blind search, is not asked to exhaust the
    regression graph of an unsolvable problem."""
    if p.mode is Mode.SEQUENTIAL:
        return seq_optimal(p)
    if seq_optimal(Problem(p.atoms, p.actions, p.init, p.goal, Mode.SEQUENTIAL)) == INF:
        return INF
    return parallel_makespan(p) if p.mode is Mode.PARALLEL else temporal_makespan(p)


CONFIGS = [dict(pipeline=pipeline, stop=stop, use_tt=use_tt, right_shift=right_shift)
           for pipeline in ("tp4", "hspa") for stop in ("fixed:3", "no-and", "converged")
           for use_tt in (True, False) for right_shift in (True, False)]


class TestEveryConfiguration:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(st.integers(0, 2 ** 32), st.sampled_from(Mode), st.sampled_from([1, 2]),
           st.sampled_from([INF, Fraction(0), Fraction(1, 2), Fraction(2)]))
    def test_random_problems_match_oracles(self, seed, mode, base_m, limit):
        p = random_problem(random.Random(seed), max_atoms=6, max_actions=7, mode=mode,
                           durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
        assume(not p.goal <= p.init)
        opt = optimum(p)
        for kw in CONFIGS:
            res = plan(p, base_m=base_m, upper_limit=limit, **kw)
            if opt != INF and opt <= limit:
                assert res.outcome == "solved" and res.cost == opt, kw
                assert validate_plan(p, res.plan).ok, kw
            elif res.outcome == "limit":
                assert limit < res.next_bound <= opt, kw
            else:
                # Past the limit, only an unsolvable problem may be proven so.
                assert res.outcome == "unsolvable" and opt == INF, kw


class TestHspaStopping:
    def test_no_and_returns_plan_directly(self):
        # base_m=3 makes m=4 the first pass: AND-free on this fixture
        p = fixtures.satellite()
        res, rec = recorded(p, pipeline="hspa", base_m=3, stop="no-and")
        assert res.outcome == "solved" and res.cost == 7
        # one pass, m=4, and no final search was needed
        assert phases(rec) == ["gbf", "idao:4"]
        assert validate_plan(p, res.plan).ok

    def test_fixed_stop_limits_passes(self):
        p = fixtures.satellite()
        res, rec = recorded(p, pipeline="hspa", stop="fixed:3")
        assert res.cost == 7
        assert phases(rec) == ["gbf", "idao:3", "ida"]

    def test_fixed_stop_at_base_level_runs_no_pass(self):
        p = fixtures.satellite()
        res, rec = recorded(p, pipeline="hspa", base_m=2, stop="fixed:2")
        assert phases(rec) == ["gbf", "ida"]
        assert res.cost == plan(p, pipeline="tp4", base_m=2).cost == 7

    def test_converged_stop(self):
        p = fixtures.satellite()
        res, rec = recorded(p, pipeline="hspa", stop="converged")
        assert res.cost == 7
        ms = [int(ph[5:]) for ph in phases(rec) if ph.startswith("idao:")]
        assert ms and ms == list(range(3, 3 + len(ms)))

    def test_passes_boost_heuristic(self):
        p = fixtures.satellite()
        base, rec_base = recorded(p, pipeline="tp4", base_m=1)
        boosted, rec_boosted = recorded(p, pipeline="hspa", base_m=1, stop="fixed:2")
        assert base.cost == boosted.cost == 7
        assert expansions(rec_boosted, NORMAL) < expansions(rec_base, NORMAL)

    def test_bad_stop_rules_rejected(self):
        p = fixtures.chain(2)
        with pytest.raises(ValueError):
            plan(p, pipeline="hspa", stop="fixed:1")
        with pytest.raises(ValueError):
            plan(p, pipeline="hspa", stop="sometimes")

    def test_bad_stop_rules_rejected_under_tp4(self):
        p = fixtures.chain(2)
        for stop in ("fixed:1", "fixed:x", "sometimes"):
            with pytest.raises(ValueError):
                plan(p, pipeline="tp4", stop=stop)

    def test_unknown_pipeline_rejected(self):
        with pytest.raises(ValueError):
            plan(fixtures.chain(2), pipeline="tp5")

    @pytest.mark.parametrize("kw", [
        dict(pipeline="tp4"), dict(pipeline="hspa", stop="fixed:2"),
        dict(pipeline="hspa", stop="fixed:3"),
    ], ids=["tp4", "hspa-fixed2", "hspa-fixed3"])
    @pytest.mark.parametrize("size", ["tt_size", "solved_size"])
    def test_table_sizes_below_one_rejected_before_work(self, kw, size):
        # Checked before the GBF, also where the run never builds the table.
        for value in (0, -1):
            rec = Recorder()
            with pytest.raises(ValueError, match="at least 1"):
                run_pipeline(fixtures.satellite(), PlannerConfig(**kw, **{size: value}), rec)
            assert rec.trace == [] and rec.expansions == 0


class TestEdges:
    def test_unsolvable_short_circuits_before_search(self):
        p = fixtures.unsolvable()
        for pipeline in ("tp4", "hspa"):
            res, rec = recorded(p, pipeline=pipeline)
            assert res.outcome == "unsolvable"
            assert phases(rec) == ["gbf"] and rec.expansions == 0

    def test_empty_goal(self):
        c = fixtures.chain(2)
        p = Problem(c.atoms, c.actions, c.init, frozenset(), c.mode)
        for pipeline in ("tp4", "hspa"):
            res = plan(p, pipeline=pipeline)
            assert res.outcome == "solved" and res.cost == 0

    def test_empty_goal_under_negative_limit(self):
        # The empty plan costs 0, which is above a limit of -1.
        c = fixtures.chain(2)
        p = Problem(c.atoms, c.actions, c.init, frozenset(), c.mode)
        for pipeline in ("tp4", "hspa"):
            res = plan(p, pipeline=pipeline, upper_limit=Fraction(-1))
            assert res.outcome == "limit" and res.next_bound == 0

    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    @pytest.mark.parametrize("pipeline", ["tp4", "hspa"])
    def test_plan_longer_than_recursion_limit(self, pipeline, mode):
        # Neither search recurses on Python's stack, and the validator of
        # concurrent plans is not quadratic in their length.
        p = fixtures.chain(5000, mode)
        res = plan(p, pipeline=pipeline, base_m=1, stop="fixed:2")
        assert res.outcome == "solved" and res.cost == 5000
        assert validate_plan(p, res.plan).ok

    def test_upper_limit(self):
        p = fixtures.satellite()
        res = plan(p, upper_limit=Fraction(5))
        assert res.outcome == "limit" and res.next_bound == 7
        res2 = plan(p, pipeline="hspa", base_m=3, upper_limit=Fraction(5))
        assert res2.outcome == "limit" and res2.next_bound == 7

    def test_result_carries_tables_and_stats(self):
        p = fixtures.satellite()
        res, rec = recorded(p, pipeline="hspa")
        assert res.table is not None and res.table.eval(p.goal) == 7
        assert phases(rec)[:2] == ["gbf", "idao:3"]

    def test_temporal_mix_fractional(self):
        p = fixtures.temporal_mix()
        for pipeline in ("tp4", "hspa"):
            res = plan(p, pipeline=pipeline)
            assert res.cost == Fraction(5, 2)
            assert validate_plan(p, res.plan).ok


class TestPhaseCounts:
    """Each phase's work as the Recorder counts it: expansions by space,
    solved-table hits and misses, and the final search's bounds."""

    @pytest.mark.parametrize("mode, kw, events, solved, ida, estimates", [
        (Mode.SEQUENTIAL, dict(stop="fixed:3"),
         {OR: 11, AND: 1, NORMAL: 7}, (3, 12), [7], 85),
        (Mode.SEQUENTIAL, dict(base_m=1, stop="fixed:2"),
         {OR: 88, AND: 16, NORMAL: 7}, (17, 104), [7], 534),
        (Mode.TEMPORAL, dict(stop="fixed:3"),
         {OR: 10, AND: 1, NORMAL: 6}, (3, 11), [6], 125),
    ], ids=["fixed3", "base1-fixed2", "temporal-fixed3"])
    def test_satellite(self, monkeypatch, mode, kw, events, solved, ida, estimates):
        # `estimates` counts space.estimate calls.  A subset of an AND node
        # found in the solved table is not estimated; estimating it first
        # made 85, 545 and 125 calls, with the same hits and misses.
        calls = []
        for space in (SequentialSpace, TemporalSpace):
            def counted(self, table, s, estimate=space.estimate):
                calls.append(s)
                return estimate(self, table, s)
            monkeypatch.setattr(space, "estimate", counted)
        res, rec = recorded(fixtures.satellite(mode=mode), pipeline="hspa", **kw)
        assert res.outcome == "solved" and res.cost == ida[-1]
        assert len(calls) == estimates
        assert {sp: expansions(rec, sp) for sp in (OR, AND, NORMAL)} == events
        assert rec.expansions == sum(events.values())
        assert (rec.solved_hits, rec.solved_misses) == solved
        assert [r.bound for r in rec.trace if r.phase == "ida"] == ida

    def test_temporal_event_sizes(self):
        # Pinned: a temporal state counts the atoms of its relaxed view.
        _, rec = recorded(fixtures.satellite(mode=Mode.TEMPORAL), pipeline="hspa",
                          stop="fixed:3")
        got = {sp: (m.expansions, m.avg_state_size, m.avg_successor_ratio,
                    m.avg_branching_factor)
               for sp, m in collect_metrics(rec.events).items()}
        assert got == {
            AND: (1, 4.0, 0.75, 4.0),
            NORMAL: (6, 3.0, pytest.approx(61 / 64), pytest.approx(32 / 3)),
            OR: (10, 2.8, pytest.approx(881 / 840), 14.0),
        }

    def test_result_carries_outcomes_only(self):
        res = plan(fixtures.satellite(), pipeline="hspa")
        assert res.cost == 7
        assert set(vars(res)) == {"outcome", "cost", "plan", "next_bound", "table"}


class TestMixedDenominators:
    def test_costs_match_oracle(self):
        rng = random.Random(47)
        solved = 0
        for _ in range(15):
            p = random_problem(rng, max_atoms=6, max_actions=9, costs=MIXED_COSTS)
            opt = seq_optimal(p)
            for pipeline in ("tp4", "hspa"):
                res = plan(p, pipeline=pipeline)
                if opt == INF:
                    assert res.outcome == "unsolvable"
                else:
                    assert res.outcome == "solved" and res.cost == opt
                    assert validate_plan(p, res.plan).ok
            solved += opt != INF
        assert solved >= 5


class TestUnlikeDenominatorDurations:
    """Durations from {0, 1/3, 1/2, 5/6, 1, 3/2}: the search counts sixths,
    and its answers come back as Fractions."""

    CONFIGS = [dict(pipeline="tp4"), dict(pipeline="hspa", stop="fixed:3")]

    @staticmethod
    def problems():
        for seed in (59, 61):
            rng = random.Random(seed)
            for _ in range(15):
                yield random_problem(rng, max_atoms=6, max_actions=8,
                                     mode=Mode.TEMPORAL, durs=MIXED_DURS)

    def test_makespans_match_oracle(self):
        fractional = 0
        for p in self.problems():
            opt = temporal_makespan(p)
            for kw in self.CONFIGS:
                res = plan(p, **kw)
                if opt == INF:
                    assert res.outcome == "unsolvable"
                    continue
                assert res.outcome == "solved" and res.cost == opt
                assert type(res.cost) is Fraction and type(res.plan.metric) is Fraction
                assert all(type(st.start) is Fraction for st in res.plan.steps)
                assert validate_plan(p, res.plan).ok
            fractional += opt != INF and opt.denominator > 1
        assert fractional >= 4

    def test_limit_between_units(self):
        # 7/3 is no whole number of halves: the run must stop at bound 5/2,
        # the first above the limit, as it does for a limit of 2.
        p = fixtures.temporal_mix()
        assert p.scale == 2
        for kw in self.CONFIGS:
            for limit in (Fraction(7, 3), Fraction(2)):
                res = plan(p, upper_limit=limit, **kw)
                assert res.outcome == "limit" and res.next_bound == Fraction(5, 2)
                assert type(res.next_bound) is Fraction
            assert plan(p, upper_limit=Fraction(5, 2), **kw).cost == Fraction(5, 2)

    def test_limits_on_random_problems(self):
        # Below the optimum a run reports a bound above the limit and no
        # higher than the optimum; at or above it the run solves.
        for p in self.problems():
            opt = temporal_makespan(p)
            for kw in self.CONFIGS:
                for limit in (Fraction(1, 4), Fraction(4, 3), Fraction(7, 3)):
                    res = plan(p, upper_limit=limit, **kw)
                    if opt == INF:
                        assert res.outcome == "unsolvable"
                    elif opt > limit:
                        assert res.outcome == "limit"
                        assert limit < res.next_bound <= opt
                    else:
                        assert res.outcome == "solved" and res.cost == opt


class TestZeroCostAndCycles:
    """An OR node whose zero-duration step reaches an AND node over a
    superset of itself must not search itself again inside its own search."""

    def test_subset_reentry_terminates(self):
        # [DERIVED: tp4 solves it at makespan 1; hspa used to recurse forever]
        def act(k, pre, add, delete, dur):
            return GroundAction(k, f"a{k}", frozenset(pre), frozenset(add),
                                frozenset(delete), Fraction(1), Fraction(dur))

        actions = [
            act(0, [3, 4], [2], [], 2), act(1, [0, 4, 5], [0, 4], [1, 3], 0),
            act(2, [0], [3], [], 0), act(3, [1, 2, 3], [2, 3], [], 0),
            act(4, [3], [2, 4], [], 1), act(5, [1], [0, 1], [], 2),
            act(6, [1, 4], [5], [2], 0), act(7, [1, 5], [3], [0, 5], 0),
            act(8, [5], [3], [1, 4], 2),
        ]
        p = Problem([Atom(i, f"p{i}") for i in range(6)], actions,
                    frozenset({0, 1, 3, 4, 5}), frozenset({2}), Mode.TEMPORAL, "reentry")
        for pipeline in ("tp4", "hspa"):
            res = plan(p, pipeline=pipeline)
            assert res.outcome == "solved" and res.cost == 1

    def test_random_zero_durations_match_oracle(self):
        rng = random.Random(21)
        durs = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(0), Fraction(0))
        configs = [dict(stop="fixed:3"), dict(stop="no-and"),
                   dict(stop="converged", base_m=1), dict(stop="no-and", base_m=1)]
        for _ in range(120):
            p = random_problem(rng, max_atoms=7, max_actions=10,
                               mode=Mode.TEMPORAL, durs=durs)
            opt = temporal_makespan(p)
            for kw in configs:
                res = plan(p, pipeline="hspa", **kw)
                if opt == INF:
                    assert res.outcome == "unsolvable"
                else:
                    assert res.outcome == "solved" and res.cost == opt


class TestSameTimeSteps:
    """Zero-duration steps at one time point are listed in the order the
    regression chained them, which is the order they execute in."""

    def test_chained_zero_duration_steps(self):
        # a8 needs x4 and deletes x3 and x4, a7 adds x3, and a6 needs x0
        # (from a8) and x3 and restores x4: they run a8, a7, a6, against
        # their index order.
        def act(k, name, pre, add, delete):
            return GroundAction(k, name, frozenset(pre), frozenset(add),
                                frozenset(delete), Fraction(1), Fraction(0))

        p = Problem([Atom(i, f"x{i}") for i in range(5)],
                    [act(0, "a6", [0, 3], [0, 4], [1, 3]), act(1, "a7", [], [3], []),
                     act(2, "a8", [4], [0, 1], [3, 4])],
                    frozenset({1, 2, 4}), frozenset({0, 4}), Mode.TEMPORAL, "chained")
        for pipeline in ("tp4", "hspa"):
            res = plan(p, pipeline=pipeline)
            assert res.outcome == "solved" and res.cost == 0
            assert [st.action.name for st in res.plan.sorted_steps()] == ["a8", "a7", "a6"]
            assert validate_plan(p, res.plan).ok

    def test_random_zero_duration_plans_validate(self):
        rng = random.Random(7)
        durs = (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
        solved = 0
        for _ in range(400):
            p = random_problem(rng, max_atoms=6, max_actions=9,
                               mode=Mode.TEMPORAL, durs=durs)
            for pipeline in ("tp4", "hspa"):
                res = plan(p, pipeline=pipeline)
                if res.outcome == "solved":
                    solved += 1
                    assert validate_plan(p, res.plan).ok, validate_plan(p, res.plan).report()
        assert solved > 0


class TestBoostingHonoursLimit:
    def test_zero_limit_expands_nothing(self):
        # [DERIVED: the h^2 root value 3 already exceeds the limit, as tp4 reports]
        p = fixtures.growing(2, 5)
        for pipeline in ("hspa", "tp4"):
            res, rec = recorded(p, pipeline=pipeline, stop="fixed:4",
                                upper_limit=Fraction(0))
            assert res.outcome == "limit" and res.next_bound == 3
            assert rec.expansions == 0

    def test_limit_at_or_above_optimum_changes_nothing(self):
        p = fixtures.satellite()
        free, rec_free = recorded(p, pipeline="hspa", stop="fixed:3")
        for limit in (Fraction(7), Fraction(15, 2), Fraction(100)):
            res, rec = recorded(p, pipeline="hspa", stop="fixed:3", upper_limit=limit)
            assert res.outcome == "solved" and res.cost == free.cost == 7
            assert rec.expansions == rec_free.expansions
            assert [(r.phase, r.bound) for r in rec.trace] == \
                [(r.phase, r.bound) for r in rec_free.trace]

    def test_pass_above_limit_reports_its_bound(self):
        # [DERIVED: from root h^1 3 the m=2 pass fails at bounds 3, 4 and 5;
        # its next bound 6 exceeds the limit and is a lower bound on 7]
        p = fixtures.satellite()
        res, rec = recorded(p, pipeline="hspa", base_m=1, stop="fixed:2",
                            upper_limit=Fraction(5))
        assert res.outcome == "limit" and res.next_bound == 6
        assert [r.bound for r in rec.trace] == [3, 3, 4, 5]
        assert phases(rec) == ["gbf", "idao:2"]


class TestDefaults:
    def test_stop_default_matches_cli(self):
        args = _build_parser().parse_args(["plan", "d.pddl", "p.pddl"])
        assert PlannerConfig().stop == args.stop
