import random
from fractions import Fraction

import pytest

from conftest import parallel_makespan, random_problem, seq_optimal
from conftest import MIXED_COSTS
from hmplan import fixtures
from hmplan.cli import _build_parser
from hmplan.metrics import AND, NORMAL, OR, Recorder
from hmplan.model import INF, Mode, Problem
from hmplan.pipeline import PlannerConfig, run_pipeline
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


class TestHspaStopping:
    def test_no_and_returns_plan_directly(self):
        # base_m=3 makes m=4 the first pass: AND-free on this fixture
        p = fixtures.satellite()
        res, rec = recorded(p, pipeline="hspa", base_m=3)
        assert res.outcome == "solved" and res.cost == 7
        # one pass, m=4, and no final search was needed
        assert phases(rec) == ["gbf", "idao:4"]
        assert validate_plan(p, res.plan).ok

    def test_fixed_stop_limits_passes(self):
        p = fixtures.satellite()
        res, rec = recorded(p, pipeline="hspa", stop="fixed:3")
        assert res.cost == 7
        assert phases(rec) == ["gbf", "idao:3", "ida"]

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

    @pytest.mark.parametrize("mode, kw, events, solved, ida", [
        (Mode.SEQUENTIAL, dict(stop="fixed:3"),
         {OR: 11, AND: 1, NORMAL: 7}, (3, 12), [7]),
        (Mode.SEQUENTIAL, dict(base_m=1, stop="fixed:2"),
         {OR: 88, AND: 16, NORMAL: 7}, (17, 104), [7]),
        (Mode.TEMPORAL, dict(stop="fixed:3"),
         {OR: 10, AND: 1, NORMAL: 6}, (3, 11), [6]),
    ], ids=["fixed3", "base1-fixed2", "temporal-fixed3"])
    def test_satellite(self, mode, kw, events, solved, ida):
        res, rec = recorded(fixtures.satellite(mode=mode), pipeline="hspa", **kw)
        assert res.outcome == "solved" and res.cost == ida[-1]
        assert {sp: expansions(rec, sp) for sp in (OR, AND, NORMAL)} == events
        assert rec.expansions == sum(events.values())
        assert (rec.solved_hits, rec.solved_misses) == solved
        assert [r.bound for r in rec.trace if r.phase == "ida"] == ida

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


class TestDefaults:
    def test_stop_default_matches_cli(self):
        args = _build_parser().parse_args(["plan", "d.pddl", "p.pddl"])
        assert PlannerConfig().stop == args.stop
