import random
from fractions import Fraction

import pytest

from conftest import parallel_makespan, random_problem, seq_optimal
from conftest import MIXED_COSTS
from hmplan import fixtures
from hmplan.cli import _build_parser
from hmplan.model import INF, Mode, Problem
from hmplan.pipeline import PlannerConfig, run_pipeline
from hmplan.validate import validate_plan


def plan(problem, **kw):
    return run_pipeline(problem, PlannerConfig(**kw))


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
        res = plan(p, pipeline="hspa", base_m=3)
        assert res.outcome == "solved" and res.cost == 7
        assert res.search_stats is None  # no final search was needed
        assert [s.m for s in res.pass_stats] == [4]
        assert validate_plan(p, res.plan).ok

    def test_fixed_stop_limits_passes(self):
        p = fixtures.satellite()
        res = plan(p, pipeline="hspa", stop="fixed:3")
        assert res.cost == 7
        assert [s.m for s in res.pass_stats] == [3]
        assert res.search_stats is not None

    def test_converged_stop(self):
        p = fixtures.satellite()
        res = plan(p, pipeline="hspa", stop="converged")
        assert res.cost == 7
        ms = [s.m for s in res.pass_stats]
        assert ms == list(range(3, 3 + len(ms)))

    def test_passes_boost_heuristic(self):
        p = fixtures.satellite()
        base = plan(p, pipeline="tp4", base_m=1)
        boosted = plan(p, pipeline="hspa", base_m=1, stop="fixed:2")
        assert base.cost == boosted.cost == 7
        assert (boosted.search_stats.expansions
                < base.search_stats.expansions)

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
            res = plan(p, pipeline=pipeline)
            assert res.outcome == "unsolvable"
            assert res.search_stats is None

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
        res = plan(p, pipeline="hspa")
        assert res.table is not None and res.table.eval(p.goal) == 7
        assert res.gbf_stats is not None
        assert res.pass_stats and res.pass_stats[0].m == 3

    def test_temporal_mix_fractional(self):
        p = fixtures.temporal_mix()
        for pipeline in ("tp4", "hspa"):
            res = plan(p, pipeline=pipeline)
            assert res.cost == Fraction(5, 2)
            assert validate_plan(p, res.plan).ok


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
