import random
from fractions import Fraction

import pytest

from conftest import MIXED_DURS, random_problem, validate_temporal_oracle
from hmplan import fixtures
from hmplan.model import Atom, GroundAction, Mode, Plan, PlanStep, Problem
from hmplan.pipeline import PlannerConfig, run_pipeline
from hmplan.validate import validate_plan


@pytest.fixture(scope="module")
def sat1():
    return fixtures.satellite()


def by_name(p, name):
    return next(a for a in p.actions if a.name == name)


def seq_plan(p, names):
    steps = [PlanStep(Fraction(i), by_name(p, n)) for i, n in enumerate(names)]
    return Plan(steps, Fraction(len(names)))


GOOD = ["power-on", "turn d1 d2", "calibrate", "turn d2 d4",
        "take-image d4", "turn d4 d5", "take-image d5"]


class TestSequential:
    def test_hand_plan_accepted(self, sat1):
        res = validate_plan(sat1, seq_plan(sat1, GOOD))
        assert res.ok and res.metric == 7
        assert res.report() == "plan valid"

    def test_broken_precondition(self, sat1):
        bad = ["power-on", "calibrate"] + GOOD[3:]
        res = validate_plan(sat1, seq_plan(sat1, bad))
        assert not res.ok
        assert any("calibrate" in e and "precondition" in e for e in res.errors)

    def test_missing_goal(self, sat1):
        res = validate_plan(sat1, seq_plan(sat1, GOOD[:-2]))
        assert not res.ok
        assert any("goal not satisfied" in e for e in res.errors)

    def test_metric_mismatch(self, sat1):
        plan = seq_plan(sat1, GOOD)
        res = validate_plan(sat1, Plan(plan.steps, Fraction(6)))
        assert not res.ok
        assert any("metric" in e for e in res.errors)

    def test_empty_plan_empty_goal(self):
        p = fixtures.chain(2)
        q = Problem(p.atoms, p.actions, p.init, frozenset(), p.mode)
        assert validate_plan(q, Plan([], Fraction(0))).ok

    def test_report_lists_errors(self, sat1):
        res = validate_plan(sat1, seq_plan(sat1, GOOD[:-2]))
        assert res.report().startswith("plan invalid:")


def temp_problem():
    atoms = [Atom(i, n) for i, n in enumerate(["p", "q", "r", "g"])]

    def ga(i, name, pre, add, delete=(), dur=1):
        return GroundAction(i, name, frozenset(pre), frozenset(add),
                           frozenset(delete), Fraction(1), Fraction(dur))

    acts = [
        ga(0, "mill-a", [], [0], dur="3/2"),
        ga(1, "mill-b", [], [1], dur="5/2"),
        ga(2, "box", [0, 1], [3], dur=0),
        ga(3, "wreck", [], [2], delete=[0], dur=2),
    ]
    return Problem(atoms, acts, frozenset(), frozenset({3}), Mode.TEMPORAL), acts


class TestTemporal:
    def test_overlapping_schedule_accepted(self):
        p, (ma, mb, box, _) = temp_problem()
        plan = Plan([PlanStep(Fraction(1), ma), PlanStep(Fraction(0), mb),
                     PlanStep(Fraction(5, 2), box)], Fraction(5, 2))
        res = validate_plan(p, plan)
        assert res.ok and res.metric == Fraction(5, 2)

    def test_incompatible_overlap_rejected(self):
        p, (ma, mb, box, wreck) = temp_problem()
        # wreck deletes p while mill-a is producing it
        plan = Plan([PlanStep(Fraction(0), ma), PlanStep(Fraction(0), mb),
                     PlanStep(Fraction(1), wreck), PlanStep(Fraction(3), box)],
                    Fraction(3))
        res = validate_plan(p, plan)
        assert not res.ok
        assert any("incompatible overlap" in e for e in res.errors)

    def test_end_meets_start_allowed(self):
        p, (ma, mb, box, wreck) = temp_problem()
        # wreck runs before mill-a even starts: sequencing, not overlap
        plan = Plan([PlanStep(Fraction(0), wreck), PlanStep(Fraction(2), ma),
                     PlanStep(Fraction(1), mb), PlanStep(Fraction(7, 2), box)],
                    Fraction(7, 2))
        assert validate_plan(p, plan).ok

    def test_negative_start_rejected(self):
        p, (ma, mb, box, _) = temp_problem()
        plan = Plan([PlanStep(Fraction(-1), mb), PlanStep(Fraction(0), ma),
                     PlanStep(Fraction(3, 2), box)], Fraction(3, 2))
        res = validate_plan(p, plan)
        assert not res.ok
        assert any("negative start" in e for e in res.errors)

    def test_zero_duration_chain_fires_in_order(self):
        atoms = [Atom(0, "p"), Atom(1, "q"), Atom(2, "r")]
        a = GroundAction(0, "a", frozenset(), frozenset({0}), frozenset(),
                         Fraction(1), Fraction(0))
        b = GroundAction(1, "b", frozenset({0}), frozenset({1}), frozenset(),
                         Fraction(1), Fraction(0))
        c = GroundAction(2, "c", frozenset({1}), frozenset({2}), frozenset(),
                         Fraction(1), Fraction(0))
        p = Problem(atoms, [a, b, c], frozenset(), frozenset({2}), Mode.TEMPORAL)
        # all three at t=0; the fixpoint must order c after b after a
        plan = Plan([PlanStep(Fraction(0), c), PlanStep(Fraction(0), b),
                     PlanStep(Fraction(0), a)], Fraction(0))
        assert validate_plan(p, plan).ok

    def test_zero_duration_steps_deleting_each_others_precondition(self):
        # Each step deletes the other's precondition, so whichever fires
        # first disables the other: no order executes both.
        atoms = [Atom(0, "p"), Atom(1, "s"), Atom(2, "q"), Atom(3, "r")]
        x = GroundAction(0, "x", frozenset({1}), frozenset({2}), frozenset({0}),
                         Fraction(1), Fraction(0))
        z = GroundAction(1, "z", frozenset({0}), frozenset({3}), frozenset({1}),
                         Fraction(1), Fraction(0))
        p = Problem(atoms, [x, z], frozenset({0, 1}), frozenset({2, 3}), Mode.TEMPORAL)
        for first, second in ((x, z), (z, x)):
            plan = Plan([PlanStep(Fraction(0), first), PlanStep(Fraction(0), second)],
                        Fraction(0))
            res = validate_plan(p, plan)
            assert not res.ok
            assert any(f"({second.name}) at 0: precondition" in e for e in res.errors)

    def test_zero_duration_without_support_rejected(self):
        atoms = [Atom(0, "p"), Atom(1, "q")]
        b = GroundAction(0, "b", frozenset({0}), frozenset({1}), frozenset(),
                         Fraction(1), Fraction(0))
        p = Problem(atoms, [b], frozenset(), frozenset({1}), Mode.TEMPORAL)
        res = validate_plan(p, Plan([PlanStep(Fraction(0), b)], Fraction(0)))
        assert not res.ok
        assert any("precondition" in e for e in res.errors)

    def test_precondition_must_hold_at_start_not_later(self):
        p, (ma, mb, box, _) = temp_problem()
        # box starts at 2 but mill-b only finishes at 5/2
        plan = Plan([PlanStep(Fraction(1, 2), ma), PlanStep(Fraction(0), mb),
                     PlanStep(Fraction(2), box)], Fraction(5, 2))
        res = validate_plan(p, plan)
        assert not res.ok
        assert any("(box) at 2" in e for e in res.errors)


def solved_plans():
    """Plans tp4 finds for the temporal fixtures and for the random problems
    of the pipeline tests: temporal ones with unlike-denominator and with
    zero durations, and parallel ones."""
    four = ("d2", "d3", "d4", "d5")
    problems = [fixtures.temporal_mix(), fixtures.satellite(four, Mode.TEMPORAL),
                fixtures.satellite(four, Mode.PARALLEL)]
    zero = (Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    for seed, n, max_actions, mode, durs in [
            (59, 15, 8, Mode.TEMPORAL, MIXED_DURS), (61, 15, 8, Mode.TEMPORAL, MIXED_DURS),
            (7, 400, 9, Mode.TEMPORAL, zero), (43, 10, 8, Mode.PARALLEL, None)]:
        rng = random.Random(seed)
        problems += [random_problem(rng, max_atoms=6, max_actions=max_actions,
                                    mode=mode, durs=durs) for _ in range(n)]
    for p in problems:
        res = run_pipeline(p, PlannerConfig(pipeline="tp4"))
        if res.outcome == "solved" and res.plan.steps:
            yield p, res.plan


def mutants(plan):
    """The plan, and copies with one step dropped or moved, or all moved."""
    yield plan
    steps = plan.steps
    for k, st in enumerate(steps):
        yield Plan(steps[:k] + steps[k + 1:], plan.metric)
        for shift in (Fraction(-1, 2), Fraction(1, 3), Fraction(1), -st.start):
            moved = PlanStep(st.start + shift, st.action)
            yield Plan(steps[:k] + [moved] + steps[k + 1:], plan.metric)
    for shift in (Fraction(-1), Fraction(1, 2)):
        yield Plan([PlanStep(st.start + shift, st.action) for st in steps],
                   plan.metric + shift)


class TestAgainstOracle:
    def test_verdicts_and_messages_match(self):
        checked = invalid = overlaps = 0
        for p, plan in solved_plans():
            for q in mutants(plan):
                got, want = validate_plan(p, q), validate_temporal_oracle(p, q)
                assert (got.ok, got.metric, got.errors) == (want.ok, want.metric, want.errors)
                checked += 1
                invalid += not want.ok
                overlaps += any("overlap" in e for e in want.errors)
        # Both verdicts occur, and overlap errors among the rejections.
        assert checked > 1000 and 0 < overlaps < invalid < checked
