from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hmplan.model import (
    INF,
    ZERO,
    Atom,
    GroundAction,
    Mode,
    Plan,
    PlanStep,
    Problem,
    ceil_cost,
    fmt_cost,
    round_durations_up,
)


def act(index=0, name="a", pre=(), add=(0,), delete=(), cost=1, dur=1):
    return GroundAction(index, name, frozenset(pre), frozenset(add),
                       frozenset(delete), Fraction(cost), Fraction(dur))


class TestCostArithmetic:
    def test_ceil(self):
        # [DERIVED: by hand]
        assert ceil_cost(Fraction(301, 250)) == 2
        assert ceil_cost(Fraction("82.99")) == 83
        assert ceil_cost(Fraction(3)) == 3
        assert ceil_cost(INF) == INF

    def test_fmt(self):
        assert fmt_cost(Fraction(7)) == "7"
        assert fmt_cost(Fraction(5, 2)) == "5/2"
        assert fmt_cost(INF) == "inf"

    def test_inf_absorbs(self):
        # [TRIVIAL]
        assert INF + Fraction(3) == INF
        assert Fraction(10**9) < INF


class TestGroundAction:
    def test_persistent_derived(self):
        a = act(pre=(1, 2), delete=(2,))
        assert a.persistent == frozenset({1})

    def test_add_delete_overlap_rejected(self):
        with pytest.raises(ValueError):
            act(add=(0,), delete=(0,))

    def test_cost_must_be_positive_rational(self):
        with pytest.raises(ValueError):
            act(cost=0)
        with pytest.raises(ValueError):
            GroundAction(0, "a", frozenset(), frozenset({0}), frozenset(),
                         1.0, Fraction(1))  # float cost

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            act(dur=-1)

    def test_identity_hashing(self):
        a, b = act(), act()
        assert a != b and len({a, b}) == 2


class TestProblem:
    def test_contiguous_atom_ids_required(self):
        with pytest.raises(ValueError):
            Problem([Atom(0, "p"), Atom(2, "q")], [], frozenset(), frozenset())

    def test_action_indices_are_positions(self):
        # the temporal conflict masks give action a the bit 1 << a.index
        p, q = act(index=0), act(index=1)
        Problem([Atom(0, "p")], [p, q], frozenset(), frozenset())
        for actions in ([q], [q, p], [p, p]):
            with pytest.raises(ValueError):
                Problem([Atom(0, "p")], actions, frozenset(), frozenset())

    def test_undeclared_atoms_rejected(self):
        with pytest.raises(ValueError):
            Problem([Atom(0, "p")], [], frozenset({1}), frozenset())
        with pytest.raises(ValueError):
            Problem([Atom(0, "p")], [act(add=(3,))], frozenset(), frozenset())

    def test_parallel_mode_requires_unit_durations(self):
        with pytest.raises(ValueError):
            Problem([Atom(0, "p")], [act(dur=2)], frozenset(), frozenset(),
                    Mode.PARALLEL)

    def test_adders_index(self):
        a0 = act(0, "a0", add=(0,))
        a1 = act(1, "a1", add=(0, 1))
        p = Problem([Atom(0, "p"), Atom(1, "q")], [a0, a1],
                    frozenset(), frozenset())
        assert p.adders[0] == (a0, a1)
        assert p.adders[1] == (a1,)

    def test_name_lookup(self):
        p = Problem([Atom(0, "p"), Atom(1, "q")], [], frozenset(), frozenset())
        assert p.atom_id("q") == 1
        assert p.atom_set("p", "q") == frozenset({0, 1})
        assert p.set_names(frozenset({0})) == frozenset({"p"})


class TestPlanFormat:
    def test_sequential_lines(self):
        steps = [PlanStep(Fraction(1), act(1, "b")), PlanStep(Fraction(0), act(0, "a"))]
        out = Plan(steps, Fraction(2)).format(Mode.SEQUENTIAL)
        assert out == "0: (a)\n1: (b)"

    def test_temporal_lines(self):
        steps = [PlanStep(Fraction(5, 2), act(0, "box", dur=0)),
                 PlanStep(Fraction(0), act(1, "mill", dur="5/2"))]
        out = Plan(steps, Fraction(5, 2)).format(Mode.TEMPORAL)
        assert out == "0: (mill) [5/2]\n5/2: (box) [0]"


class TestRoundDurations:
    def test_paper_values(self):
        # [DERIVED: 1.204 -> 2, 82.99 -> 83]
        p = Problem([Atom(0, "p")], [act(dur="1.204"), act(1, "b", dur="82.99")],
                    frozenset(), frozenset(), Mode.TEMPORAL)
        q = round_durations_up(p)
        assert [a.dur for a in q.actions] == [2, 83]

    def test_zero_stays_zero(self):
        p = Problem([Atom(0, "p")], [act(dur=0)], frozenset(), frozenset(),
                    Mode.TEMPORAL)
        assert round_durations_up(p).actions[0].dur == 0

    @given(st.fractions(min_value=0, max_value=1000))
    def test_never_decreases_and_idempotent(self, d):
        p = Problem([Atom(0, "p")], [act(dur=d)], frozenset(), frozenset(),
                    Mode.TEMPORAL)
        q = round_durations_up(p)
        assert q.actions[0].dur >= d
        assert q.actions[0].dur.denominator == 1
        r = round_durations_up(q)
        assert r.actions[0].dur == q.actions[0].dur
