from fractions import Fraction

import pytest
from conftest import (
    MIXED_COSTS,
    applicable_seq,
    ids,
    mask,
    random_problem,
    regress_seq,
    regression_states,
)

from hmplan import fixtures
from hmplan.sequential import SeqEdge, SequentialSpace, successors_seq


@pytest.fixture(scope="module")
def sat1():
    return fixtures.satellite()


def by_name(problem, name):
    return next(a for a in problem.actions if a.name == name)


class TestRegression:
    def test_applicability_needs_an_added_atom(self, sat1):
        take = by_name(sat1, "take-image d4")
        assert applicable_seq(take, sat1.atom_set("img d4"))
        assert not applicable_seq(take, sat1.atom_set("img d5"))

    def test_applicability_blocked_by_delete(self, sat1):
        turn = by_name(sat1, "turn d1 d2")
        assert not applicable_seq(turn, sat1.atom_set("point d2", "point d1"))

    def test_regress_swaps_adds_for_preconditions(self, sat1):
        take = by_name(sat1, "take-image d4")
        s = sat1.atom_set("img d4", "img d5")
        assert regress_seq(s, take) == sat1.atom_set(
            "img d5", "point d4", "on", "cal"
        )

    def test_final_iff_subset_of_init(self, sat1):
        sp = SequentialSpace(sat1)
        assert sp.is_final(mask(sat1.atom_set("point d1")))
        assert sp.is_final(mask(()))
        assert not sp.is_final(mask(sat1.atom_set("on")))

    def test_on_has_single_establisher(self, sat1):
        # [DERIVED: power-on is the only action adding (on)]
        edges = successors_seq(sat1, mask(sat1.atom_set("on")))
        assert len(edges) == 1
        assert edges[0].actions[0].name == "power-on"
        assert edges[0].delta == Fraction(1)

    def test_goal_successor_count(self, sat1):
        # [DERIVED: take-image d4 and take-image d5 each add one goal atom]
        edges = successors_seq(sat1, mask(sat1.goal))
        assert [e.actions[0].name for e in edges] == [
            "take-image d4", "take-image d5"
        ]
        assert all(e.state.bit_count() == 4 for e in edges)

    def test_successors_in_action_index_order(self, sat1):
        edges = successors_seq(sat1, mask(sat1.atom_set("point d3", "img d4")))
        indices = [e.actions[0].index for e in edges]
        assert indices == sorted(indices)


class TestSpaceInterface:
    def test_root_and_final(self, sat1):
        sp = SequentialSpace(sat1)
        assert sp.root() == mask(sat1.goal)
        assert not sp.is_final(sp.root())
        assert sp.is_final(mask(sat1.atom_set("point d1")))

    def test_size_and_atoms(self, sat1):
        sp = SequentialSpace(sat1)
        s = mask(sat1.atom_set("on", "cal"))
        assert sp.atoms_of(s).bit_count() == 2
        assert sp.atoms_of(s) == s
        assert sp.from_atoms(s) == s

    def test_no_cut_rule(self, sat1):
        sp = SequentialSpace(sat1)
        edges, cuts = sp.successors(mask(sat1.goal))
        assert cuts == 0 and edges
        assert sp.forbidden(SeqEdge(mask(sat1.goal), 1, (sat1.actions[0],))) == 0


class TestAgainstFullScan:
    """`successors_seq` against the scan over every action that its adders
    shortcut replaced: the same edges in the same order.  The scan works
    on frozensets, the space on masks."""

    @staticmethod
    def same(problem, s):
        want = [SeqEdge(mask(regress_seq(s, a)), problem.cost_units[a], (a,))
                for a in problem.actions if applicable_seq(a, s)]
        assert successors_seq(problem, mask(s)) == want
        return len(want)

    @pytest.mark.parametrize("costs", [None, MIXED_COSTS], ids=["default", "mixed"])
    def test_random_problems(self, rng, costs):
        edges = states = 0
        for _ in range(150):
            p = random_problem(rng, costs=costs)
            ids = range(len(p.atoms))
            drawn = {frozenset(rng.sample(ids, rng.randint(0, len(ids)))) for _ in range(10)}
            for s in regression_states(p) | drawn:
                edges += self.same(p, s)
                states += 1
        assert edges > 0 and states > 0

    def test_satellite(self, sat1):
        for s in regression_states(sat1):
            self.same(sat1, s)
