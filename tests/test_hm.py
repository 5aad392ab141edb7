import random
from fractions import Fraction

import pytest

from conftest import achieve_cost, forward_dijkstra, gbf_sweep, random_problem
from conftest import MIXED_COSTS, MIXED_DURS, regression_states
from hmplan import fixtures
from hmplan.hm import _edges, _subsets_upto, compute_base_heuristic
from hmplan.htable import HeuristicTable
from hmplan.model import INF, Mode
from hmplan.model import Atom, GroundAction, Problem


def table_for(problem, m):
    t = HeuristicTable(problem.scale)
    compute_base_heuristic(problem, t, m)
    return t


def stored_sets(table):
    """The table's nonempty stored sets and their values, in units."""
    return {frozenset(ids): v for ids, v in table.items() if ids}


@pytest.fixture(scope="module")
def sat1():
    return fixtures.satellite()


class TestSequentialValues:
    def test_h1_satellite_atoms(self, sat1):
        # [DERIVED: shortest action chains per atom]
        t = table_for(sat1, 1)
        assert t.eval(sat1.atom_set("point d1")) == 0
        assert t.eval(sat1.atom_set("point d2")) == 1
        assert t.eval(sat1.atom_set("on")) == 1
        assert t.eval(sat1.atom_set("cal")) == 2
        assert t.eval(sat1.atom_set("img d4")) == 3
        assert t.eval(sat1.goal) == 3

    def test_h2_satellite_goal(self, sat1):
        # [DERIVED: brute-force oracle confirms optimal 7; h2 reaches it here]
        t = table_for(sat1, 2)
        assert t.eval(sat1.goal) == 7

    def test_h2_detects_pointing_mutex(self, sat1):
        # the satellite can never point in two directions at once
        t = table_for(sat1, 2)
        assert t.eval(sat1.atom_set("point d1", "point d2")) == INF

    def test_chain_values_count_steps(self):
        p = fixtures.chain(5)
        t = table_for(p, 1)
        for i in range(6):
            assert t.eval(p.atom_set(f"p{i}")) == i

    def test_unsolvable_goal_infinite(self):
        p = fixtures.unsolvable()
        t = table_for(p, 2)
        assert t.eval(p.goal) == INF
        assert t.eval(p.atom_set("x")) == 1

    def test_hm_rejects_nonpositive_m(self, sat1):
        with pytest.raises(ValueError):
            compute_base_heuristic(sat1, HeuristicTable(), 0)

    def test_rejects_a_table_of_another_scale(self):
        p = fixtures.temporal_mix()
        with pytest.raises(ValueError):
            compute_base_heuristic(p, HeuristicTable(), 1)


class TestTemporalValues:
    def test_parallel_cal_needs_two_layers(self):
        # [DERIVED: power-on or turn first, calibrate second]
        p = fixtures.satellite(mode=Mode.PARALLEL)
        t = table_for(p, 1)
        assert t.eval(p.atom_set("cal")) == 2

    def test_parallel_goal_h2(self):
        p = fixtures.satellite(mode=Mode.PARALLEL)
        t = table_for(p, 2)
        assert t.eval(p.goal) == 6

    def test_temporal_chain_sums_durations(self):
        # [DERIVED: forced chain of durations 2 and 3]
        p = fixtures.chain(2, Mode.TEMPORAL, durs=[2, 3])
        t = table_for(p, 1)
        assert t.eval(p.atom_set("p2")) == 5

    def test_dispatch_by_mode(self):
        p = fixtures.satellite(mode=Mode.PARALLEL)
        t = HeuristicTable()
        compute_base_heuristic(p, t, 1)
        assert t.eval(p.atom_set("cal")) == 2


class TestStrategiesAgree:
    """The label-setting engine equals the round-robin sweep in conftest."""

    def test_worklist_matches_sweep_on_fixtures(self, sat1):
        for m in (1, 2, 3):
            assert stored_sets(table_for(sat1, m)) == gbf_sweep(sat1, m)

    def test_worklist_matches_sweep_random(self):
        rng = random.Random(7)
        for k in range(30):
            # Every other problem draws its costs from MIXED_COSTS.
            costs = MIXED_COSTS if k % 2 else None
            p = random_problem(rng, max_atoms=7, max_actions=10, costs=costs)
            for m in (1, 2, 3):
                assert stored_sets(table_for(p, m)) == gbf_sweep(p, m)

    @pytest.mark.parametrize("mode", [Mode.TEMPORAL, Mode.PARALLEL])
    def test_worklist_matches_sweep_random_concurrent(self, mode):
        rng = random.Random(19)
        finite = 0
        for k in range(30):
            # Every third temporal problem draws its durations from
            # MIXED_DURS, whose zero durations make zero-delta edges.
            durs = MIXED_DURS if mode is Mode.TEMPORAL and k % 3 == 2 else None
            p = random_problem(rng, max_atoms=7, max_actions=10, mode=mode, durs=durs)
            for m in (1, 2, 3):
                values = gbf_sweep(p, m)
                assert stored_sets(table_for(p, m)) == values
                finite += sum(0 < v < INF for v in values.values())
        assert finite > 0


class TestLabelSetting:
    def test_edge_without_subsets_keeps_its_offset(self):
        # g by a (no preconditions, 3/2) and h by b (no preconditions, 1/2).
        # Regressing {g, h} through a and b together steps back 1/2 to a
        # state with only a in progress, whose start is 1 further back.  Its
        # components are empty, so that edge reads no set, and its value,
        # 1/2 + 1, comes from its delta and offset alone.
        atoms = [Atom(0, "g"), Atom(1, "h")]
        acts = [
            GroundAction(0, "a", frozenset(), frozenset({0}), frozenset(),
                         Fraction(1), Fraction(3, 2)),
            GroundAction(1, "b", frozenset(), frozenset({1}), frozenset(),
                         Fraction(1), Fraction(1, 2)),
        ]
        p = Problem(atoms, acts, frozenset(), frozenset({0, 1}), Mode.TEMPORAL)
        t = table_for(p, 2)
        # [DERIVED: a alone takes 3/2; a and b together end by 3/2, b first]
        assert p.to_cost(t.eval(p.atom_set("g"))) == Fraction(3, 2)
        assert p.to_cost(t.lookup_exact(p.goal)) == Fraction(3, 2)

    def test_each_edge_fires_at_most_once(self, sat1):
        stats = compute_base_heuristic(sat1, HeuristicTable(), 2)
        built = sum(len(_edges(sat1, s)) for s in _subsets_upto(range(len(sat1.atoms)), 2)
                    if not s <= sat1.init)
        assert stats.rounds == 72  # pinned: the engine's firings here
        assert stats.rounds <= built


class TestAdmissibility:
    def test_h1_h2_below_true_cost_random(self):
        rng = random.Random(11)
        for _ in range(12):
            p = random_problem(rng, max_atoms=7, max_actions=10)
            dist = forward_dijkstra(p)
            for m in (1, 2):
                t = table_for(p, m)
                for s in regression_states(p, cap=20_000):
                    assert p.to_cost(t.eval(s)) <= achieve_cost(dist, s)

    def test_h1_le_h2(self):
        rng = random.Random(13)
        for _ in range(10):
            p = random_problem(rng, max_atoms=7, max_actions=10)
            t1, t2 = table_for(p, 1), table_for(p, 2)
            for s in regression_states(p, cap=20_000):
                assert t1.eval(s) <= t2.eval(s)

    def test_stats_reported(self, sat1):
        t = HeuristicTable()
        stats = compute_base_heuristic(sat1, t, 2)
        n = len(sat1.atoms)
        assert stats.sets == n + n * (n - 1) // 2
        mutex_pairs = sum(1 for ids, v in t.items() if len(ids) == 2 and v == INF)
        assert mutex_pairs >= 10  # the pointing mutexes at least


class TestMixedDenominators:
    """Costs from {1/2, 1/3, 5/6, 1}: the fixpoint runs in sixths."""

    def test_scale_is_lcm_of_unlike_denominators(self):
        atoms = [Atom(0, "p"), Atom(1, "q")]
        acts = [
            GroundAction(0, "a", frozenset(), frozenset({0}), frozenset(), Fraction(1, 2)),
            GroundAction(1, "b", frozenset({0}), frozenset({1}), frozenset(), Fraction(1, 3)),
        ]
        p = Problem(atoms, acts, frozenset(), frozenset({1}))
        assert p.scale == 6
        t = table_for(p, 2)
        # [DERIVED: a then b, 1/2 + 1/3 = 5/6, or 5 sixths]
        assert t.eval(p.goal) == 5 and p.to_cost(t.eval(p.goal)) == Fraction(5, 6)
        assert t.eval(p.atom_set("p")) == 3

    def test_h1_h2_admissible_random(self):
        rng = random.Random(17)
        scales = set()
        for _ in range(12):
            p = random_problem(rng, max_atoms=7, max_actions=10, costs=MIXED_COSTS)
            scales.add(p.scale)
            dist = forward_dijkstra(p)
            for m in (1, 2):
                t = table_for(p, m)
                for s in regression_states(p, cap=20_000):
                    assert p.to_cost(t.eval(s)) <= achieve_cost(dist, s)
        assert scales == {6}
