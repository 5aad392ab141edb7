import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import achieve_cost, forward_dijkstra, gbf_sweep, random_problem
from conftest import MIXED_COSTS, MIXED_DURS, regression_states
from hmplan import fixtures
from hmplan.hm import _small_regressions, _subsets_upto, compute_base_heuristic
from hmplan.htable import HeuristicTable
from hmplan.model import INF, Mode
from hmplan.model import Atom, GroundAction, Problem
from hmplan.mutex import Mutex, no_mutex
from hmplan.sequential import successors_seq
from hmplan.temporal import TempState, relax_state, successors_temporal


def table_for(problem, m):
    t = HeuristicTable(problem.scale)
    compute_base_heuristic(problem, t, m)
    return t


def stored_sets(problem, m):
    """The values, in units, of the nonempty sets of size <= m in the
    problem's complete h^m table."""
    table = table_for(problem, m)
    return {s: table.eval(s) for s in _subsets_upto(range(len(problem.atoms)), m)}


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


def unchecked_action(index, name, pre, add, delete, cost):
    """A GroundAction built without its checks, which reject an add that
    meets the delete and a cost of 0.  The h^2 equations hold there too, so
    the engines must still agree with the sweep."""
    action = object.__new__(GroundAction)
    fields = dict(index=index, name=name, pre=frozenset(pre), add=frozenset(add),
                  delete=frozenset(delete), cost=Fraction(cost), dur=Fraction(1))
    for field, v in fields.items():
        object.__setattr__(action, field, v)
    return action


def hand_built(*specs, init="r"):
    """A sequential problem over p, q, r, s (ids 0 to 3) whose actions are
    (pre, add, delete, cost) specs of atom names."""
    ids = {"p": 0, "q": 1, "r": 2, "s": 3}
    atoms = [Atom(i, name) for name, i in ids.items()]
    actions = [unchecked_action(k, f"a{k}", *(map(ids.__getitem__, x) for x in sets), cost)
               for k, (*sets, cost) in enumerate(specs)]
    return Problem(atoms, actions, frozenset(map(ids.__getitem__, init)), frozenset({0, 1}))


# Per corner of sequential h^2: a problem, a set and its h^2 value.  Q(a) is
# the mask of the atoms q whose pair with every precondition of a settled.
EDGE_CASES = {
    # a0 adds and deletes q, so it regresses neither {q} nor {p, q}.
    # [DERIVED: {p} by a0 costs 1, then {q} and {p, q} by a1 cost 2]
    "add meets delete": (hand_built(("r", "pq", "q", 1), ("p", "q", "", 1)), "pq", 2),
    # a0 needs nothing and deletes r; {p, r} needs a2 after a0.
    # [DERIVED: {p, r} costs 2 (a0 then a2), so {q} by a1 costs 3]
    "empty precondition": (hand_built(("", "p", "r", 1), ("pr", "q", "", 1),
                                      ("", "r", "", 1)), "q", 3),
    # a0 and a2 cost 0 and a2 closes a cycle p -> q -> p: they queue into
    # the level they are looked at in.
    # [DERIVED: p is free, q costs a1's 1, and so does {p, q}]
    "zero-cost action": (hand_built(("r", "p", "", 0), ("p", "q", "", 1),
                                    ("q", "p", "", 0)), "pq", 1),
    # {p, q} through a0 regresses to pre(a0) = {q}: q is in Q(a0) once a0
    # is active.
    # [DERIVED: q costs 2, p and {p, q} cost 3]
    "pair partly in the precondition": (hand_built(("q", "p", "", 1), ("r", "q", "", 2)),
                                        "pq", 3),
    # a0 adds both atoms of {p, q}; the way through a1 and a2 costs 4.
    # [DERIVED: a0's 3 is the least]
    "pair wholly added": (hand_built(("r", "pq", "", 3), ("r", "p", "", 1),
                                     ("p", "q", "", 3)), "pq", 3),
    # {p, q} through a3 regresses to {q, r, s}: q joins Q(a3) cheaply, long
    # before the dear pair {r, s} of pre(a3) makes a3 active; a4 makes p
    # cheap but deletes q.
    # [DERIVED: r and s together only by a2's 5, then a3's 1]
    "dear precondition pair": (hand_built(("", "r", "s", 1), ("", "s", "r", 1),
                                          ("", "rs", "", 5), ("rs", "p", "", 1),
                                          ("", "p", "q", 1), init="q"), "pq", 6),
    # q joins Q(a1), the row of s, at 1, when a0 adds q and s; a1 costs 3,
    # so it queues {p, q} as it turns active.
    # [DERIVED: q and s by a0 at 1, then p by a1 at 3 more]
    "watched pair before the label": (hand_built(("r", "qs", "", 1), ("s", "p", "", 3)),
                                      "pq", 4),
    # a1 is active at 1, and q joins Q(a1), the row of s, only at 6,
    # through a2, which deletes p: a1 queues {p, q} then.
    # [DERIVED: s at 1, q with s at 6 by a2, then p by a1 at 1 more]
    "watched pair after the label": (hand_built(("r", "s", "", 1), ("s", "p", "", 1),
                                                ("s", "q", "p", 5)), "pq", 7),
    # a0 needs nothing, so Q(a0) is the settled atoms; q joins it at 4, by
    # a1, which deletes p, long after a0 turned active at 0.
    # [DERIVED: q by a1 at 4, then p by a0 at 1 more]
    "empty precondition, singleton after the label": (
        hand_built(("", "p", "", 1), ("r", "q", "p", 4)), "pq", 5),
}


class TestStrategiesAgree:
    """The engines of `compute_base_heuristic` equal the round-robin sweep
    in conftest."""

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_worklist_matches_sweep_on_edge_cases(self, case):
        p, names, h2 = EDGE_CASES[case]
        assert stored_sets(p, 2)[p.atom_set(*names)] == h2
        for m in (1, 2, 3):
            assert stored_sets(p, m) == gbf_sweep(p, m)

    def test_worklist_matches_sweep_on_fixtures(self, sat1):
        for m in (1, 2, 3):
            assert stored_sets(sat1, m) == gbf_sweep(sat1, m)

    def test_worklist_matches_sweep_random(self):
        rng = random.Random(7)
        for k in range(30):
            # Every other problem draws its costs from MIXED_COSTS.
            costs = MIXED_COSTS if k % 2 else None
            p = random_problem(rng, max_atoms=7, max_actions=10, costs=costs)
            for m in (1, 2, 3):
                assert stored_sets(p, m) == gbf_sweep(p, m)

    def test_worklist_matches_sweep_random_larger(self):
        rng = random.Random(23)
        for k in range(30):
            costs = MIXED_COSTS if k % 2 else None
            p = random_problem(rng, max_atoms=10, max_actions=15, costs=costs)
            for m in (1, 2, 3):
                assert stored_sets(p, m) == gbf_sweep(p, m)

    def test_worklist_matches_sweep_random_m4(self):
        # The per-set edges at m = 4, with actions that may add three atoms
        # of a set at once.
        rng = random.Random(29)
        wide = 0
        for k in range(20):
            costs = MIXED_COSTS if k % 2 else None
            p = random_problem(rng, max_atoms=6, max_actions=8, costs=costs, max_add=3)
            wide += any(len(a.add) == 3 for a in p.actions)
            assert stored_sets(p, 4) == gbf_sweep(p, 4)
        assert wide > 0

    def test_worklist_matches_sweep_random_corners(self):
        # Draws re-rooted at an empty init, where only the actions that need
        # nothing start anything, and draws with unchecked actions of zero
        # cost or whose add meets their delete.
        rng = random.Random(31)
        zero = 0
        for k in range(60):
            p = random_problem(rng, max_atoms=7, max_actions=10,
                               costs=MIXED_COSTS if k % 2 else None)
            actions, init = list(p.actions), p.init
            if k % 3 == 0:
                init = frozenset()
            else:
                ids = range(len(p.atoms))
                for j in range(rng.randint(1, 3)):
                    pre, add = rng.sample(ids, rng.randint(0, 2)), rng.sample(ids, 2)
                    delete = [add[0]] if rng.random() < 0.5 else rng.sample(ids, 1)
                    cost = rng.choice([0, 0, Fraction(1, 2), 1])
                    actions.append(unchecked_action(len(actions), f"u{j}", pre, add, delete, cost))
                    zero += actions[-1].cost == 0
            p = Problem(list(p.atoms), actions, init, p.goal)
            for m in (1, 2, 3):
                assert stored_sets(p, m) == gbf_sweep(p, m)
        assert zero > 0

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
                assert stored_sets(p, m) == values
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
        assert p.to_cost(t.eval(p.goal)) == Fraction(3, 2)

    def test_each_edge_fires_at_most_once(self, sat1):
        # Sequential h^2 looks at an action at most once per level, and a
        # look queues at most one mask per atom the action adds.
        stats = compute_base_heuristic(sat1, HeuristicTable(), 2)
        # [DERIVED: levels 0 to 7, each taken once (no zero-cost action);
        # the rows that grow at each level bring 5, 24, 19, 8, 18, 12, 23
        # and 0 of the 24 actions to look at, 109 looks, of which 5, 21,
        # 17, 5, 18, 9 and 23 find new atoms in Q: 98 masks, one atom added
        # by each action.  Level 0 looks at the four turns from d1 and at
        # power-on, which needs nothing; level 1, where the other four
        # directions and on settle, at all 24.]
        assert (stats.rounds, stats.edges) == (109, 98)

    def test_group_watching_a_mutex_is_never_built(self):
        # a0 deletes q and a1 deletes s, so {q, s} is INF: q never joins
        # Q(a2), the row of s, and a2 never queues {p, q}.
        # [DERIVED: level 0 settles r and looks at a0, which queues {s} and
        # {r, s} at 1; level 1 looks at a0 (r's row grew), which finds
        # nothing new, and at a1 and a2 (s's row grew), which queue {q},
        # {q, r} and {p}, {p, r}, {p, s} at 2; level 2 looks at a0, which
        # queues {p, s} at 3, at a1, which queues {p, q} at 3, and at a2,
        # whose new p it adds itself.  7 looks, 5 masks.  A mask of a2 for
        # q would be a 6th.]
        p = hand_built(("r", "s", "q", 1), ("s", "q", "s", 1), ("s", "p", "", 1))
        t = HeuristicTable()
        stats = compute_base_heuristic(p, t, 2)
        assert t.eval(p.atom_set("q", "s")) == INF
        assert (stats.rounds, stats.edges) == (7, 5)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_per_set_edges_outside_sequential_h2(self, m):
        # Only sequential h^2 runs level by level.  At every other (mode, m)
        # the engine builds one edge per regression of each set not within
        # init, also where `_small_regressions` enumerates them.
        rng = random.Random(7)
        for mode in [Mode.PARALLEL, Mode.TEMPORAL] if m == 2 else list(Mode):
            for k in range(20):
                p = random_problem(rng, max_atoms=7, max_actions=10, mode=mode,
                                   durs=MIXED_DURS if mode is Mode.TEMPORAL and k % 2 else None)
                regressions = sum(len(successors_seq(p, s) if mode is Mode.SEQUENTIAL else
                                      successors_temporal(p, TempState(s))[0])
                                  for s in _subsets_upto(range(len(p.atoms)), m)
                                  if not s <= p.init)
                assert compute_base_heuristic(p, HeuristicTable(p.scale), m).edges == regressions

    def test_unreached_action_builds_no_target_edges(self, sat1):
        # An action needing an atom nothing adds is never looked at: no row
        # of its precondition ever grows.
        atoms = list(sat1.atoms) + [Atom(len(sat1.atoms), "never")]
        dead = GroundAction(len(sat1.actions), "dead", frozenset({atoms[-1].id}),
                            sat1.atom_set("cal"), frozenset())
        without = Problem(atoms, sat1.actions, sat1.init, sat1.goal)
        with_dead = Problem(atoms, list(sat1.actions) + [dead], sat1.init, sat1.goal)
        base = compute_base_heuristic(without, HeuristicTable(), 2)
        more = compute_base_heuristic(with_dead, HeuristicTable(), 2)
        # [DERIVED: the row of "never" stays empty, so the dead action adds
        # no look and no mask]
        assert (more.rounds, more.edges) == (base.rounds, base.edges)


def temporal_pq(*specs):
    """A temporal problem over p, q, r, s (ids 0 to 3) whose actions are
    (pre, add, delete, duration) specs of atom names."""
    ids = {"p": 0, "q": 1, "r": 2, "s": 3}
    atoms = [Atom(i, name) for name, i in ids.items()]
    actions = [GroundAction(k, f"a{k}", *(frozenset(map(ids.__getitem__, x)) for x in sets),
                            Fraction(1), Fraction(dur))
               for k, (*sets, dur) in enumerate(specs)]
    return Problem(atoms, actions, frozenset({2}), frozenset({0, 1}), Mode.TEMPORAL)


def multiset(regressions):
    """Regressions as a multiset of (delta, sorted (atom ids, offset) components)."""
    return Counter((d, tuple(sorted((tuple(sorted(atoms)), offset) for atoms, offset in cs)))
                   for d, cs in regressions)


def oracle_regressions(problem, s):
    """The relaxed view of every temporal regression of s."""
    return [(e.delta, relax_state(e.state))
            for e in successors_temporal(problem, TempState(s))[0]]


class TestSmallRegressions:
    """`_small_regressions` gives every set of one or two atoms the relaxed
    temporal regressions that `successors_temporal` and `relax_state` give."""

    @staticmethod
    def check_every_small_set(problem):
        for s in _subsets_upto(range(len(problem.atoms)), 2):
            assert multiset(_small_regressions(problem, s)) == \
                multiset(oracle_regressions(problem, s)), sorted(s)

    @pytest.mark.parametrize("mode", [Mode.PARALLEL, Mode.TEMPORAL])
    def test_satellite(self, mode):
        self.check_every_small_set(fixtures.satellite(mode=mode))

    def test_temporal_mix(self):
        self.check_every_small_set(fixtures.temporal_mix())

    @pytest.mark.parametrize("mode", [Mode.PARALLEL, Mode.TEMPORAL])
    def test_random_draws(self, rng, mode):
        for _ in range(60):
            self.check_every_small_set(random_problem(
                rng, max_atoms=7, max_actions=10, mode=mode,
                durs=MIXED_DURS if mode is Mode.TEMPORAL else None))

    def test_hand_built_pair(self):
        # a0 and a1 add both p and q; a2 adds p and deletes q in no time;
        # a3 adds q.  Durations in halves: a0 4, a1 2, a2 0, a3 3.
        p = temporal_pq(("r", "pq", "", 2), ("s", "pq", "", 1), ("r", "p", "q", 0),
                        ("", "q", "", Fraction(3, 2)))
        self.check_every_small_set(p)
        # [DERIVED: p no-op'd, q by a0, a1 or a3; p by a0 with q no-op'd, by
        # a0 too, by a1 (a1 ends 2 sooner, a0 needs r 2 further back) or by a3
        # (ends 1 sooner); p by a1 with q no-op'd, by a1 too or by a3 (a3
        # needs nothing 1 further back); {a0, a1} once; a2 deletes q, so
        # neither q's no-op nor any adder of q goes with it]
        assert multiset(_small_regressions(p, p.goal)) == multiset([
            (4, [({0, 2}, 0)]), (2, [({0, 3}, 0)]), (3, [({0}, 0)]),
            (4, [({1, 2}, 0)]), (4, [({2}, 0)]), (2, [({2}, 2), ({2, 3}, 0)]),
            (3, [({2}, 1), ({2}, 0)]),
            (2, [({1, 3}, 0)]), (2, [({3}, 0)]), (2, [(set(), 1), ({3}, 0)]),
        ])
        # [DERIVED: {p} through a0, a1 and a2, which takes no time]
        assert multiset(_small_regressions(p, frozenset({0}))) == multiset(
            [(4, [({2}, 0)]), (2, [({3}, 0)]), (0, [({2}, 0)])])


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
        mutex_pairs = sum(1 for s in _subsets_upto(range(n), 2)
                          if len(s) == 2 and t.eval(s) == INF)
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


class TestMutex:
    """The GBF's `Mutex` against the table it writes: p is mutex with b when
    {p, b} evaluates to INF, with every atom when {p} does, and an action's
    mask is the union over its preconditions, -1 when they hold a mutex."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_masks_match_the_table(self, rng, mode, m):
        mutexes = 0
        for _ in range(25):
            p = random_problem(rng, max_atoms=7, max_actions=10, mode=mode,
                               durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
            t = HeuristicTable(p.scale)
            mutex = compute_base_heuristic(p, t, m).mutex
            ids = range(len(p.atoms))
            for a in ids:
                if t.eval(frozenset({a})) == INF:
                    assert mutex.atoms[a] == -1
                else:
                    assert mutex.atoms[a] == sum(1 << b for b in ids
                                                 if b != a and t.eval(frozenset({a, b})) == INF)
                mutexes += mutex.atoms[a] != 0
            for act in p.actions:
                dead = any(t.eval(frozenset(c)) == INF
                           for k in (1, 2) for c in combinations(sorted(act.pre), k))
                union = 0
                for a in act.pre:
                    union |= mutex.atoms[a]
                assert mutex.pre[act.index] == (-1 if dead else union)
                adds = sum(1 << a for a in act.add)
                assert mutex.blocking[act.index] == (
                    -1 if dead else union & ~adds | p.delete_masks[act.index])
        assert mutexes > 0

    @pytest.mark.parametrize("mode", list(Mode))
    def test_raising_stores_leave_the_masks(self, rng, mode):
        # The relation is the table at GBF time: stores made after it,
        # before any mask is first read, change no mask.
        for _ in range(25):
            p = random_problem(rng, max_atoms=7, max_actions=10, mode=mode,
                               durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
            before = compute_base_heuristic(p, HeuristicTable(p.scale), 2).mutex
            t = HeuristicTable(p.scale)
            mutex = compute_base_heuristic(p, t, 2).mutex
            ids = range(len(p.atoms))
            for s in [*combinations(ids, 1), *combinations(ids, 2)]:
                if rng.random() < 0.3:
                    t.store(frozenset(s), rng.choice([INF, t.eval(frozenset(s)) + 1]))
            assert [mutex.atoms[a] for a in ids] == [before.atoms[a] for a in ids]
            for i in range(len(p.actions)):
                assert mutex.pre[i] == before.pre[i] and mutex.blocking[i] == before.blocking[i]

    def test_without_settled_atoms_nothing_is_a_mutex(self, sat1):
        mutex = Mutex(sat1)
        assert mutex.atoms == (0,) * len(sat1.atoms) and mutex.pre == (0,) * len(sat1.actions)
        assert mutex.blocking == sat1.delete_masks
        # One empty relation per problem, shared by whatever prunes nothing.
        assert no_mutex(sat1) is no_mutex(sat1)
        assert no_mutex(sat1).blocking == sat1.delete_masks
