import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import optimum, parallel_makespan, random_problem, seq_optimal, temporal_makespan
from conftest import MIXED_COSTS, MIXED_DURS, CappedRecorder, mixed_temporal_draws
from conftest import ids, mask
from hmplan import fixtures, hm, temporal
from hmplan.cli import _build_parser
from hmplan.hm import compute_base_heuristic
from hmplan.htable import HeuristicTable
from hmplan.metrics import AND, NORMAL, OR, Recorder, collect_metrics
from hmplan.model import INF, Atom, GroundAction, Mode, Problem
from hmplan.pipeline import PlannerConfig, _make_space, run_pipeline
from hmplan.sequential import SequentialSpace, successors_seq
from hmplan.temporal import TemporalSpace, relaxed_atoms, successors_temporal
from hmplan.validate import validate_plan


def plan(problem, **kw):
    return run_pipeline(problem, PlannerConfig(**kw))


def recorded(problem, **kw):
    """The run's result and the Recorder that counted its work."""
    rec = Recorder()
    return run_pipeline(problem, PlannerConfig(**kw), rec), rec


def summary(res, rec):
    """What a run found and the work the Recorder counted."""
    return (res.outcome, res.cost, res.next_bound, res.plan, rec.expansions,
            rec.solved_hits, rec.solved_misses,
            [(r.phase, r.bound, r.expansions) for r in rec.trace])


def bare_space(problem, right_shift, mutex):
    """The pipeline's space, built without the base table's mutexes."""
    return _make_space(problem, right_shift, None)


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


CONFIGS = [dict(pipeline=pipeline, stop=stop, use_tt=use_tt, right_shift=right_shift)
           for pipeline in ("tp4", "hspa") for stop in ("fixed:3", "no-and", "converged")
           for use_tt in (True, False) for right_shift in (True, False)]
# One slot per table, so stores collide, wherever a run has a table: the
# transposition table under use_tt, IDAO*'s solved table under hspa.
CONFIGS += [dict(c, tt_size=1, solved_size=1) for c in CONFIGS
            if c["use_tt"] or c["pipeline"] == "hspa"]
# tp4 and hspa fixed:3 with their default tables, and with one slot each.
UNPRUNED_TOO = [c for c in CONFIGS
                if c["stop"] == "fixed:3" and c["use_tt"] and c["right_shift"]]


class TestEveryConfiguration:
    """Every configuration against the oracles.  Those in UNPRUNED_TOO also
    run with spaces built without the base table's mutexes, which must find
    the same and count the same work: a child that holds a mutex is worth
    INF, so generating it changes no search."""

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(st.integers(0, 2 ** 32), st.sampled_from(Mode), st.sampled_from([1, 2]),
           st.sampled_from([INF, Fraction(0), Fraction(1, 2), Fraction(2)]))
    def test_random_problems_match_oracles(self, seed, mode, base_m, limit):
        p = random_problem(random.Random(seed), max_atoms=6, max_actions=7, mode=mode,
                           durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
        assume(not p.goal <= p.init)
        opt = optimum(p)
        for kw in CONFIGS:
            res, rec = recorded(p, base_m=base_m, upper_limit=limit, **kw)
            if kw in UNPRUNED_TOO:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr("hmplan.pipeline._make_space", bare_space)
                    unpruned = recorded(p, base_m=base_m, upper_limit=limit, **kw)
                assert summary(*unpruned) == summary(res, rec), kw
            if opt != INF and opt <= limit:
                assert res.outcome == "solved" and res.cost == opt, kw
                assert validate_plan(p, res.plan).ok, kw
            elif res.outcome == "limit":
                assert limit < res.next_bound <= opt, kw
            else:
                # Past the limit, only an unsolvable problem may be proven so.
                assert res.outcome == "unsolvable" and opt == INF, kw


class TestTranspositionCutoffs:
    """IDA* searches each (state, F) once per iteration whatever the
    transposition table: with the default table, with one slot and with
    none, tp4 matches the blind temporal oracle on draws with zero-duration
    actions, the unsolvable 26th draw among them."""

    @pytest.mark.parametrize("kw", [{}, dict(tt_size=1), dict(use_tt=False)],
                             ids=["tt", "one-slot", "no-tt"])
    def test_mixed_duration_draws_match_oracle(self, kw):
        for p in mixed_temporal_draws(80):
            opt = optimum(p)
            res = run_pipeline(p, PlannerConfig(pipeline="tp4", **kw), CappedRecorder(5000))
            if opt == INF:
                assert res.outcome == "unsolvable", p
            else:
                assert res.outcome == "solved" and res.cost == opt, p
                assert validate_plan(p, res.plan).ok


class TestSuccessorMemo:
    """The temporal space's successor memo changes no result and no count:
    every run equals the run whose space builds the successors afresh at
    each call, in costs, plans, expansions and bound traces."""

    @staticmethod
    def runs(problems, kw):
        return [summary(*recorded(p, base_m=1, upper_limit=limit, right_shift=True, **kw))
                for p, limit in problems]

    @pytest.mark.parametrize("mode", [Mode.TEMPORAL, Mode.PARALLEL])
    @pytest.mark.parametrize("kw", [dict(pipeline="tp4"), dict(pipeline="hspa", stop="fixed:3")],
                             ids=["tp4", "hspa"])
    def test_runs_equal_unmemoised(self, monkeypatch, mode, kw):
        rng = random.Random(31)
        # Random draws may be unsolvable, so their runs stop past 4.
        problems = [(fixtures.satellite(mode=mode), INF), (fixtures.temporal_mix(), INF)] + [
            (random_problem(rng, max_atoms=8, max_actions=10, mode=mode,
                            durs=MIXED_DURS if mode is Mode.TEMPORAL else None), Fraction(4))
            for _ in range(40)]
        built = []

        def counted(problem, s, forbidden, mutex):
            built.append(s)
            return successors_temporal(problem, s, forbidden, mutex)

        monkeypatch.setattr(temporal, "successors_temporal", counted)
        shipped, memoised = self.runs(problems, kw), len(built)
        built.clear()
        # The fresh answers prune by the same mutexes the shipped space does.
        monkeypatch.setattr(TemporalSpace, "successors", lambda space, s, forbidden=0:
                            counted(space.problem, s, forbidden, space.mutex))
        assert self.runs(problems, kw) == shipped
        assert shipped[0][0] == shipped[1][0] == "solved"
        # The memo answered some calls, so the shipped runs built fewer.
        assert memoised < len(built)


def _dead(table, atoms: int) -> bool:
    """Whether the mask holds an atom or a pair that the table holds at INF."""
    return any(table.eval(mask(c)) == INF for k in (1, 2) for c in combinations(ids(atoms), k))


def _draws(seed, mode, count=30):
    """Random problems of the mode, mixed durations on every other temporal one."""
    rng = random.Random(seed)
    return [random_problem(rng, max_atoms=7, max_actions=10, mode=mode,
                           durs=MIXED_DURS if mode is Mode.TEMPORAL and k % 2 else None)
            for k in range(count)]


def _searched_draws(seed, mode, count=40):
    """The first `count` random problems of the mode, mixed durations on
    every other temporal draw, whose tp4 run, bounded at 6, expands at least
    one state."""
    rng = random.Random(seed)
    found, k = [], 0
    while len(found) < count:
        p = random_problem(rng, max_atoms=8, max_actions=12, mode=mode,
                           durs=MIXED_DURS if mode is Mode.TEMPORAL and k % 2 else None)
        k += 1
        if recorded(p, pipeline="tp4", upper_limit=Fraction(6))[1].expansions:
            found.append(p)
    return found


def _dead_precondition(mode):
    """p is given and q only replaces it, so {p, q} is unreachable: the
    action that needs both is dead, and g comes from the other."""
    def act(k, pre, add, delete):
        return GroundAction(k, f"a{k}", frozenset(pre), frozenset(add), frozenset(delete))

    actions = [act(0, [0], [1], [0]), act(1, [0, 1], [2], []), act(2, [0], [2], [])]
    return Problem([Atom(i, n) for i, n in enumerate("pqg")], actions,
                   frozenset({0}), frozenset({2}), mode, "dead-precondition")


class TestMutexPruning:
    """The pipeline's spaces, built on the base table, drop exactly the
    children whose relaxed atoms hold an atom or a pair that the table holds
    at INF, and keep the others in their order, with the same right-shift
    cuts.  A space built without a table drops nothing, and neither does
    the GBF, which regresses before any table exists."""

    @staticmethod
    def unpruned(problem, s, forbidden):
        """(edges, cuts) with no child dropped, and each child's relaxed atoms."""
        if problem.mode is Mode.SEQUENTIAL:
            return (successors_seq(problem, s), 0), lambda e: e.state
        return (successors_temporal(problem, s, forbidden),
                lambda e: relaxed_atoms(problem, e.state))

    def check_expanded_states(self, monkeypatch, problems):
        """Run tp4 and hspa over the problems at base m 1 and 2, and check
        every state their spaces expanded; the children dropped and kept."""
        asked = []
        for space in (SequentialSpace, TemporalSpace):
            def recording(self, s, forbidden=0, successors=space.successors):
                answer = successors(self, s, forbidden)
                asked.append((s, forbidden, answer))
                return answer
            monkeypatch.setattr(space, "successors", recording)
        dropped = kept = 0
        for p in problems:
            for base_m in (1, 2):
                base = HeuristicTable(p.scale)
                compute_base_heuristic(p, base, base_m)
                for kw in (dict(pipeline="tp4"), dict(pipeline="hspa", stop="fixed:3")):
                    asked.clear()
                    plan(p, base_m=base_m, upper_limit=Fraction(20), **kw)
                    for s, forbidden, (edges, cuts) in asked:
                        (want, want_cuts), atoms = self.unpruned(p, s, forbidden)
                        live = [e for e in want if not _dead(base, atoms(e))]
                        assert edges == live and cuts == want_cuts
                        dropped += len(want) - len(live)
                        kept += len(live)
        return dropped, kept

    @pytest.mark.parametrize("mode", list(Mode))
    def test_expanded_states_lose_exactly_the_dead_children(self, monkeypatch, mode):
        # The satellite's turns and instruments give mutexes of every kind.
        problems = [fixtures.satellite(mode=mode), _dead_precondition(mode)] + _draws(17, mode)
        dropped, kept = self.check_expanded_states(monkeypatch, problems)
        assert dropped > 0 and kept > 0

    @pytest.mark.parametrize("mode", [Mode.PARALLEL, Mode.TEMPORAL])
    def test_searched_draws_lose_exactly_the_dead_children(self, monkeypatch, mode):
        # Most random draws are unsolvable or solved at the root, so they
        # expand little; these draws all reach a search.
        problems = _searched_draws(1, mode)
        dropped, kept = self.check_expanded_states(monkeypatch, problems)
        assert dropped > 0 and kept > 0

    @pytest.mark.parametrize("mode", list(Mode))
    def test_bare_spaces_prune_nothing(self, mode):
        rng = random.Random(29)
        pruned_less = 0
        for p in _draws(23, mode):
            base = HeuristicTable(p.scale)
            mutex = compute_base_heuristic(p, base, 2).mutex
            bare, pruned = _make_space(p, True, None), _make_space(p, True, mutex)
            frontier = [(None, bare.root())]
            for _ in range(3):
                nxt = []
                for via, s in frontier:
                    forbidden = bare.forbidden(via)
                    answer = bare.successors(s, forbidden)
                    assert answer == self.unpruned(p, s, forbidden)[0]
                    assert bare.estimate(base, s) == pruned.estimate(base, s)
                    pruned_less += len(pruned.successors(s, forbidden)[0]) < len(answer[0])
                    nxt += [(e, e.state) for e in rng.sample(answer[0], min(3, len(answer[0])))]
                frontier = nxt
        assert pruned_less > 0

    def test_gbf_regresses_without_mutexes(self, monkeypatch):
        calls = {name: [] for name in ("successors_seq", "successors_temporal",
                                       "_small_regressions")}
        for name, found in calls.items():
            def counted(*args, regress=getattr(hm, name), found=found, **kw):
                found.append((args, kw))
                return regress(*args, **kw)
            monkeypatch.setattr(hm, name, counted)
        for mode in Mode:
            for p in _draws(31, mode, count=5):
                for m in (1, 2, 3):
                    compute_base_heuristic(p, HeuristicTable(p.scale), m)
        # Every regression function is called, with the problem and the set
        # alone.  In the concurrent modes only the sets of three atoms, at
        # m = 3, go through successors_temporal.
        assert all(calls.values())
        assert all(len(args) == 2 and not kw for found in calls.values() for args, kw in found)
        assert all(args[1].goals.bit_count() == 3 for args, _ in calls["successors_temporal"])


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
        # A size above sys.maxsize could not even be allocated as a list.
        for value in (0, -1, 10 ** 20):
            rec = Recorder()
            with pytest.raises(ValueError, match="between 1 and"):
                run_pipeline(fixtures.satellite(), PlannerConfig(**kw, **{size: value}), rec)
            assert rec.trace == [] and rec.expansions == 0

    @pytest.mark.parametrize("size, kw", [
        ("tt_size", dict(pipeline="tp4")),
        ("tt_size", dict(pipeline="hspa", stop="fixed:3")),
        ("solved_size", dict(pipeline="hspa", stop="fixed:3")),
    ], ids=["tt-tp4", "tt-hspa", "solved-hspa"])
    def test_table_beyond_memory_rejected_before_gbf(self, size, kw, monkeypatch):
        def no_gbf(*args):
            raise AssertionError("the GBF ran")

        monkeypatch.setattr("hmplan.pipeline.compute_base_heuristic", no_gbf)
        with pytest.raises(MemoryError, match="does not fit in memory"):
            run_pipeline(fixtures.satellite(), PlannerConfig(**kw, **{size: sys.maxsize}))

    def test_unbuilt_table_may_exceed_memory(self):
        # tp4 builds no solved table, and use_tt=False no transposition table.
        p = fixtures.satellite()
        assert plan(p, pipeline="tp4", solved_size=sys.maxsize).cost == 7
        assert plan(p, pipeline="tp4", use_tt=False, tt_size=sys.maxsize).cost == 7


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
        assert res.table is not None and res.table.eval(mask(p.goal)) == 7
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

    @pytest.mark.parametrize("mode, kw, events, solved, ida, estimates, stores", [
        (Mode.SEQUENTIAL, dict(stop="fixed:3"),
         {OR: 11, AND: 1, NORMAL: 7}, (3, 11), [7], 80, 0),
        (Mode.SEQUENTIAL, dict(base_m=1, stop="fixed:2"),
         {OR: 88, AND: 16, NORMAL: 7}, (17, 88), [7], 534, 80),
        (Mode.TEMPORAL, dict(stop="fixed:3"),
         {OR: 10, AND: 1, NORMAL: 6}, (3, 10), [6], 74, 0),
    ], ids=["fixed3", "base1-fixed2", "temporal-fixed3"])
    def test_satellite(self, monkeypatch, mode, kw, events, solved, ida, estimates,
                       stores):
        # `estimates` counts space.estimate calls.  A subset of an AND node
        # found in the solved table is not estimated; estimating it first
        # made 85, 545 and 125 calls, with the same hits and misses.  The
        # spaces generate no child that holds a mutex of the base table;
        # generating and estimating those made 85, 534 and 125 calls.
        # `stores` counts IDAO*'s heuristic-table writes (space.store_value,
        # one HeuristicTable.store each).  An OR node writes only a value
        # above the estimate it was entered with; writing every value made
        # 11, 88 and 10.  A search root is not looked up in the solved table:
        # probing the root of each pass and of each deepened search made 12,
        # 104 and 11 misses, with the same hits.
        calls, writes = [], []
        for space in (SequentialSpace, TemporalSpace):
            def counted(self, table, s, estimate=space.estimate):
                calls.append(s)
                return estimate(self, table, s)

            def written(self, table, s, cost, store_value=space.store_value):
                writes.append(s)
                store_value(self, table, s, cost)
            monkeypatch.setattr(space, "estimate", counted)
            monkeypatch.setattr(space, "store_value", written)
        res, rec = recorded(fixtures.satellite(mode=mode), pipeline="hspa", **kw)
        assert res.outcome == "solved" and res.cost == ida[-1]
        assert len(calls) == estimates
        assert len(writes) == stores
        assert {sp: expansions(rec, sp) for sp in (OR, AND, NORMAL)} == events
        assert rec.expansions == sum(events.values())
        assert (rec.solved_hits, rec.solved_misses) == solved
        assert [r.bound for r in rec.trace if r.phase == "ida"] == ida

    def test_temporal_event_sizes(self):
        # Pinned: a temporal state counts the atoms of its relaxed view.  The
        # children that hold a mutex of the base table are not generated, so
        # not counted; with them, the ratios were 61/64 and 881/840 and the
        # branching factors 32/3 and 14.
        _, rec = recorded(fixtures.satellite(mode=Mode.TEMPORAL), pipeline="hspa",
                          stop="fixed:3")
        got = {sp: (m.expansions, m.avg_state_size, m.avg_successor_ratio,
                    m.avg_branching_factor)
               for sp, m in collect_metrics(rec.events).items()}
        assert got == {
            AND: (1, 4.0, 0.75, 4.0),
            NORMAL: (6, 3.0, pytest.approx(35 / 39), 6.5),
            OR: (10, 2.8, pytest.approx(385 / 444), 7.4),
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
