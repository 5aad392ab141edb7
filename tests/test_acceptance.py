"""End-to-end acceptance checks, each printing a single verdict line."""

import random
import time
from fractions import Fraction
from math import comb, isclose

import pytest

from conftest import (
    achieve_cost,
    forward_dijkstra,
    parallel_makespan,
    random_problem,
    regression_states,
    seq_optimal,
    temporal_makespan,
)
from hmplan import fixtures
from hmplan.hm import compute_base_heuristic
from hmplan.htable import HeuristicTable
from hmplan.idao import IdaoSearch, SolvedTable
from hmplan.idastar import IdaStar
from hmplan.metrics import AND, NORMAL, ExpansionEvent, Recorder, collect_metrics
from hmplan.model import INF, Mode
from hmplan.pipeline import PlannerConfig, run_pipeline
from hmplan.sequential import SequentialSpace, successors_seq
from hmplan.temporal import TemporalSpace
from hmplan.validate import validate_plan


def verdict(n: int, ok: bool, extra: str = "") -> None:
    tail = f" ({extra})" if extra else ""
    print(f"acceptance criterion {n}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok


class SpyTable(HeuristicTable):
    """Heuristic table that logs every store with the current iteration."""

    def __init__(self):
        super().__init__()
        self.iteration = 0
        self.log: list[tuple[int, frozenset, object]] = []

    def store(self, atoms, value):
        self.log.append((self.iteration, atoms, value))
        super().store(atoms, value)


class SpySolved(SolvedTable):
    def __init__(self, table: SpyTable):
        super().__init__()
        self.table = table
        self.log: list[tuple[int, object, object]] = []

    def put(self, key, cost):
        self.log.append((self.table.iteration, key, cost))
        super().put(key, cost)


class SpyRecorder(Recorder):
    """Advances the spy table's iteration as the pass records the bound of
    each of its top-level iterations."""

    def __init__(self, table: SpyTable):
        super().__init__()
        self.table = table

    def bound(self, phase, bound):
        super().bound(phase, bound)
        self.table.iteration += 1


def stored_value(log, key, up_to_iteration):
    vals = [v for it, k, v in log if k == key and it <= up_to_iteration]
    return max(vals, default=Fraction(0))


class TestCriteria:
    def test_1_relaxed_pass_replay(self):
        p = fixtures.satellite()
        assert seq_optimal(p) == 7  # oracle precondition

        table = SpyTable()
        compute_base_heuristic(p, table, 1)
        space = SequentialSpace(p)
        table.log.clear()

        started = time.monotonic()
        search = IdaoSearch(space, table, 2, recorder=SpyRecorder(table))
        search.solved = SpySolved(table)
        out = search.run()
        elapsed = time.monotonic() - started

        root_estimates = [r.bound for r in search.recorder.trace
                          if r.phase == "idao:2"]
        a = root_estimates[0] == 3
        b = stored_value(table.log, p.goal, 1) == 4
        pair = p.atom_set("point d4", "on")
        c = any(it == 2 and k == pair and v == 2
                for it, k, v in search.solved.log)
        d = any(it >= 2 and k == p.goal and v == 5 for it, k, v in table.log)
        e = table.eval(p.goal) == 7 and out.outcome == "solved" and out.cost == 7
        ok = a and b and c and d and e and elapsed < 1.0
        verdict(1, ok, f"root 3:{a} pair@4:{b} sub@2:{c} pair@5:{d} final 7:{e}")

    def test_2_relaxed_search_matches_fixpoint(self):
        rng = random.Random(101)
        checked = 0
        ok = True
        instances = 0
        while instances < 20:
            p = random_problem(rng, max_atoms=8, max_actions=12)
            # solvable instances keep every relaxed value finite
            if seq_optimal(p) == INF:
                continue
            instances += 1
            space = SequentialSpace(p)
            for m in (1, 2, 3):
                complete = HeuristicTable(p.scale)
                compute_base_heuristic(p, complete, m)
                want = complete.eval(p.goal)

                seed = HeuristicTable(p.scale)
                if m > 1:
                    compute_base_heuristic(p, seed, m - 1)
                out = IdaoSearch(space, seed, m).run()
                got = INF if out.outcome == "unsolvable" else out.cost
                ok = ok and got == want
                checked += 1
        verdict(2, ok and checked >= 60, f"{checked} root comparisons")

    def test_3_admissibility_after_every_phase(self):
        rng = random.Random(103)
        violations = 0
        states_checked = 0
        for _ in range(8):
            p = random_problem(rng, max_atoms=7, max_actions=10)
            dist = forward_dijkstra(p)
            states = regression_states(p, cap=50_000)
            space = SequentialSpace(p)

            def phase_ok(t):
                nonlocal violations, states_checked
                for s in states:
                    states_checked += 1
                    if p.to_cost(t.eval(s)) > achieve_cost(dist, s):
                        violations += 1

            t = HeuristicTable(p.scale)
            compute_base_heuristic(p, t, 1)
            phase_ok(t)
            t2 = HeuristicTable(p.scale)
            compute_base_heuristic(p, t2, 2)
            phase_ok(t2)
            boosted = HeuristicTable(p.scale)
            compute_base_heuristic(p, boosted, 1)
            for m in (2, 3):
                IdaoSearch(space, boosted, m).run()
                phase_ok(boosted)
        verdict(3, violations == 0, f"{states_checked} state evaluations")

    def test_4_pipeline_invariance(self):
        cases = [
            (fixtures.satellite(), 7),
            (fixtures.satellite(mode=Mode.PARALLEL), 6),
            (fixtures.satellite(mode=Mode.TEMPORAL), 6),
            (fixtures.chain(4), 4),
            (fixtures.chain(3, Mode.TEMPORAL, durs=[2, 3, 1]), 6),
            (fixtures.temporal_mix(), Fraction(5, 2)),
            (fixtures.unsolvable(), None),
        ]
        ok = True
        runs = 0
        for problem, want in cases:
            for rs in (True, False):
                for tt in (True, False):
                    for pipeline, stop in [("tp4", "no-and"),
                                           ("hspa", "no-and"),
                                           ("hspa", "converged"),
                                           ("hspa", "fixed:3")]:
                        res = run_pipeline(problem, PlannerConfig(
                            pipeline=pipeline, stop=stop,
                            right_shift=rs, use_tt=tt))
                        runs += 1
                        if want is None:
                            ok = ok and res.outcome == "unsolvable"
                        else:
                            ok = ok and res.cost == want
                            ok = ok and validate_plan(problem, res.plan).ok
        verdict(4, ok, f"{runs} configurations")

    def test_5_temporal_oracle_and_right_shift(self):
        rng = random.Random(107)
        probs = [
            fixtures.satellite(mode=Mode.PARALLEL),
            fixtures.satellite(mode=Mode.TEMPORAL),
            fixtures.satellite(goal_images=("d2", "d3", "d4", "d5"),
                               mode=Mode.PARALLEL),
            fixtures.temporal_mix(),
            fixtures.chain(3, Mode.TEMPORAL, durs=[2, 1, 3]),
        ]
        for _ in range(6):
            probs.append(random_problem(rng, max_atoms=6, max_actions=8,
                                        mode=Mode.PARALLEL))
        ok = True
        reductions = 0
        for p in probs:
            want = temporal_makespan(p)

            def run(rs):
                # measured without the transposition table: cut-touched
                # expansions are never cached, which otherwise masks the
                # rule's effect with extra re-expansions
                t = HeuristicTable(p.scale)
                compute_base_heuristic(p, t, 2)
                rec = Recorder()
                res = IdaStar(TemporalSpace(p, right_shift=rs), t,
                              use_tt=False, recorder=rec).run()
                return res, rec.expansions

            (on, on_exp), (off, off_exp) = run(True), run(False)
            if want == INF:
                ok = ok and on.outcome == off.outcome == "unsolvable"
                continue
            ok = ok and p.to_cost(on.cost) == p.to_cost(off.cost) == want
            ok = ok and on_exp <= off_exp
            if on_exp < off_exp:
                reductions += 1
        verdict(5, ok, f"{len(probs)} problems, {reductions} strict reductions")

    def test_6_boosted_pipeline_expansion_advantage(self):
        sat3 = fixtures.satellite(goal_images=("d3", "d4", "d5"))
        assert seq_optimal(sat3) == 9  # smaller 3-goal variant, same shape
        p = fixtures.satellite(goal_images=("d1", "d2", "d3", "d4", "d5"))
        assert seq_optimal(p) == 12  # oracle precondition
        h2 = HeuristicTable()
        compute_base_heuristic(p, h2, 2)
        assert h2.eval(p.goal) == 7  # strictly below the optimum

        rec_plain = Recorder()
        plain = run_pipeline(p, PlannerConfig(pipeline="tp4"), rec_plain)
        rec_boost = Recorder()
        boost = run_pipeline(p, PlannerConfig(pipeline="hspa", stop="fixed:3"),
                             rec_boost)
        ok = plain.cost == boost.cost == 12

        # every expansion of every phase: OR and AND nodes of the passes and
        # the final search's nodes
        plain_exp = rec_plain.expansions
        boost_exp = rec_boost.expansions
        ok = ok and boost_exp <= plain_exp

        for rec in (rec_plain, rec_boost):
            by_phase: dict[str, list] = {}
            for r in rec.trace:
                by_phase.setdefault(r.phase, []).append(r.bound)
            for series in by_phase.values():
                ok = ok and series == sorted(series)
        verdict(6, ok, f"boosted {boost_exp} vs plain {plain_exp} expansions")

    def test_7_metrics_self_consistency(self):
        rec = Recorder()
        t = HeuristicTable()
        p = fixtures.satellite()
        compute_base_heuristic(p, t, 1)
        IdaStar(SequentialSpace(p), t, recorder=rec).run()

        computed = collect_metrics(rec.events)
        evs = [e for e in rec.events if e.space == NORMAL]
        n = len(evs)
        ratios = [sz / e.parent_size for e in evs if e.parent_size
                  for sz in e.succ_sizes]
        m = computed[NORMAL]
        recount = (
            m.expansions == n
            and isclose(m.avg_state_size, sum(e.parent_size for e in evs) / n)
            and isclose(m.avg_successor_ratio, sum(ratios) / len(ratios))
            and isclose(m.avg_branching_factor,
                        sum(len(e.succ_sizes) for e in evs) / n)
        )

        def ratio_of(problem, m_seed=1):
            r = Recorder()
            ht = HeuristicTable()
            compute_base_heuristic(problem, ht, m_seed)
            IdaStar(SequentialSpace(problem), ht, recorder=r).run()
            return collect_metrics(r.events)[NORMAL].avg_successor_ratio

        growing = ratio_of(fixtures.growing(depth=1, width=3))
        chain = ratio_of(fixtures.chain(6))

        sizes = [8] * 6 + [9] * 3 + [10]
        events = [ExpansionEvent(AND, s, (3,) * comb(s, 3)) for s in sizes]
        branching = collect_metrics(events)[AND].avg_branching_factor
        ok = (recount and growing > 2.0 and isclose(chain, 1.0)
              and branching == 70.8)
        verdict(7, ok, f"growing ratio {growing:.2f}, chain {chain:.2f}, "
                       f"and-branching {branching}")

    def test_8_consistency_of_h2(self):
        rng = random.Random(109)
        seq_violations = 0
        temp_violations = 0
        pairs = 0
        for _ in range(8):
            p = random_problem(rng, max_atoms=7, max_actions=10)
            t = HeuristicTable(p.scale)
            compute_base_heuristic(p, t, 2)
            for s in regression_states(p, cap=50_000):
                for edge in successors_seq(p, s):
                    pairs += 1
                    if t.eval(s) > edge.delta + t.eval(edge.state):
                        seq_violations += 1
        for _ in range(5):
            p = random_problem(rng, max_atoms=6, max_actions=8,
                               mode=Mode.PARALLEL)
            sp = TemporalSpace(p)
            t = HeuristicTable(p.scale)
            compute_base_heuristic(p, t, 2)
            frontier = [sp.root()]
            seen = set()
            while frontier and len(seen) < 300:
                s = frontier.pop()
                if s in seen:
                    continue
                seen.add(s)
                for edge in sp.successors(s)[0]:
                    if sp.estimate(t, s) > edge.delta + sp.estimate(t, edge.state):
                        temp_violations += 1
                    frontier.append(edge.state)
        # the relaxed temporal table may be inconsistent; only report it
        verdict(8, seq_violations == 0,
                f"{pairs} sequential transitions, "
                f"{temp_violations} temporal inconsistencies logged")
