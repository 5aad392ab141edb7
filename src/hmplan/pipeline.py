"""Planner pipelines.

Both pipelines start from a complete h^m heuristic computed by the
generalized Bellman-Ford fixpoint.  The plain pipeline ("tp4") runs IDA*
directly on that heuristic.  The boosted pipeline ("hspa") first runs
relaxed m-regression passes with increasing m, each of which improves the
shared heuristic table, until a stopping rule fires, then runs IDA*.  If any
relaxed pass proves the relaxed problem unsolvable, the original problem is
unsolvable too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .hm import GbfStats, compute_base_heuristic
from .htable import HeuristicTable
from .idao import IdaoSearch, PassStats
from .idastar import IdaStar, SearchStats
from .metrics import Recorder
from .model import INF, Cost, Mode, Plan, Problem
from .sequential import SequentialSpace
from .temporal import TemporalSpace


@dataclass
class PlannerConfig:
    pipeline: str = "tp4"  # tp4 | hspa
    base_m: int = 2
    stop: str = "fixed:3"  # fixed:<M> | no-and | converged
    right_shift: bool = True  # temporal and parallel modes only
    use_tt: bool = True
    tt_size: int = 1 << 16
    solved_size: int = 1 << 16
    gbf_strategy: str = "worklist"
    upper_limit: Cost = INF


@dataclass
class PlanResult:
    outcome: str  # solved | unsolvable | limit
    cost: Cost | None = None
    plan: Plan | None = None
    next_bound: Cost | None = None
    table: HeuristicTable | None = None
    gbf_stats: GbfStats | None = None
    pass_stats: list[PassStats] = field(default_factory=list)
    search_stats: SearchStats | None = None


def _make_space(problem: Problem):
    if problem.mode is Mode.SEQUENTIAL:
        return SequentialSpace(problem)
    return TemporalSpace(problem)


def _base_table(problem: Problem, config: PlannerConfig,
                recorder: Recorder | None):
    table = HeuristicTable()
    stats = compute_base_heuristic(problem, table, config.base_m, config.gbf_strategy)
    space = _make_space(problem)
    if recorder:
        recorder.bound("gbf", space.evaluate(table, space.root()))
    return table, stats, space


def _final_search(problem: Problem, space, table: HeuristicTable,
                  config: PlannerConfig, recorder: Recorder | None,
                  result: PlanResult) -> PlanResult:
    right_shift = config.right_shift and problem.mode is not Mode.SEQUENTIAL
    search = IdaStar(
        space,
        table,
        use_tt=config.use_tt,
        tt_capacity=config.tt_size,
        right_shift=right_shift,
        recorder=recorder,
    )
    out = search.run(config.upper_limit)
    result.outcome = out.outcome
    result.cost = out.cost
    result.plan = out.plan
    result.next_bound = out.next_bound
    result.search_stats = out.stats
    return result


def run_tp4(problem: Problem, config: PlannerConfig,
            recorder: Recorder | None = None) -> PlanResult:
    table, gbf_stats, space = _base_table(problem, config, recorder)
    result = PlanResult("unsolvable", table=table, gbf_stats=gbf_stats)
    if space.evaluate(table, space.root()) == INF:
        return result
    return _final_search(problem, space, table, config, recorder, result)


def _parse_stop(stop: str) -> tuple[str, int | None]:
    if stop in ("no-and", "converged"):
        return stop, None
    if stop.startswith("fixed:"):
        m = int(stop.split(":", 1)[1])
        if m < 2:
            raise ValueError("fixed stopping level must be at least 2")
        return "fixed", m
    raise ValueError(f"unknown stopping rule {stop!r}")


def run_hspa(problem: Problem, config: PlannerConfig,
             recorder: Recorder | None = None) -> PlanResult:
    stop_kind, stop_m = _parse_stop(config.stop)
    table, gbf_stats, space = _base_table(problem, config, recorder)
    result = PlanResult("unsolvable", table=table, gbf_stats=gbf_stats)
    if space.evaluate(table, space.root()) == INF:
        return result

    prev_cost: Cost | None = None
    m = config.base_m + 1
    n_atoms = len(problem.atoms)
    while True:
        idao = IdaoSearch(
            space,
            table,
            m,
            solved_capacity=config.solved_size,
            recorder=recorder,
        )
        out = idao.run()
        result.pass_stats.append(out.stats)
        if not out.solved:
            # The m-relaxation admits no solution, so neither does the problem.
            return result
        if out.stats.and_expansions == 0:
            # The pass never crossed the size boundary: it was a complete
            # regression search, and its cost and plan are exact.  Larger m
            # would repeat the identical search.
            if out.plan is not None:
                if out.cost > config.upper_limit:
                    result.outcome = "limit"
                    result.next_bound = out.cost
                    return result
                result.outcome = "solved"
                result.cost = out.cost
                result.plan = out.plan
                return result
            break
        if stop_kind == "fixed" and m >= stop_m:
            break
        if stop_kind == "converged" and out.cost == prev_cost:
            break
        prev_cost = out.cost
        m += 1
        if m > n_atoms:
            break
    return _final_search(problem, space, table, config, recorder, result)


def run_pipeline(problem: Problem, config: PlannerConfig,
                 recorder: Recorder | None = None) -> PlanResult:
    if config.pipeline == "tp4":
        return run_tp4(problem, config, recorder)
    if config.pipeline == "hspa":
        return run_hspa(problem, config, recorder)
    raise ValueError(f"unknown pipeline {config.pipeline!r}")
