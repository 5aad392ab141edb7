"""The planner pipeline.

`run_pipeline` is the one entry point.  Every run starts from a complete h^m
heuristic, computed by `hm.compute_base_heuristic`, and ends with IDA*
on the shared heuristic table.  The boosted pipeline ("hspa") runs
relaxed m-regression passes with increasing m in between, each of which
improves the table, until a stopping rule fires; the plain pipeline ("tp4")
is the same run with no passes.  If any relaxed pass proves the relaxed
problem unsolvable, the original problem is unsolvable too.

The run counts in the problem's integer units of 1/scale from start to end:
`config.upper_limit` is converted once, by floor, on entry, and the result's
cost and next bound become Fractions again on exit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .hm import compute_base_heuristic
from .htable import HeuristicTable
from .idao import IdaoSearch
from .idastar import DEFAULT_CAPACITY, IdaStar, SearchResult
from .metrics import Recorder
from .model import INF, Cost, Mode, Plan, Problem, Units
from .mutex import Mutex
from .sequential import SequentialSpace
from .temporal import TemporalSpace


@dataclass
class PlannerConfig:
    pipeline: str = "tp4"  # tp4 | hspa
    base_m: int = 2
    stop: str = "fixed:3"  # fixed:<M> | no-and | converged
    right_shift: bool = True  # TemporalSpace's cut; IDA* applies it, IDAO* does not
    use_tt: bool = True
    tt_size: int = DEFAULT_CAPACITY  # table sizes count entries
    solved_size: int = DEFAULT_CAPACITY
    upper_limit: Cost = INF


@dataclass
class PlanResult:
    outcome: str  # solved | unsolvable | limit
    cost: Cost | None = None
    plan: Plan | None = None
    next_bound: Cost | None = None
    table: HeuristicTable | None = None


def _make_space(problem: Problem, right_shift: bool, mutex: Mutex | None):
    if problem.mode is Mode.SEQUENTIAL:
        return SequentialSpace(problem, mutex)
    return TemporalSpace(problem, right_shift, mutex)


def _parse_stop(stop: str) -> tuple[str, int | None]:
    if stop in ("no-and", "converged"):
        return stop, None
    if stop.startswith("fixed:") and stop[6:].isdecimal():
        m = int(stop[6:])
        if m < 2:
            raise ValueError("fixed stopping level must be at least 2")
        return "fixed", m
    raise ValueError(f"unknown stopping rule {stop!r}")


def run_pipeline(problem: Problem, config: PlannerConfig,
                 recorder: Recorder | None = None) -> PlanResult:
    """Solve the problem optimally, or prove it unsolvable, or report the
    next bound above `config.upper_limit`.  Before any work is done, raises
    ValueError on a bad pipeline name, stopping rule or table size.  A
    table size caps the entries the table may hold; none is allocated up
    front, so a table only takes the memory its entries need."""
    if config.pipeline not in ("tp4", "hspa"):
        raise ValueError(f"unknown pipeline {config.pipeline!r}")
    for name, size in (("transposition", config.tt_size), ("solved", config.solved_size)):
        if not 1 <= size <= sys.maxsize:
            raise ValueError(f"{name} table size must be between 1 and {sys.maxsize}")
    stop = _parse_stop(config.stop)
    limit = problem.to_units(config.upper_limit)
    table = HeuristicTable(problem.scale)
    gbf = compute_base_heuristic(problem, table, config.base_m)
    space = _make_space(problem, config.right_shift, gbf.mutex)
    root_h = space.estimate(table, space.root())
    if recorder:
        recorder.bound("gbf", problem.to_cost(root_h))
    if root_h == INF:
        return PlanResult("unsolvable", table=table)
    out = None
    if config.pipeline == "hspa":
        out = _boost(space, table, config, stop, limit, recorder)
    if out is None:
        search = IdaStar(space, table, use_tt=config.use_tt, tt_capacity=config.tt_size,
                         recorder=recorder)
        out = search.run(limit)

    def to_cost(units: Units | None) -> Cost | None:
        return None if units is None else problem.to_cost(units)

    return PlanResult(out.outcome, to_cost(out.cost), out.plan,
                      to_cost(out.next_bound), table)


def _boost(space, table: HeuristicTable, config: PlannerConfig,
           stop: tuple[str, int | None], limit: Units,
           recorder: Recorder | None) -> SearchResult | None:
    """Run relaxed passes for m = base_m + 1, ... until the stopping rule
    fires (under fixed:M, up to m = M only), each bounded by the limit (in
    units).  Returns the pass that settled the run, if one did: it proved
    the problem unsolvable, or the optimum above the limit, or it was a
    complete search and carries the plan."""
    stop_kind, stop_m = stop
    prev_cost: Units | None = None
    m = config.base_m + 1
    # No pass needs m above the atom count: the loop goes on only after a
    # solved pass with no plan, which split a state of more than m atoms, and
    # a pass at m equal to the atom count splits nothing, so it returns.
    while stop_kind != "fixed" or m <= stop_m:
        idao = IdaoSearch(space, table, m, solved_capacity=config.solved_size,
                          recorder=recorder)
        out = idao.run(limit)
        # An unsolvable m-relaxation means an unsolvable problem; a relaxed
        # cost above the limit bounds the optimum; a plan means the pass never
        # crossed the size boundary, so its cost and plan are exact and larger
        # m would repeat the identical search.
        if out.outcome != "solved" or out.plan is not None:
            return out
        if stop_kind == "converged" and out.cost == prev_cost:
            return None
        prev_cost = out.cost
        m += 1
    return None
