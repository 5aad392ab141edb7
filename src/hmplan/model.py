"""Ground planning model: atoms, actions, problems, plans, exact cost arithmetic.

Costs and durations are given as exact rationals (fractions.Fraction); the
single permitted non-rational value is INF, which absorbs under addition and
is maximal under comparison.  Finite values must never be floats.

A `Problem` converts every cost and duration once, when it is built, to a
whole number of 1/scale, where `Problem.scale` is the least common multiple
of their denominators.  Everything between `run_pipeline`'s entry and
`build_plan` counts in these integer units (`Units`): the GBF fixpoint, the
heuristic table, both searches, edge deltas and temporal offsets.  Fraction
appears only at the edges: plans (`Plan.metric`, `PlanStep.start`), results
(`PlanResult.cost`/`next_bound`), the bounds handed to a `Recorder`, a
space's `evaluate`, the upper limit and printing.  `Problem.to_cost` and
`Problem.to_units` are the two conversions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import floor, lcm

INF = float("inf")

# A cost is either a Fraction (finite) or INF.
Cost = Fraction | float
# A cost in whole units of 1/scale of one problem, or INF.
Units = int | float

ZERO = Fraction(0)
ONE = Fraction(1)

AtomSet = frozenset[int]

EMPTY: AtomSet = frozenset()


def ceil_cost(x: Cost) -> Cost:
    if x == INF:
        return INF
    return Fraction(-((-x.numerator) // x.denominator))


def fmt_cost(x: Cost) -> str:
    if x == INF:
        return "inf"
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


class Mode(enum.Enum):
    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"
    TEMPORAL = "temporal"


@dataclass(frozen=True)
class Atom:
    id: int
    name: str

    def __repr__(self) -> str:
        return f"Atom({self.id}, {self.name!r})"


@dataclass(frozen=True, eq=False)
class GroundAction:
    """STRIPS action with exact cost and duration.  Identity-hashed: two
    actions are the same only if they are the same object of one Problem."""

    index: int
    name: str
    pre: AtomSet
    add: AtomSet
    delete: AtomSet
    cost: Fraction = ONE
    dur: Fraction = ONE

    def __post_init__(self) -> None:
        if self.add & self.delete:
            raise ValueError(f"action {self.name}: add and delete sets overlap")
        # Exact type tests and the sign of the numerator (a Fraction's
        # denominator is positive): an ABC isinstance check and a Fraction
        # comparison each cost more than the rest of an action's set-up.
        if type(self.cost) is not Fraction or self.cost.numerator <= 0:
            raise ValueError(f"action {self.name}: cost must be a positive rational")
        if type(self.dur) is not Fraction or self.dur.numerator < 0:
            raise ValueError(f"action {self.name}: duration must be a rational >= 0")

    def __repr__(self) -> str:
        return f"GroundAction({self.name!r})"


class Problem:
    """Immutable ground planning problem."""

    def __init__(
        self,
        atoms: list[Atom],
        actions: list[GroundAction],
        init: AtomSet,
        goal: AtomSet,
        mode: Mode = Mode.SEQUENTIAL,
        name: str = "problem",
    ) -> None:
        ids = {a.id for a in atoms}
        if ids != set(range(len(atoms))):
            raise ValueError("atom ids must be contiguous 0..n-1")
        universe = frozenset(ids)
        for s, what in [(init, "init"), (goal, "goal")]:
            if not s <= universe:
                raise ValueError(f"{what} references undeclared atoms")
        if [a.index for a in actions] != list(range(len(actions))):
            raise ValueError("action indices must be their positions 0..n-1")
        for a in actions:
            if not (a.pre | a.add | a.delete) <= universe:
                raise ValueError(f"action {a.name} references undeclared atoms")
        if mode is Mode.PARALLEL and any(a.dur != 1 for a in actions):
            raise ValueError("parallel mode requires all durations equal to 1")
        self.name = name
        self.atoms = tuple(atoms)
        self.actions = tuple(actions)
        self.init = frozenset(init)
        self.goal = frozenset(goal)
        self.mode = mode
        self._name_of = {a.id: a.name for a in atoms}
        self._id_of = {a.name: a.id for a in atoms}
        if len(self._id_of) != len(atoms):
            raise ValueError("atom names must be unique")
        # atom id -> actions adding it, in action index order
        adders: list[list[GroundAction]] = [[] for _ in atoms]
        for act in actions:
            for p in act.add:
                adders[p].append(act)
        self.adders = tuple(tuple(v) for v in adders)
        self.scale = scale = lcm(*{x.denominator for a in actions for x in (a.cost, a.dur)})
        # action -> its cost and its duration in units of 1/scale
        self.cost_units = {a: a.cost.numerator * (scale // a.cost.denominator) for a in actions}
        self.dur_units = {a: a.dur.numerator * (scale // a.dur.denominator) for a in actions}

    @cached_property
    def conflict_masks(self) -> tuple[int, ...]:
        """Per action index, the actions it may not overlap in time with: bit
        b is set iff not `temporal.compatible(a, b)`, self-pairs included.
        Built on first use, so sequential problems never pay for it, from
        per-atom masks of the actions that use (require or add) and that
        delete each atom."""
        uses = [0] * len(self.atoms)
        deletes = [0] * len(self.atoms)
        for a in self.actions:
            bit = 1 << a.index
            for p in a.pre | a.add:
                uses[p] |= bit
            for p in a.delete:
                deletes[p] |= bit
        masks = [0] * len(self.actions)
        for a in self.actions:
            mask = 0
            for p in a.delete:
                mask |= uses[p]
            for p in a.pre | a.add:
                mask |= deletes[p]
            masks[a.index] = mask
        return tuple(masks)

    @cached_property
    def delete_masks(self) -> tuple[int, ...]:
        """Per action index, the atoms it deletes as a bitmask."""
        masks = [0] * len(self.actions)
        for a in self.actions:
            masks[a.index] = sum(1 << p for p in a.delete)
        return tuple(masks)

    @cached_property
    def pre_masks(self) -> tuple[int, ...]:
        """Per action index, its preconditions as a bitmask."""
        return tuple(sum(1 << p for p in a.pre) for a in self.actions)

    def to_cost(self, units: Units) -> Cost:
        """A count of 1/scale as a rational cost; INF stays INF."""
        return units if units == INF else Fraction(units, self.scale)

    def to_units(self, cost: Cost) -> Units:
        """The largest count of 1/scale not above the cost; INF stays INF.
        A count x exceeds the cost exactly when x > to_units(cost)."""
        return cost if cost == INF else floor(cost * self.scale)

    def atom_id(self, name: str) -> int:
        return self._id_of[name]

    def atom_set(self, *names: str) -> AtomSet:
        return frozenset(self._id_of[n] for n in names)

    def set_names(self, s: AtomSet) -> frozenset[str]:
        return frozenset(self._name_of[i] for i in s)

    def __repr__(self) -> str:
        return (
            f"Problem({self.name!r}, atoms={len(self.atoms)}, "
            f"actions={len(self.actions)}, mode={self.mode.value})"
        )


@dataclass(frozen=True)
class PlanStep:
    start: Fraction
    action: GroundAction


@dataclass
class Plan:
    """A sequential plan (start times 0,1,2,...) or a temporal schedule.
    Steps are listed in execution order: steps with one start time run in
    the order they are listed, which matters for zero-duration steps."""

    steps: list[PlanStep]
    metric: Cost

    def sorted_steps(self) -> list[PlanStep]:
        return sorted(self.steps, key=lambda st: st.start)

    def format(self, mode: Mode) -> str:
        lines = []
        if mode is Mode.SEQUENTIAL:
            for i, st in enumerate(self.sorted_steps()):
                lines.append(f"{i}: ({st.action.name})")
        else:
            for st in self.sorted_steps():
                lines.append(
                    f"{fmt_cost(st.start)}: ({st.action.name}) [{fmt_cost(st.action.dur)}]"
                )
        return "\n".join(lines)


def round_durations_up(problem: Problem) -> Problem:
    """Replace every duration with its ceiling (zero stays zero)."""
    actions = [replace(a, dur=ceil_cost(a.dur)) for a in problem.actions]
    return Problem(list(problem.atoms), actions, problem.init, problem.goal,
                   problem.mode, problem.name)
