"""Independent plan validation by forward simulation.

Sequential plans are checked by executing actions in order.  Temporal
schedules are checked event by event: at each time point the effects of
ending actions apply first, then zero-duration actions fire one at a time,
each time the first not yet fired in plan order whose precondition holds,
then the preconditions of starting actions are checked.  Overlapping actions
must be pairwise compatible: neither may delete an atom the other requires
or adds.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from .model import Cost, Mode, Plan, Problem, ZERO
from .temporal import compatible


@dataclass
class ValidationResult:
    ok: bool
    metric: Cost | None = None
    errors: list[str] = field(default_factory=list)

    def report(self) -> str:
        if self.ok:
            return "plan valid"
        return "plan invalid:\n" + "\n".join(f"  {e}" for e in self.errors)


def validate_plan(problem: Problem, plan: Plan) -> ValidationResult:
    if problem.mode is Mode.SEQUENTIAL:
        return _validate_sequential(problem, plan)
    return _validate_temporal(problem, plan)


def _validate_sequential(problem: Problem, plan: Plan) -> ValidationResult:
    errors: list[str] = []
    state = set(problem.init)
    cost: Cost = ZERO
    for i, st in enumerate(plan.sorted_steps()):
        a = st.action
        missing = a.pre - state
        if missing:
            names = ", ".join(sorted(problem.set_names(frozenset(missing))))
            errors.append(f"step {i} ({a.name}): precondition not satisfied: {names}")
        state -= a.delete
        state |= a.add
        cost = cost + a.cost
    missing = problem.goal - state
    if missing:
        names = ", ".join(sorted(problem.set_names(frozenset(missing))))
        errors.append(f"goal not satisfied at end: {names}")
    if plan.metric != cost:
        errors.append(f"plan metric {plan.metric} differs from total cost {cost}")
    return ValidationResult(not errors, cost, errors)


def _validate_temporal(problem: Problem, plan: Plan) -> ValidationResult:
    errors: list[str] = []
    steps = plan.sorted_steps()
    for i, st in enumerate(steps):
        if st.start < 0:
            errors.append(f"step {i} ({st.action.name}): negative start time {st.start}")
    makespan = max((st.start + st.action.dur for st in steps), default=Fraction(0))

    # Any two actions whose execution intervals properly overlap must not
    # interfere.  Meeting end to start is ordinary sequencing and is allowed,
    # and instantaneous actions at one point fire one at a time.  So, in
    # start order, the steps that overlap a step after it are those that
    # start before it ends, except instantaneous ones at its own start.
    starts = [st.start for st in steps]
    for i, a in enumerate(steps):
        for b in steps[i + 1:bisect_left(starts, a.start + a.action.dur, i + 1)]:
            overlap = b.action.dur > 0 or b.start > a.start
            if overlap and not compatible(a.action, b.action):
                errors.append(
                    f"incompatible overlap: ({a.action.name}) at {a.start} "
                    f"and ({b.action.name}) at {b.start}"
                )

    # The steps that end, fire (zero duration) and start at each time point,
    # each in plan order.
    events: dict[Fraction, tuple[list, list, list]] = defaultdict(lambda: ([], [], []))
    for st in steps:
        if st.action.dur > 0:
            events[st.start + st.action.dur][0].append(st)
            events[st.start][2].append(st)
        else:
            events[st.start][1].append(st)
    state = set(problem.init)
    for t in sorted(events):
        ending, pending, starting = events[t]
        for st in ending:
            state -= st.action.delete
            state |= st.action.add
        # Zero-duration actions at t fire one at a time: each time the first
        # pending one in plan order whose precondition holds, until all have
        # fired or none can.
        while pending:
            ready = next((st for st in pending if st.action.pre <= state), None)
            if ready is None:
                for st in pending:
                    miss = st.action.pre - state
                    names = ", ".join(sorted(problem.set_names(frozenset(miss))))
                    errors.append(
                        f"({st.action.name}) at {t}: precondition not satisfied: {names}"
                    )
                break
            state -= ready.action.delete
            state |= ready.action.add
            pending.remove(ready)
        for st in starting:
            miss = st.action.pre - state
            if miss:
                names = ", ".join(sorted(problem.set_names(frozenset(miss))))
                errors.append(
                    f"({st.action.name}) at {t}: precondition not satisfied: {names}"
                )
    missing = problem.goal - state
    if missing:
        names = ", ".join(sorted(problem.set_names(frozenset(missing))))
        errors.append(f"goal not satisfied at makespan: {names}")
    if plan.metric != makespan:
        errors.append(f"plan metric {plan.metric} differs from makespan {makespan}")
    return ValidationResult(not errors, makespan, errors)
