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
    # interfere.  Meeting end to start is ordinary sequencing and is allowed.
    for i, a in enumerate(steps):
        for b in steps[i + 1:]:
            if _overlap(a.start, a.action.dur, b.start, b.action.dur):
                if not compatible(a.action, b.action):
                    errors.append(
                        f"incompatible overlap: ({a.action.name}) at {a.start} "
                        f"and ({b.action.name}) at {b.start}"
                    )

    state = set(problem.init)
    times = sorted({st.start for st in steps} | {st.start + st.action.dur for st in steps})
    for t in times:
        for st in steps:
            if st.action.dur > 0 and st.start + st.action.dur == t:
                state -= st.action.delete
                state |= st.action.add
        # Zero-duration actions at t fire one at a time: each time the first
        # pending one in plan order whose precondition holds, until all have
        # fired or none can.
        pending = [st for st in steps if st.action.dur == 0 and st.start == t]
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
        for st in steps:
            if st.action.dur > 0 and st.start == t:
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


def _overlap(s1: Fraction, d1: Fraction, s2: Fraction, d2: Fraction) -> bool:
    e1, e2 = s1 + d1, s2 + d2
    if d1 == 0 and d2 == 0:
        return False  # instantaneous actions at one point fire one at a time
    if d1 == 0:
        return s2 < s1 < e2
    if d2 == 0:
        return s1 < s2 < e1
    return s1 < e2 and s2 < e1
