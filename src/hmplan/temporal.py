"""Temporal regression: states (E, F), compatibility, time-advance successors,
right-shift cuts, the relaxed view used for evaluation, and the storage rule
for states that still carry in-progress actions.

A state pairs the subgoal atoms E needed at the current time point with the
set F of actions already chosen that span that point; each entry (a, d) in F
started d time units before the current point, with 0 < d < dur(a).

All times here (the offsets d, edge deltas, component offsets and stored
values) are integers counting the problem's units of 1/scale, taken from
`Problem.dur_units`.  Only `TemporalSpace.evaluate` turns a value into a
Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .htable import HeuristicTable
from .model import EMPTY, AtomSet, Cost, GroundAction, Problem, Units

FEntry = tuple[GroundAction, int]  # (action, units since its start)


@dataclass(frozen=True)
class TempState:
    goals: AtomSet
    in_progress: tuple[FEntry, ...] = ()
    # Edge annotations describing how this state was produced from its
    # predecessor: atoms carried over by no-ops, and the real actions chosen
    # there.  Needed only by the right-shift rule, so excluded from identity.
    noop_carried: AtomSet = field(default=EMPTY, compare=False)
    pred_chosen: tuple[GroundAction, ...] = field(default=(), compare=False)

    def __repr__(self) -> str:
        f = ", ".join(f"({a.name}, {d})" for a, d in self.in_progress)
        return f"TempState({set(self.goals) or '{}'}, [{f}])"


def compatible(a: GroundAction, b: GroundAction) -> bool:
    """Two actions may overlap in time iff neither deletes a precondition or
    add effect of the other."""
    return not (
        a.delete & b.pre
        or a.delete & b.add
        or b.delete & a.pre
        or b.delete & a.add
    )


def final_temporal(s: TempState, init: AtomSet) -> bool:
    return not s.in_progress and s.goals <= init


def relaxed_atoms(s: TempState) -> AtomSet:
    """E joined with the preconditions of every in-progress action."""
    atoms = s.goals
    for a, _ in s.in_progress:
        atoms = atoms | a.pre
    return atoms


def relax_state(s: TempState) -> list[tuple[AtomSet, int]]:
    """Relax (E, F) to plain atom-set components with time offsets.

    For each offset d in F the preconditions of all actions started at least
    d units back must hold jointly d units before the current point; dropping
    F entirely leaves E plus all preconditions at offset 0.  Components are
    returned in decreasing offset order.
    """
    if not s.in_progress:
        return [(s.goals, 0)]
    out: list[tuple[AtomSet, int]] = []
    offsets = sorted({d for _, d in s.in_progress}, reverse=True)
    for dk in offsets:
        comp: AtomSet = frozenset()
        for a, d in s.in_progress:
            if d >= dk:
                comp = comp | a.pre
        out.append((comp, dk))
    all_pre = relaxed_atoms(s)
    out.append((all_pre, 0))
    return out


def storage_value(s: TempState, found_cost: Units) -> tuple[AtomSet, Units]:
    """Convert a bound for (E, F) into one for the plain atom set.

    A plan achieving all the atoms also achieves the state at most max d
    later through inertia, so that slack is subtracted (clamped at zero)
    before the value may enter the heuristic table.
    """
    if not s.in_progress:
        return s.goals, found_cost
    max_d = max(d for _, d in s.in_progress)
    return relaxed_atoms(s), max(found_cost - max_d, 0)


def right_shift_forbids(problem: Problem, pred: TempState | None, cur: TempState,
                        a: GroundAction) -> bool:
    """True iff a must not establish anything at cur: every atom of cur.E
    that a adds was carried from the predecessor by a no-op, so a could have
    been scheduled later, ending at the predecessor's time point instead.

    The cut is only sound when that later scheduling is actually available:
    a must not delete any of the predecessor's goals, and must be compatible
    with its in-progress actions and with the establishers chosen there."""
    if pred is None:
        return False
    added = a.add & cur.goals
    if not added or not added <= cur.noop_carried:
        return False
    if a.delete & pred.goals:
        return False
    there = 0
    for b, _ in pred.in_progress:
        there |= 1 << b.index
    for c in cur.pred_chosen:
        there |= 1 << c.index
    return not problem.conflict_masks[a.index] & there


@dataclass(frozen=True)
class TempEdge:
    state: TempState
    delta: int  # time advance in units of 1/scale
    actions: tuple[GroundAction, ...]  # real actions chosen at this point


def successors_temporal(
    problem: Problem,
    s: TempState,
    pred: TempState | None = None,
    use_right_shift: bool = False,
) -> tuple[list[TempEdge], int]:
    """All successor states, advancing time to the next action start.

    Each atom of E gets an establisher: a real action adding it, or a no-op.
    Chosen actions must be pairwise compatible, compatible with everything in
    F, and nothing (chosen or in F) may delete a no-op'd atom.  Returns the
    edge list and the number of (atom, adder) pairs removed by the
    right-shift rule (0 unless use_right_shift).

    Order contract: the edges are those of the product of the establisher
    choices per goal atom (atoms in id order; the no-op first, then the
    adders in action index order), in product order, each signature (chosen
    actions, no-op'd atoms) at its first occurrence.  IDA* sorts edges
    stably, so this order decides its expansions.

    The choices are made atom by atom over the problem's conflict and delete
    masks, and a partial choice is cut as soon as it conflicts with F, with
    the actions chosen so far or with the no-op'd atoms.  Partial choices
    with the same signature have the same completions, so only the first of
    them in product order is kept; every completion of the others repeats a
    signature that occurred earlier.
    """
    conflict = problem.conflict_masks
    deletes = problem.delete_masks
    f_mask = f_del = 0
    for a, _ in s.in_progress:
        f_mask |= 1 << a.index
        f_del |= deletes[a.index]
    cut_count = 0

    # Partial choices in product order: (chosen actions, no-op'd atoms) as
    # bitmasks, mapped to the atoms the chosen actions delete.
    goal_ids = sorted(s.goals)
    frontier = {(0, 0): 0}
    for p in goal_ids:
        cands = []
        for a in problem.adders[p]:
            if use_right_shift and right_shift_forbids(problem, pred, s, a):
                cut_count += 1
            elif not conflict[a.index] & f_mask:
                cands.append((1 << a.index, conflict[a.index], deletes[a.index]))
        bit = 1 << p
        noop_ok = not f_del & bit
        extended = {}
        for (chosen, noops), dels in frontier.items():
            if noop_ok and not dels & bit:
                extended.setdefault((chosen, noops | bit), dels)
            for abit, aconflict, adel in cands:
                if chosen & abit:
                    # Chosen already, and tested then; an action that deletes
                    # its own precondition has its own conflict bit set.
                    extended.setdefault((chosen, noops), dels)
                elif not (aconflict & chosen or adel & noops):
                    extended.setdefault((chosen | abit, noops), dels | adel)
        frontier = extended

    actions = problem.actions
    dur = problem.dur_units
    in_progress = s.in_progress
    edges: list[TempEdge] = []
    for chosen, noops in frontier:
        if not chosen and not in_progress:
            continue  # pure stutter
        picked = []
        while chosen:
            low = chosen & -chosen
            picked.append(actions[low.bit_length() - 1])
            chosen ^= low
        acts = tuple(picked)
        noop_set = frozenset(p for p in goal_ids if noops >> p & 1)

        # Offsets: F plus the durations of chosen positive-duration actions;
        # a zero-duration action needs its preconditions at once.
        offsets = list(in_progress)
        released: AtomSet = EMPTY
        for a in acts:
            if dur[a] > 0:
                offsets.append((a, dur[a]))
            else:
                released = released | a.pre
        if not offsets:
            advance = 0
            new_f: tuple[FEntry, ...] = ()
        else:
            advance = min(d for _, d in offsets)
            remaining = []
            for a, d in offsets:
                if d == advance:
                    released = released | a.pre
                else:
                    remaining.append((a, d - advance))
            new_f = tuple(sorted(remaining, key=lambda e: (e[0].index, e[1])))
        new_e = noop_set | released
        # An atom counts as no-op-carried only if persistence is its sole
        # reason for being a goal; atoms also required as preconditions stay
        # required no matter how the carried copy came about.
        state = TempState(new_e, new_f, noop_carried=noop_set - released,
                          pred_chosen=acts)
        edges.append(TempEdge(state, advance, acts))
    return edges, cut_count


class TemporalSpace:
    """Search-space interface over temporal regression (also covers parallel
    planning, where every duration is 1)."""

    def __init__(self, problem: Problem):
        self.problem = problem

    def root(self) -> TempState:
        return TempState(self.problem.goal)

    def is_final(self, s: TempState) -> bool:
        return final_temporal(s, self.problem.init)

    def successors(self, s: TempState, pred: TempState | None = None,
                   right_shift: bool = False):
        return successors_temporal(self.problem, s, pred, right_shift)

    def estimate(self, table: HeuristicTable, s: TempState) -> Units:
        best = 0
        for comp, offset in relax_state(s):
            v = offset + table.eval(comp)
            if v > best:
                best = v
        return best

    def evaluate(self, table: HeuristicTable, s: TempState) -> Cost:
        return self.problem.to_cost(self.estimate(table, s))

    def atoms_of(self, s: TempState) -> AtomSet:
        return relaxed_atoms(s)

    def from_atoms(self, atoms: AtomSet) -> TempState:
        return TempState(atoms)

    def store_value(self, table: HeuristicTable, s: TempState, cost: Units) -> None:
        atoms, value = storage_value(s, cost)
        table.store(atoms, value)
