"""Temporal regression: states (E, F), compatibility, time-advance successors,
right-shift cuts, the relaxed view used for evaluation, and the storage rule
for states that still carry in-progress actions.

A state is the pair (E, F) and nothing more: the subgoal atoms E needed at
the current time point and the set F of actions already chosen that span
that point; each entry (a, d) in F started d time units before the current
point, with 0 < d < dur(a).  How a state was reached lives on the edge: the
right-shift rule reads the edge the search came by (the state it left, the
actions chosen there and the atoms carried by no-ops).

All times here (the offsets d, edge deltas, component offsets and stored
values) are integers counting the problem's units of 1/scale, taken from
`Problem.dur_units`.  Only `TemporalSpace.evaluate` turns a value into a
Fraction.
"""

from __future__ import annotations

from typing import NamedTuple

from .htable import HeuristicTable
from .model import EMPTY, AtomSet, Cost, GroundAction, Problem, Units

FEntry = tuple[GroundAction, int]  # (action, units since its start)


class TempState(NamedTuple):
    goals: AtomSet
    in_progress: tuple[FEntry, ...] = ()


class TempEdge(NamedTuple):
    state: TempState
    delta: int  # time advance in units of 1/scale
    actions: tuple[GroundAction, ...]  # real actions chosen at the source
    carried: AtomSet  # atoms of state.goals carried only by no-ops
    source: TempState  # the state the edge leaves


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


def forbidden_mask(problem: Problem, via: TempEdge | None) -> int:
    """The set F of actions the right-shift rule forbids at via.state, as a
    bitmask over action indices (0 at the root).  An action a is forbidden
    iff every atom of via.state's E that it adds was carried from via.source
    by a no-op, so a could have been scheduled later, ending at the source's
    time point instead.  That later scheduling must be available: a must not
    delete any of the source's goals, and must be compatible with its
    in-progress actions and with the establishers chosen there.  Only the
    adders of via.carried are tested.  Below via.state the search depends on
    `via` only through F."""
    if via is None or not via.carried:
        return 0
    goals, carried, source_goals = via.state.goals, via.carried, via.source.goals
    conflict = problem.conflict_masks
    there = 0
    for b, _ in via.source.in_progress:
        there |= 1 << b.index
    for c in via.actions:
        there |= 1 << c.index
    mask = 0
    for p in carried:
        for a in problem.adders[p]:
            if ((a.add & goals) <= carried and not a.delete & source_goals
                    and not conflict[a.index] & there):
                mask |= 1 << a.index
    return mask


def _atoms(mask: int) -> AtomSet:
    """The atom set of a bitmask over atom ids."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(ids)


def successors_temporal(problem: Problem, s: TempState,
                        forbidden: int = 0) -> tuple[list[TempEdge], int]:
    """All successor states, advancing time to the next action start.

    Each atom of E gets an establisher: a real action adding it, or a no-op.
    Chosen actions must be pairwise compatible, compatible with everything in
    F, and nothing (chosen or in F) may delete a no-op'd atom.  No action in
    the bitmask `forbidden` (the right-shift set of `forbidden_mask`) is
    chosen.  Returns the edge list and the number of (atom, adder) pairs so
    removed.

    Order contract: the edges are those of the product of the establisher
    choices per goal atom (atoms in id order; the no-op first, then the
    adders in action index order), in product order, each signature (chosen
    actions, no-op'd atoms) at its first occurrence.  IDAO* takes the edges
    in this order and IDA* sorts them stably by f alone, so this order
    decides the expansions of both searches.

    The choices are made atom by atom over the problem's conflict and delete
    masks, and a partial choice is cut as soon as it conflicts with F, with
    the actions chosen so far or with the no-op'd atoms.  Partial choices
    with the same signature have the same completions, so only the first of
    them in product order is kept; every completion of the others repeats a
    signature that occurred earlier.

    Many signatures share their chosen actions, and many edges lead to equal
    states, so the edges are built from per-call memos: each distinct set of
    chosen actions is decoded once into its actions, time advance, released
    atoms and new F, and equal child states and equal carried sets are one
    shared object each.
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
    frontier = {(0, 0): 0}
    for p in sorted(s.goals):
        cands = []
        for a in problem.adders[p]:
            if forbidden >> a.index & 1:
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

    in_progress = s.in_progress
    # Per-call memos, by bitmask: the decoding of each set of chosen actions,
    # the atom set of each set of no-op'd atoms, one child state per goal
    # mask under each new F, and one carried set per atom mask.
    decoded: dict[int, tuple] = {}
    noop_sets: dict[int, AtomSet] = {}
    by_f: dict[tuple[FEntry, ...], dict[int, TempState]] = {}
    carried_sets: dict[int, AtomSet] = {}
    make = tuple.__new__
    edges: list[TempEdge] = []
    for chosen, noops in frontier:
        if not chosen and not in_progress:
            continue  # pure stutter
        d = decoded.get(chosen)
        if d is None:
            d = decoded[chosen] = _decode(problem, in_progress, chosen, by_f)
        acts, advance, released, released_mask, states, new_f = d
        goals = noops | released_mask
        # An atom counts as no-op-carried only if persistence is its sole
        # reason for being a goal; atoms also required as preconditions stay
        # required no matter how the carried copy came about.
        kept = noops & ~released_mask
        state = states.get(goals)
        carried = carried_sets.get(kept)
        if state is None or carried is None:
            noop_set = noop_sets.get(noops)
            if noop_set is None:
                noop_set = noop_sets[noops] = _atoms(noops)
            if state is None:
                state = states[goals] = make(TempState, (noop_set | released, new_f))
            if carried is None:
                carried = carried_sets[kept] = noop_set - released
        edges.append(make(TempEdge, (state, advance, acts, carried, s)))
    return edges, cut_count


def _decode(problem: Problem, in_progress: tuple[FEntry, ...], chosen: int,
            by_f: dict) -> tuple:
    """(actions, advance, released atoms as a set and as a mask, the child
    states of the new F by goal mask, new F) of the actions in the bitmask
    `chosen`, started at the current point on top of F."""
    actions = problem.actions
    dur = problem.dur_units
    pre = problem.pre_masks
    acts = []
    # Offsets: F plus the durations of chosen positive-duration actions; a
    # zero-duration action needs its preconditions at once.
    offsets = list(in_progress)
    released: AtomSet = EMPTY
    released_mask = 0
    while chosen:
        low = chosen & -chosen
        i = low.bit_length() - 1
        a = actions[i]
        acts.append(a)
        chosen ^= low
        d = dur[a]
        if d:
            offsets.append((a, d))
        else:
            released |= a.pre
            released_mask |= pre[i]
    advance = min([d for _, d in offsets]) if offsets else 0
    remaining = []
    for a, d in offsets:
        if d == advance:
            released |= a.pre
            released_mask |= pre[a.index]
        else:
            remaining.append((a, d - advance))
    # The chosen actions come in index order; only F's entries need merging.
    if in_progress and len(remaining) > 1:
        remaining.sort(key=lambda e: (e[0].index, e[1]))
    new_f = tuple(remaining)
    states = by_f.get(new_f)
    if states is None:
        states = by_f[new_f] = {}
    return tuple(acts), advance, released, released_mask, states, new_f


class TemporalSpace:
    """Search-space interface over temporal regression (also covers parallel
    planning, where every duration is 1); right shift forbids actions only
    in a space built with `right_shift` set."""

    def __init__(self, problem: Problem, right_shift: bool = False):
        self.problem = problem
        self.right_shift = right_shift

    def root(self) -> TempState:
        return TempState(self.problem.goal)

    def is_final(self, s: TempState) -> bool:
        return final_temporal(s, self.problem.init)

    def successors(self, s: TempState, forbidden: int = 0):
        return successors_temporal(self.problem, s, forbidden)

    def forbidden(self, via: TempEdge | None) -> int:
        return forbidden_mask(self.problem, via) if self.right_shift else 0

    def estimate(self, table: HeuristicTable, s: TempState) -> Units:
        if not s.in_progress:
            return table.eval(s.goals)
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
