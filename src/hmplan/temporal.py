"""Temporal regression: states (E, F), compatibility, time-advance successors,
right-shift cuts, the relaxed view used for evaluation, and the storage rule
for states that still carry in-progress actions.

A state is the pair (E, F) and nothing more: the subgoal atoms E needed at
the current time point, an int mask of atom ids as everywhere in the search
core, and the set F of actions already chosen that span that point; each
entry (a, d) in F started d time units before the current point, with
0 < d < dur(a).  How a state was reached lives on the edge: the
right-shift rule reads the edge the search came by (the state it left, the
actions chosen there and the mask of the atoms carried by no-ops).

All times here (the offsets d, edge deltas, component offsets and stored
values) are integers counting the problem's units of 1/scale, taken from
`Problem.dur_units`.  Only `TemporalSpace.evaluate` turns a value into a
Fraction.  A space built on the `Mutex` of the base table never generates a
child whose relaxed atoms hold a mutex.
"""

from __future__ import annotations

from typing import NamedTuple

from .htable import HeuristicTable
from .model import AtomMask, Cost, GroundAction, Problem, Units
from .mutex import Mutex, no_mutex

FEntry = tuple[GroundAction, int]  # (action, units since its start)


class TempState(NamedTuple):
    goals: AtomMask
    in_progress: tuple[FEntry, ...] = ()


class TempEdge(NamedTuple):
    state: TempState
    delta: int  # time advance in units of 1/scale
    actions: tuple[GroundAction, ...]  # real actions chosen at the source
    carried: AtomMask  # atoms of state.goals carried only by no-ops
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


def relaxed_atoms(problem: Problem, s: TempState) -> AtomMask:
    """E joined with the preconditions of every in-progress action."""
    atoms = s.goals
    pre = problem.pre_masks
    for a, _ in s.in_progress:
        atoms |= pre[a.index]
    return atoms


def relax_state(problem: Problem, s: TempState) -> list[tuple[AtomMask, int]]:
    """Relax (E, F) to plain atom-set components with time offsets.

    For each offset d in F the preconditions of all actions started at least
    d units back must hold jointly d units before the current point; dropping
    F entirely leaves E plus all preconditions at offset 0.  Components are
    returned in decreasing offset order.
    """
    if not s.in_progress:
        return [(s.goals, 0)]
    pre = problem.pre_masks
    out: list[tuple[AtomMask, int]] = []
    offsets = sorted({d for _, d in s.in_progress}, reverse=True)
    for dk in offsets:
        comp = 0
        for a, d in s.in_progress:
            if d >= dk:
                comp |= pre[a.index]
        out.append((comp, dk))
    out.append((relaxed_atoms(problem, s), 0))
    return out


def storage_value(problem: Problem, s: TempState, found_cost: Units) -> tuple[AtomMask, Units]:
    """Convert a bound for (E, F) into one for the plain atom set.

    A plan achieving all the atoms also achieves the state at most max d
    later through inertia, so that slack is subtracted (clamped at zero)
    before the value may enter the heuristic table.
    """
    if not s.in_progress:
        return s.goals, found_cost
    max_d = max(d for _, d in s.in_progress)
    return relaxed_atoms(problem, s), max(found_cost - max_d, 0)


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
    source_goals = via.source.goals
    # The goals not carried by a no-op: a forbidden action adds none of them.
    needed = via.state.goals & ~via.carried
    conflict, adds, deletes = problem.conflict_masks, problem.add_masks, problem.delete_masks
    there = 0
    for b, _ in via.source.in_progress:
        there |= 1 << b.index
    for c in via.actions:
        there |= 1 << c.index
    candidates = problem.adders_of(via.carried)
    mask = 0
    while candidates:
        low = candidates & -candidates
        candidates ^= low
        i = low.bit_length() - 1
        if not (adds[i] & needed or deletes[i] & source_goals or conflict[i] & there):
            mask |= low
    return mask


def successors_temporal(problem: Problem, s: TempState, forbidden: int = 0,
                        mutex: Mutex | None = None) -> tuple[list[TempEdge], int]:
    """All successor states, advancing time to the next action start.

    Each atom of E gets an establisher: a real action adding it, or a no-op.
    Chosen actions must be pairwise compatible, compatible with everything in
    F, and nothing (chosen or in F) may delete a no-op'd atom.  No action in
    the bitmask `forbidden` (the right-shift set of `forbidden_mask`) is
    chosen.  Returns the edge list and the number of (atom, adder) pairs so
    removed.  A child is dead when its relaxed atoms, the no-op'd atoms and
    the preconditions of the chosen actions and of F, hold one of the
    mutexes in `mutex`; no dead child is returned.  Without `mutex`, none
    is dead.

    Order contract: the edges are those of the product of the establisher
    choices per goal atom (atoms in id order; the no-op first, then the
    adders in action index order), in product order, each signature (chosen
    actions, no-op'd atoms) at its first occurrence, less the dead ones.
    IDAO* takes the edges in this order and IDA* sorts them stably by f
    alone, so this order decides the expansions of both searches.  A dead
    child's estimate is INF, which neither search ever expands or lets
    change a bound, so dropping it changes neither.

    The choices are made atom by atom over the problem's conflict and delete
    masks, and a partial choice is cut as soon as it conflicts with F, with
    the actions chosen so far or with the no-op'd atoms, or is dead: its
    atoms so far meet the union of their mutex masks.  Every completion of a
    dead choice is dead too, as its atoms only grow.  Partial choices with
    the same signature have the same completions, so only the first of them
    in product order is kept; every completion of the others repeats a
    signature that occurred earlier.

    Many signatures share their chosen actions, and many edges lead to equal
    states, so the edges are built from per-call memos: each distinct set of
    chosen actions is decoded once into its actions, time advance, released
    atoms and new F, and equal child states are one shared object.  This
    function keeps nothing between calls; the memo of whole answers by
    (state, F) lives in `TemporalSpace`.
    """
    conflict = problem.conflict_masks
    deletes = problem.delete_masks
    pre = problem.pre_masks
    if mutex is None:
        mutex = no_mutex(problem)
    atom_mutex, pre_mutex = mutex.atoms, mutex.pre
    f_mask = f_del = f_pre = f_near = 0
    for a, _ in s.in_progress:
        i = a.index
        f_mask |= 1 << i
        f_del |= deletes[i]
        f_pre |= pre[i]
        f_near |= pre_mutex[i]
    cut_count = 0

    # Partial choices in product order: (chosen actions, no-op'd atoms) as
    # bitmasks, mapped to the atoms no later choice may hold: those deleted by
    # F or by the chosen actions, and those mutex with the choice's atoms so
    # far.  The mutex relation is symmetric, so a new atom makes the choice
    # dead exactly when it is one of these or mutex with itself.
    frontier = {} if f_pre & f_near else {(0, 0): f_del | f_near}
    rest = s.goals
    while rest:
        bit = rest & -rest
        rest ^= bit
        p = bit.bit_length() - 1
        cands = []
        for a in problem.adders[p]:
            i = a.index
            if forbidden >> i & 1:
                cut_count += 1
            elif not conflict[i] & f_mask:
                near = pre_mutex[i]
                if near >= 0:
                    cands.append((1 << i, conflict[i], deletes[i], pre[i], deletes[i] | near))
        p_mutex = atom_mutex[p]
        noop_ok = not p_mutex & bit
        extended = {}
        for (chosen, noops), excl in frontier.items():
            if noop_ok and not excl & bit:
                extended.setdefault((chosen, noops | bit), excl | p_mutex)
            for abit, aconflict, adel, apre, aexcl in cands:
                if chosen & abit:
                    # Chosen already, and tested then; an action that deletes
                    # its own precondition has its own conflict bit set.
                    extended.setdefault((chosen, noops), excl)
                elif not (aconflict & chosen or adel & noops or apre & excl):
                    extended.setdefault((chosen | abit, noops), excl | aexcl)
        frontier = extended

    in_progress = s.in_progress
    # Per-call memos, by bitmask: the decoding of each set of chosen actions,
    # and one child state per goal mask under each new F.
    decoded: dict[int, tuple] = {}
    by_f: dict[tuple[FEntry, ...], dict[int, TempState]] = {}
    make = tuple.__new__
    edges: list[TempEdge] = []
    for chosen, noops in frontier:
        if not chosen and not in_progress:
            continue  # pure stutter
        d = decoded.get(chosen)
        if d is None:
            d = decoded[chosen] = _decode(problem, in_progress, chosen, by_f)
        acts, advance, released, states, new_f = d
        goals = noops | released
        state = states.get(goals)
        if state is None:
            state = states[goals] = make(TempState, (goals, new_f))
        # An atom counts as no-op-carried only if persistence is its sole
        # reason for being a goal; atoms also required as preconditions stay
        # required no matter how the carried copy came about.
        edges.append(make(TempEdge, (state, advance, acts, noops & ~released, s)))
    return edges, cut_count


def _decode(problem: Problem, in_progress: tuple[FEntry, ...], chosen: int,
            by_f: dict) -> tuple:
    """(actions, advance, the mask of the released atoms, the child states
    of the new F by goal mask, new F) of the actions in the bitmask
    `chosen`, started at the current point on top of F."""
    actions = problem.actions
    dur = problem.dur_units
    pre = problem.pre_masks
    acts = []
    # Offsets: F plus the durations of chosen positive-duration actions; a
    # zero-duration action needs its preconditions at once.
    offsets = list(in_progress)
    released = 0
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
            released |= pre[i]
    advance = min([d for _, d in offsets]) if offsets else 0
    remaining = []
    for a, d in offsets:
        if d == advance:
            released |= pre[a.index]
        else:
            remaining.append((a, d - advance))
    # The chosen actions come in index order; only F's entries need merging.
    if in_progress and len(remaining) > 1:
        remaining.sort(key=lambda e: (e[0].index, e[1]))
    new_f = tuple(remaining)
    states = by_f.get(new_f)
    if states is None:
        states = by_f[new_f] = {}
    return tuple(acts), advance, released, states, new_f


# Edges the successor memo of a TemporalSpace holds before it starts afresh.
_MEMO_CAP = 1 << 14


class TemporalSpace:
    """Search-space interface over temporal regression (also covers parallel
    planning, where every duration is 1); right shift forbids actions only
    in a space built with `right_shift` set.

    Built on the `mutex` of the complete h^m table, the space passes it to
    `successors_temporal`, so it never generates a dead child: such a
    child's estimate is INF under any table that rises from that one.

    IDA*'s iterations and IDAO*'s passes expand the same states again, so
    `successors` keeps a memo from (state, F) to the (edges, cuts) of
    `successors_temporal`, for the life of the space: the answer depends on
    the problem, the mutexes, the state and F alone.  Callers must not
    mutate the edge list.  The memo counts the edges it holds and clears on
    reaching _MEMO_CAP of them."""

    def __init__(self, problem: Problem, right_shift: bool = False,
                 mutex: Mutex | None = None):
        self.problem = problem
        self.right_shift = right_shift
        self.mutex = no_mutex(problem) if mutex is None else mutex
        self._memo: dict[tuple[TempState, int], tuple[list[TempEdge], int]] = {}
        self._memo_edges = 0

    def root(self) -> TempState:
        return TempState(self.problem.goal_mask)

    def is_final(self, s: TempState) -> bool:
        return not s.in_progress and not s.goals & ~self.problem.init_mask

    def successors(self, s: TempState, forbidden: int = 0):
        key = (s, forbidden)
        found = self._memo.get(key)
        if found is None:
            found = successors_temporal(self.problem, s, forbidden, self.mutex)
            if self._memo_edges >= _MEMO_CAP:
                self._memo.clear()
                self._memo_edges = 0
            self._memo[key] = found
            self._memo_edges += len(found[0])
        return found

    def forbidden(self, via: TempEdge | None) -> int:
        return forbidden_mask(self.problem, via) if self.right_shift else 0

    def estimate(self, table: HeuristicTable, s: TempState) -> Units:
        if not s.in_progress:
            return table.eval(s.goals)
        best = 0
        for comp, offset in relax_state(self.problem, s):
            v = offset + table.eval(comp)
            if v > best:
                best = v
        return best

    def evaluate(self, table: HeuristicTable, s: TempState) -> Cost:
        return self.problem.to_cost(self.estimate(table, s))

    def atoms_of(self, s: TempState) -> AtomMask:
        return relaxed_atoms(self.problem, s)

    def from_atoms(self, atoms: AtomMask) -> TempState:
        return TempState(atoms)

    def store_value(self, table: HeuristicTable, s: TempState, cost: Units) -> None:
        atoms, value = storage_value(self.problem, s, cost)
        table.store(atoms, value)
