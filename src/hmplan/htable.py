"""Map from atom sets to exact lower bounds, held as integers.

Keys are atom sets as int masks, bit p for atom p, as the search core holds
them everywhere.  Stored values never decrease: `store` raises the value
of one set, and `eval` takes the max over the stored subsets of a set.
This table is the shared store for complete h^m values and for improvements
discovered by relaxed search; it is not a transposition table for full
search states.

Every value is a whole number of 1/scale of the problem the table serves
(`Problem.scale`, given to the constructor) or INF, a float that compares
with ints natively: `store` takes such units and `eval` returns them.
Conversion to a Fraction happens outside, at the search spaces' `evaluate`.

Sets of size <= 2, the whole of a complete h^1 or h^2 table, are held as
Graphplan's levels (Blum and Furst, 1997): per atom p, an ascending list of
(v, mask), where the mask holds the q with T({p, q}) <= v, and p itself once
T({p}) <= v.  A set never stored counts 0, so a fresh atom's list is
[(0, -1)], -1 being the mask of every atom.  The value of s over its subsets
of size <= 2 is then the max over p in s of the least v whose mask covers s,
or INF if no level of some p covers it.  The GBF hands `load` the lists
whole; `store` raises one set by clearing its bit in the levels below the new
value.  The top level of each list gives the mutexes (`mutex.Mutex`).
Larger sets, which only relaxed search and h^m for m >= 3 store, live in a
trie keyed by the ascending id string, the set bits from the lowest up,
consulted only once one exists.

The searches ask for the same sets again and again, so `eval` keeps a memo
from mask to result.  A `store` that raises a value clears it, and so does
reaching _MEMO_CAP entries.  A store of at most the set's current value
would change no evaluation, now or later, as the table only rises: it
returns at once and leaves the levels, the trie and the memo as they are.
"""

from __future__ import annotations

from .model import INF, AtomMask, Units, ids_of

# Marks a trie entry that only routes to larger sets; below every stored value.
_ABSENT = -1

# Entries the eval memo holds before it starts afresh.
_MEMO_CAP = 1 << 16

# The levels of an atom in no stored set: every set holding it is worth 0.
_FRESH = [(0, -1)]


def _lift(levels: list, bit: int, v: Units) -> list:
    """The levels with the atom of the bit first covered at v, which is above
    the level that covers it now: its bit cleared below v, a level at v (the
    one below plus the bit) if there is none, and the levels that no longer
    differ from the one below dropped.  An atom lifted to INF is in no level."""
    kept, above = [], []
    for w, mask in levels:
        if w >= v:
            above.append((w, mask))
        elif not kept or kept[-1][1] != mask & ~bit:
            kept.append((w, mask & ~bit))
    if v < INF and (not above or above[0][0] > v):
        kept.append((v, kept[-1][1] | bit))
    return kept + above


class HeuristicTable:
    def __init__(self, scale: int = 1) -> None:
        self.scale = scale  # the values count units of 1/scale
        self._empty: Units = 0  # the value of the empty set
        self._levels: dict[int, list] = {}  # atom p -> its ascending (v, mask) levels
        # Trie of the sets of size >= 3: atom -> [value, children], where
        # entries that only route to larger sets keep _ABSENT.
        self._big: dict[int, list] = {}
        self._memo: dict[AtomMask, Units] = {}  # set -> eval(set) since the last raise

    def store(self, s: AtomMask, v: Units) -> None:
        """Set T(s) to max(T(s), v)."""
        if v <= self._value(s):
            return
        self._memo.clear()
        if s.bit_count() > 2:
            children = self._big
            for atom in ids_of(s):
                entry = children.setdefault(atom, [_ABSENT, {}])
                children = entry[1]
            entry[0] = v
        elif not s:
            self._empty = v
        else:
            levels = self._levels
            low = s & -s
            p, q = low.bit_length() - 1, s.bit_length() - 1
            levels[p] = _lift(levels.get(p, _FRESH), 1 << q, v)
            if q != p:
                levels[q] = _lift(levels.get(q, _FRESH), low, v)

    def load(self, levels: list[dict[Units, int]]) -> None:
        """Fill a fresh table's sets of size <= 2 over the atoms 0..n-1,
        n = len(levels), from their masks by ascending level, as the GBF
        gives them; the atoms from n on are in no stored set."""
        if self._levels or self._big or self._empty:
            raise ValueError("load fills a fresh table only")
        beyond = -(1 << len(levels))
        self._levels = {p: [(v, mask | beyond) for v, mask in ups.items()]
                        for p, ups in enumerate(levels)}

    def top(self, p: int) -> int:
        """The mask of p's highest finite level: the q whose {p, q} has a
        finite value, and p itself if {p} does."""
        ups = self._levels.get(p, _FRESH)
        return ups[-1][1] if ups else 0

    def eval(self, s: AtomMask) -> Units:
        """Max value over all stored subsets of s; 0 if none are stored."""
        best = self._memo.get(s)
        if best is not None:
            return best
        best = self._empty
        levels = self._levels
        rest = s
        while rest:
            low = rest & -rest
            rest ^= low
            ups = levels.get(low.bit_length() - 1)
            if ups is None:
                continue
            for v, mask in ups:
                if not s & ~mask:
                    break
            else:
                best = INF
                break
            if v > best:
                best = v
        if self._big and best < INF and s.bit_count() >= 3:
            v = self._eval_big(ids_of(s))
            if v > best:
                best = v
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
        self._memo[s] = best
        return best

    # `store` reads values by this name, so a wrapper of `eval` that counts
    # calls (bench/tracing.py) counts the searches' evaluations only.
    _value = eval

    def _eval_big(self, ids: list[int]):
        """Max over the trie's sets that are subsets of the ascending ids."""
        best = _ABSENT
        stack = [(self._big, 0)]
        while stack:
            children, i = stack.pop()
            for j in range(i, len(ids)):
                entry = children.get(ids[j])
                if entry is not None:
                    if entry[0] > best:
                        best = entry[0]
                    if entry[1]:
                        stack.append((entry[1], j + 1))
        return best
