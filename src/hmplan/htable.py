"""Map from atom sets to exact lower bounds, held as integers.

Keys are atom sets viewed as strings of ascending atom ids.  Stored values
never decrease: `store` raises the value of one set, and `eval` takes the
max over the stored subsets of a set.  This table is the shared store for
complete h^m values and for improvements discovered by relaxed search; it is
not a transposition table for full search states.

Every value is a whole number of 1/scale of the problem the table serves
(`Problem.scale`, given to the constructor) or INF, a float that compares
with ints natively: `store` takes such units and `eval` returns them.
Conversion to a Fraction happens outside, at the search spaces' `evaluate`.

Sets of size <= 2, the whole of a complete h^1 or h^2 table, live in dense
lists sized to the largest atom id stored: a singleton vector and, per atom
a, a row holding the pairs {a, b} with b > a, where _ABSENT marks a set never
stored.  `load` raises them all in one call, and evaluation takes its max
over them, both with C-level max/map calls.
Larger sets, which only relaxed search and h^m for m >= 3 store, live in a
trie keyed by the whole id string, consulted only once one exists.

The searches ask for the same sets again and again, so `eval` keeps a memo
from set to result.  A `store` that raises a value clears it, and so does
reaching _MEMO_CAP entries; a store that raises nothing, or a growth that
adds only _ABSENT slots, leaves it.
"""

from __future__ import annotations

from bisect import bisect_left

from .model import AtomSet, Units

# Marks a set never stored; below every stored value, which is at least 0.
_ABSENT = -1

# Entries the eval memo holds before it starts afresh.
_MEMO_CAP = 1 << 16


def dense_max(single: list, pairs: list, ids: list[int]):
    """Max of single[a] and pairs[a][b] over the atoms a < b of the sorted,
    nonempty ids; a pair row may be None when it holds nothing."""
    best = max(map(single.__getitem__, ids))
    for k in range(len(ids) - 1):
        row = pairs[ids[k]]
        if row is not None:
            v = max(map(row.__getitem__, ids[k + 1:]))
            if v > best:
                best = v
    return best


def _raise_slots(box: list, start: int, values: list) -> bool:
    """Raise box[start + k] to values[k] where that is more; whether any rose."""
    end = start + len(values)
    old = box[start:end]
    new = list(map(max, old, values))
    if new == old:
        return False
    box[start:end] = new
    return True


class HeuristicTable:
    def __init__(self, scale: int = 1) -> None:
        self.scale = scale  # the values count units of 1/scale
        self._empty = [_ABSENT]  # the value of the empty set, boxed
        self._single: list = []  # atom a -> value of {a}
        self._pairs: list[list | None] = []  # atom a -> row b -> value of {a, b}
        # Trie of the sets of size >= 3: atom -> [value, children], where
        # entries that only route to larger sets keep _ABSENT.
        self._big: dict[int, list] = {}
        self._memo: dict[AtomSet, Units] = {}  # set -> eval(set) since the last raise

    def _grow(self, n: int) -> None:
        extra = [_ABSENT] * (n - len(self._single))
        self._single.extend(extra)
        for row in self._pairs:
            if row is not None:
                row.extend(extra)
        self._pairs.extend([None] * len(extra))

    def store(self, s: AtomSet, v: Units) -> None:
        """Set T(s) to max(T(s), v)."""
        ids = sorted(s)
        if ids and ids[-1] >= len(self._single):
            self._grow(ids[-1] + 1)
        # box[key] is the slot of s; a trie entry holds its value at 0.
        box, key = self._empty, 0
        if len(ids) == 1:
            box, key = self._single, ids[0]
        elif len(ids) == 2:
            box, key = self._pairs[ids[0]], ids[1]
            if box is None:
                box = self._pairs[ids[0]] = [_ABSENT] * len(self._single)
        elif ids:
            children = self._big
            for atom in ids:
                box = children.setdefault(atom, [_ABSENT, {}])
                children = box[1]
        if v > box[key]:
            box[key] = v
            self._memo.clear()

    def load(self, single: list, pairs: list) -> None:
        """`store` every {a} at single[a] and every {a, b}, a < b, at
        pairs[a][b], in one call: a complete h^1 or h^2 table comes in so."""
        n = len(single)
        if n > len(self._single):
            self._grow(n)
        raised = _raise_slots(self._single, 0, single)
        for a, values in enumerate(pairs[:n - 1]):
            row = self._pairs[a]
            if row is None:
                row = self._pairs[a] = [_ABSENT] * len(self._single)
            raised |= _raise_slots(row, a + 1, values[a + 1:n])
        if raised:
            self._memo.clear()

    def eval(self, s: AtomSet) -> Units:
        """Max value over all stored subsets of s; 0 if none are stored."""
        best = self._memo.get(s)
        if best is not None:
            return best
        ids = sorted(s)
        single = self._single
        if ids and ids[-1] >= len(single):
            # Atoms beyond the largest stored id are in no stored set.
            ids = ids[:bisect_left(ids, len(single))]
        best = self._empty[0]
        if ids:
            v = dense_max(single, self._pairs, ids)
            if v > best:
                best = v
            if self._big and len(ids) >= 3:
                v = self._eval_big(ids)
                if v > best:
                    best = v
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
        self._memo[s] = best = max(best, 0)
        return best

    def _eval_big(self, ids: list[int]):
        """Max over the trie's sets that are subsets of the sorted ids."""
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
