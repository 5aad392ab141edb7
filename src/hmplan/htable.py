"""Map from atom sets to exact lower bounds, held as integers.

Keys are atom sets viewed as strings of ascending atom ids.  Whenever a set
is stored, all of its lexical prefixes are stored too (with value 0 where no
better value exists).  Stored values never decrease.  This table is the
shared store for complete h^m values and for improvements discovered by
relaxed search; it is not a transposition table for full search states.

Every value is a whole number of 1/scale of the problem the table serves
(`Problem.scale`, given to the constructor) or INF, a float that compares
with ints natively: `store` takes such units and `eval`/`lookup_exact`/
`items` return them.  Conversion to a Fraction happens outside, at the
search spaces' `evaluate`.

Sets of size <= 2, the whole of a complete h^1 or h^2 table, live in dense
lists sized to the largest atom id stored: a singleton vector and, per atom
a, a row holding the pairs {a, b} with b > a, where _ABSENT marks a set never
stored.  Evaluation takes its max over them with C-level max/map calls.
Larger sets, which only relaxed search and h^m for m >= 3 store, live in a
trie keyed by the whole id string, consulted only once one exists.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator

from .model import AtomSet, Units

# Marks a set never stored; below every stored value, which is at least 0.
_ABSENT = -1


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


class HeuristicTable:
    def __init__(self, scale: int = 1) -> None:
        self.scale = scale  # the values count units of 1/scale
        self._empty = [_ABSENT]  # the value of the empty set, boxed
        self._single: list = []  # atom a -> value of {a}
        self._pairs: list[list | None] = []  # atom a -> row b -> value of {a, b}
        # Trie of the sets of size >= 3: atom -> [value, children].  Entries
        # at depth 1 and 2 only route to larger sets and keep _ABSENT.
        self._big: dict[int, list] = {}

    def _grow(self, n: int) -> None:
        extra = [_ABSENT] * (n - len(self._single))
        self._single.extend(extra)
        for row in self._pairs:
            if row is not None:
                row.extend(extra)
        self._pairs.extend([None] * len(extra))

    def store(self, s: AtomSet, v: Units) -> None:
        """Set T(s) to max(T(s), v), inserting missing prefixes at 0."""
        ids = sorted(s)
        if ids and ids[-1] >= len(self._single):
            self._grow(ids[-1] + 1)
        # (box, key) walks down the prefixes of ids to the slot of s itself.
        box, key = self._empty, 0
        if box[key] < 0:
            box[key] = 0
        if len(ids) >= 1:
            box, key = self._single, ids[0]
            if box[key] < 0:
                box[key] = 0
        if len(ids) >= 2:
            row = self._pairs[ids[0]]
            if row is None:
                row = self._pairs[ids[0]] = [_ABSENT] * len(self._single)
            box, key = row, ids[1]
            if box[key] < 0:
                box[key] = 0
        if len(ids) >= 3:
            children = self._big
            for depth, atom in enumerate(ids):
                entry = children.get(atom)
                if entry is None:
                    entry = children[atom] = [_ABSENT, {}]
                if depth >= 2 and entry[0] < 0:
                    entry[0] = 0
                children = entry[1]
            box, key = entry, 0
        if v > box[key]:
            box[key] = v

    def lookup_exact(self, s: AtomSet) -> Units | None:
        ids = sorted(s)
        if ids and ids[-1] >= len(self._single):
            return None
        if not ids:
            v = self._empty[0]
        elif len(ids) == 1:
            v = self._single[ids[0]]
        elif len(ids) == 2:
            row = self._pairs[ids[0]]
            v = _ABSENT if row is None else row[ids[1]]
        else:
            children, v = self._big, _ABSENT
            for atom in ids:
                entry = children.get(atom)
                if entry is None:
                    return None
                v, children = entry
        return None if v < 0 else v

    def eval(self, s: AtomSet) -> Units:
        """Max value over all stored subsets of s; 0 if none are stored."""
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
        return best if best >= 0 else 0

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

    def items(self) -> Iterator[tuple[tuple[int, ...], Units]]:
        """Stored (set, value) pairs in lexical order of the id strings."""
        found: list[tuple[tuple[int, ...], Units]] = []
        if self._empty[0] >= 0:
            found.append(((), self._empty[0]))
        for a, v in enumerate(self._single):
            if v >= 0:
                found.append(((a,), v))
        for a, row in enumerate(self._pairs):
            if row is not None:
                found.extend(((a, b), v) for b, v in enumerate(row) if v >= 0)
        stack: list[tuple[dict, tuple[int, ...]]] = [(self._big, ())]
        while stack:
            children, prefix = stack.pop()
            for atom, (v, below) in children.items():
                key = prefix + (atom,)
                if len(key) >= 3:
                    found.append((key, v))
                stack.append((below, key))
        found.sort(key=lambda item: item[0])
        yield from found
