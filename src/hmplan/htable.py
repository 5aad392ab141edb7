"""Map from atom sets to exact lower bounds, held as integers.

Keys are atom sets viewed as strings of ascending atom ids.  Whenever a set
is stored, all of its lexical prefixes are stored too (with value 0 where no
better value exists).  Stored values never decrease.  This table is the
shared store for complete h^m values and for improvements discovered by
relaxed search; it is not a transposition table for full search states.

`store` takes and `eval`/`lookup_exact` return a Fraction or INF; inside,
every finite value is an integer count of 1/scale, where scale is the least
common multiple of the denominators stored so far.  A value with a new
denominator multiplies the stored integers once by the missing factor, so
unit-cost problems never rescale.  INF stays a float, which compares with
ints natively.

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
from fractions import Fraction
from math import gcd

from .model import INF, ZERO, AtomSet, Cost

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
    def __init__(self) -> None:
        self._scale = 1
        self._empty = [_ABSENT]  # the value of the empty set, boxed
        self._single: list = []  # atom a -> value of {a}
        self._pairs: list[list | None] = []  # atom a -> row b -> value of {a, b}
        # Trie of the sets of size >= 3: atom -> [value, children].  Entries
        # at depth 1 and 2 only route to larger sets and keep _ABSENT.
        self._big: dict[int, list] = {}
        self._reset_costs()

    def _reset_costs(self) -> None:
        # Integer value -> the Fraction handed out for it, shared by calls.
        self._costs = {_ABSENT: ZERO, 0: ZERO, INF: INF}

    def _cost(self, v) -> Cost:
        c = self._costs.get(v)
        if c is None:
            c = self._costs[v] = Fraction(v, self._scale)
        return c

    def _units(self, value: Cost):
        if value == INF:
            return INF
        d = value.denominator
        if self._scale % d:
            self._rescale(d // gcd(self._scale, d))
        return value.numerator * (self._scale // d)

    def _rescale(self, factor: int) -> None:
        def scaled(values: list) -> list:
            return [v * factor if v > 0 else v for v in values]

        self._scale *= factor
        self._empty[:] = scaled(self._empty)
        self._single[:] = scaled(self._single)
        for row in self._pairs:
            if row is not None:
                row[:] = scaled(row)
        stack = [self._big]
        while stack:
            for entry in stack.pop().values():
                if entry[0] > 0:
                    entry[0] *= factor
                stack.append(entry[1])
        self._reset_costs()

    def _grow(self, n: int) -> None:
        extra = [_ABSENT] * (n - len(self._single))
        self._single.extend(extra)
        for row in self._pairs:
            if row is not None:
                row.extend(extra)
        self._pairs.extend([None] * len(extra))

    def store(self, s: AtomSet, value: Cost) -> None:
        """Set T(s) to max(T(s), value), inserting missing prefixes at 0."""
        ids = sorted(s)
        v = self._units(value)
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

    def lookup_exact(self, s: AtomSet) -> Cost | None:
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
        return None if v < 0 else self._cost(v)

    def eval(self, s: AtomSet) -> Cost:
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
        return self._cost(best)

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

    def items(self) -> Iterator[tuple[tuple[int, ...], Cost]]:
        """Stored (set, value) pairs in lexical order of the id strings."""
        found: list[tuple[tuple[int, ...], object]] = []
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
        for key, v in found:
            yield key, self._cost(v)
