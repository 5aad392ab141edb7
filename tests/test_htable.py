import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import MIXED_DURS, gbf_sweep, mask, random_problem
from hmplan.hm import compute_base_heuristic
from hmplan.htable import _MEMO_CAP, HeuristicTable
from hmplan.model import INF, ZERO, Atom, GroundAction, Mode, Problem

sets = st.frozensets(st.integers(0, 7), max_size=5)
# Values are whole units of 1/scale, or INF.
values = st.one_of(st.integers(min_value=0, max_value=300), st.just(INF))


class TestStoreEval:
    def test_empty_table_evals_zero(self):
        t = HeuristicTable()
        assert t.eval(mask({1, 2})) == ZERO

    def test_exact_hit(self):
        t = HeuristicTable()
        t.store(mask({1, 3}), 4)
        assert t.eval(mask({1, 3})) == 4

    def test_subset_maximization(self):
        # [DERIVED: hand-built table]
        t = HeuristicTable()
        t.store(mask({1}), 2)
        t.store(mask({2, 3}), 5)
        t.store(mask({4}), 7)
        assert t.eval(mask({1, 2, 3})) == 5
        assert t.eval(mask({1, 2})) == 2
        assert t.eval(mask({2, 3, 4})) == 7

    def test_superset_not_used(self):
        t = HeuristicTable()
        t.store(mask({1, 2}), 9)
        assert t.eval(mask({1})) == ZERO

    def test_infinity_marks_mutex(self):
        t = HeuristicTable()
        t.store(mask({0, 1}), INF)
        assert t.eval(mask({0, 1, 5})) == INF
        assert t.eval(mask({0, 5})) == ZERO

    def test_monotone_store(self):
        t = HeuristicTable()
        s = mask({2})
        t.store(s, 5)
        t.store(s, 3)
        assert t.eval(s) == 5
        t.store(s, 8)
        assert t.eval(s) == 8


class TestAgainstDictOracle:
    @given(st.lists(st.tuples(sets, values), max_size=25), sets)
    def test_eval_matches_bruteforce(self, stores, query):
        t = HeuristicTable()
        oracle: dict[frozenset, object] = {}
        for s, v in stores:
            t.store(mask(s), v)
            if v > oracle.get(s, ZERO):
                oracle[s] = v
        expected = ZERO
        for s, v in oracle.items():
            if s <= query and v > expected:
                expected = v
        assert t.eval(mask(query)) == expected

    @given(st.lists(st.tuples(sets, values), min_size=1, max_size=25))
    def test_eval_monotone_in_query(self, stores):
        t = HeuristicTable()
        for s, v in stores:
            t.store(mask(s), v)
        small = mask({0, 1, 2})
        large = mask({0, 1, 2, 3, 4})
        assert t.eval(small) <= t.eval(large)

    @given(st.data())
    def test_interleaved_stores_and_evals(self, data):
        # eval answers from a memo: a store between two evals of one set
        # must show in the second.  Queries come from a small pool, so the
        # same set is asked again and again.
        pool = data.draw(st.lists(sets, min_size=1, max_size=4))
        store = st.tuples(st.one_of(sets, st.sampled_from(pool)), values)
        ops = data.draw(st.lists(st.one_of(store, st.sampled_from(pool)), max_size=40))
        t = HeuristicTable()
        oracle: dict[frozenset, object] = {}
        for op in ops:
            if type(op) is tuple:
                s, v = op
                t.store(mask(s), v)
                if v > oracle.get(s, ZERO):
                    oracle[s] = v
            else:
                expected = max((v for s, v in oracle.items() if s <= op), default=ZERO)
                assert t.eval(mask(op)) == expected


    # Ids on both sides of the 64-bit word boundaries, so masks run over
    # several machine words; sets of three and more go to the trie.
    wide = st.frozensets(st.sampled_from([0, 1, 2, 62, 63, 64, 65, 127, 128, 200]), max_size=5)

    @given(st.lists(st.tuples(wide, values), max_size=25), st.lists(wide, max_size=10))
    def test_wide_masks_match_bruteforce(self, stores, queries):
        # Raising and dominated stores, each followed by every query.
        t = HeuristicTable()
        oracle: dict[frozenset, object] = {}
        for s, v in stores:
            t.store(mask(s), v)
            if v > oracle.get(s, ZERO):
                oracle[s] = v
            for q in queries:
                expected = max((w for s2, w in oracle.items() if s2 <= q), default=ZERO)
                assert t.eval(mask(q)) == expected


def levels_of(single: list, pairs: list) -> list:
    """Per atom p its masks by ascending level, as the GBF gives them, for
    the values single[p] of {p} and pairs[min(p, q)][max(p, q)] of {p, q}."""
    n = len(single)
    out = []
    for p in range(n):
        at: dict = {}
        for q in range(n):
            v = single[p] if q == p else pairs[min(p, q)][max(p, q)]
            at[v] = at.get(v, 0) | 1 << q
        mask, ups = 0, {}
        for v in sorted(w for w in at if w < INF):
            mask |= at[v]
            ups[v] = mask
        out.append(ups)
    return out


class TestLoad:
    """`load` fills a fresh table with the GBF's level lists, as `store`
    over every singleton and pair would."""

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
               st.lists(values, min_size=n, max_size=n),
               st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))))
    def test_load_matches_stores(self, dense):
        single, pairs = dense
        loaded, stored = HeuristicTable(), HeuristicTable()
        loaded.load(levels_of(single, pairs))
        for a, v in enumerate(single):
            stored.store(mask({a}), v)
            for b in range(a + 1, len(single)):
                stored.store(mask({a, b}), pairs[a][b])
        for k in range(4):
            for q in map(mask, combinations(range(8), k)):
                assert loaded.eval(q) == stored.eval(q)

    def test_load_into_a_used_table_raises(self):
        lists = levels_of([1, 2], [[INF, 3], [INF, INF]])
        t = HeuristicTable()
        t.store(mask({0, 1}), 0)  # raises nothing, so the table stays fresh
        t.load(lists)
        with pytest.raises(ValueError):
            t.load(lists)
        for s in (frozenset(), frozenset({5}), frozenset({1, 2}), frozenset({1, 2, 3})):
            used = HeuristicTable()
            used.store(mask(s), 4)
            with pytest.raises(ValueError):
                used.load(lists)


class TestGbfTableAgainstDictOracle:
    """A table the GBF loaded, then raised and queried in turn, against a
    dict of every stored set that starts from the reference sweep's values."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(0, 10**6), st.sampled_from([Mode.SEQUENTIAL, Mode.TEMPORAL]),
           st.data())
    def test_stores_and_evals(self, seed, mode, data):
        p = random_problem(random.Random(seed), max_atoms=6, max_actions=8, mode=mode,
                           durs=MIXED_DURS if mode is Mode.TEMPORAL else None)
        n = len(p.atoms)
        t = HeuristicTable(p.scale)
        compute_base_heuristic(p, t, 2)
        oracle = dict(gbf_sweep(p, 2))

        def expected(q):
            return max((v for s, v in oracle.items() if s <= q), default=0)

        # Atoms from n on are in no stored set until a store names them.
        small = st.frozensets(st.integers(0, n + 2), min_size=1, max_size=2)
        query = st.frozensets(st.integers(0, n + 2), max_size=4)
        # A store at the set's value plus a step, some at most it, or INF.
        store = st.tuples(small, st.one_of(st.integers(-3, 3), st.none()))
        for op in data.draw(st.lists(st.one_of(store, query), min_size=1, max_size=30)):
            if type(op) is tuple:
                s, step = op
                v = INF if step is None else max(0, expected(s) + step)
                t.store(mask(s), v)
                if v > oracle.get(s, 0):
                    oracle[s] = v
            else:
                assert t.eval(mask(op)) == expected(op)
        for k in range(4):
            for q in map(frozenset, combinations(range(n + 2), k)):
                assert t.eval(mask(q)) == expected(q)
        # Each list ascends, and each of its levels adds to the one below.
        for ups in t._levels.values():
            assert all(v < w and not mask & ~up and mask != up
                       for (v, mask), (w, up) in zip(ups, ups[1:]))


class TestMemo:
    def test_only_a_raise_clears(self):
        t = HeuristicTable()
        q = mask({0, 1, 9})
        t.store(mask({0}), 4)
        assert t.eval(q) == 4 and q in t._memo
        t.store(mask({0}), 2)  # raises nothing
        assert q in t._memo
        t.store(mask({30}), 1)  # grows the lists, and raises {30}
        assert not t._memo
        assert t.eval(q) == 4
        t.store(mask({1, 9}), 6)
        assert not t._memo and t.eval(q) == 6

    def test_dominated_store_keeps_the_memo(self, monkeypatch):
        # {0, 1} at 3 is below what {0} gives it: the store changes no eval,
        # so it leaves the memo, and it asks no public eval for the value.
        t = HeuristicTable()
        q = mask({0, 1, 2})
        t.store(mask({0}), 5)
        t.store(mask({1, 2, 3}), 7)
        assert t.eval(q) == 5 and q in t._memo
        asked = []
        monkeypatch.setattr(HeuristicTable, "eval", lambda self, s: asked.append(s))
        for s, v in [({0, 1}, 3), ({0, 1}, 5), ({0, 2, 4}, 4), ({0, 1, 2, 3}, 7),
                     ({1, 2, 3}, 6)]:
            t.store(mask(s), v)
            assert q in t._memo
        assert not asked
        t.store(mask({0, 1}), 6)
        assert not t._memo
        monkeypatch.undo()
        assert t.eval(q) == 6 and t.eval(mask({0, 1, 2, 3})) == 7

    def test_memo_never_exceeds_cap(self):
        t = HeuristicTable()
        t.store(mask({0}), 3)
        for a in range(1, _MEMO_CAP + 10):
            assert t.eval(mask({0, a})) == 3
            assert len(t._memo) <= _MEMO_CAP



def is_units(x) -> bool:
    """A table value at the interface: an int or INF, never a Fraction."""
    return x is INF or type(x) is int


def sixths_problem() -> Problem:
    """Costs and durations in halves and thirds: the problem counts sixths."""
    atoms = [Atom(0, "p"), Atom(1, "q")]
    acts = [GroundAction(0, "a", frozenset(), frozenset({0}), frozenset(),
                         Fraction(1, 2), Fraction(4, 3)),
            GroundAction(1, "b", frozenset({0}), frozenset({1}), frozenset(),
                         Fraction(5, 3), Fraction(0))]
    return Problem(atoms, acts, frozenset(), frozenset({1}))


thirds_sixths = st.one_of(
    st.builds(Fraction, st.integers(0, 60), st.sampled_from([1, 2, 3, 6])),
    st.just(INF),
)


class TestIntegerUnits:
    def test_values_are_units(self):
        t = HeuristicTable()
        t.store(mask({0, 1}), 3)
        t.store(mask({2}), INF)
        for q in (mask(()), mask({0}), mask({0, 1}), mask({0, 1, 2})):
            assert is_units(t.eval(q))
        assert t.eval(mask({0, 1})) == 3
        assert t.eval(mask({2})) is INF

    def test_unlike_denominators_convert_at_load(self):
        # [DERIVED: halves and thirds give scale 6; a costs 3 and lasts 8
        # sixths, b costs 10 and lasts 0]
        p = sixths_problem()
        a, b = p.actions
        assert p.scale == 6
        assert (p.cost_units[a], p.dur_units[a]) == (3, 8)
        assert (p.cost_units[b], p.dur_units[b]) == (10, 0)
        assert all(is_units(v) for v in (*p.cost_units.values(), *p.dur_units.values()))
        # The values 1/2, 7/3, 5/6, 4 and 17/6 enter a table of sixths as
        # units and come back out as the same Fractions.
        t = HeuristicTable(p.scale)
        t.store(mask({0}), p.to_units(Fraction(1, 2)))
        t.store(mask({1, 2}), p.to_units(Fraction(7, 3)))
        t.store(mask({1, 2, 3}), p.to_units(Fraction(5, 6)))
        t.store(mask({1, 2, 3}), p.to_units(Fraction(17, 6)))
        assert t.eval(mask({0})) == 3
        assert t.eval(mask({1, 2})) == 14
        assert t.eval(mask({1, 2, 3})) == 17
        t.store(mask({3}), p.to_units(Fraction(4)))
        assert t.eval(mask({0, 1, 2})) == 14
        assert t.eval(mask({0, 1, 2, 3})) == 24
        for q, cost in [((), 0), ((0,), Fraction(1, 2)), ((1,), 0), ((1, 2), Fraction(7, 3)),
                        ((3,), 4), ((0, 1, 2, 3), 4)]:
            got = p.to_cost(t.eval(mask(q)))
            assert got == cost and type(got) is Fraction
        assert p.to_cost(INF) is INF and p.to_units(INF) is INF

    def test_query_atoms_beyond_stored_ids(self):
        t = HeuristicTable(2)
        t.store(mask({1, 2}), 5)
        t.store(mask({0, 1, 2}), 6)
        assert t.eval(mask({1, 2, 40})) == 5
        assert t.eval(mask({0, 1, 2, 9, 1000})) == 6
        assert t.eval(mask({7, 8})) == 0
        assert is_units(t.eval(mask({7, 8})))
        assert t.eval(mask({1, 40})) == 0
        assert t.eval(mask({50})) == 0
        assert HeuristicTable().eval(mask({3})) == 0

    @given(st.lists(st.tuples(sets, thirds_sixths), max_size=25),
           st.frozensets(st.integers(0, 12), max_size=7))
    def test_mixed_denominators_match_dict_oracle(self, stores, query):
        # Values in thirds and sixths, converted on the way in and out.
        p = sixths_problem()
        t = HeuristicTable(p.scale)
        oracle: dict[frozenset, object] = {}
        for s, v in stores:
            t.store(mask(s), p.to_units(v))
            if v > oracle.get(s, ZERO):
                oracle[s] = v
            got = t.eval(mask(query))
            expected = max((w for s2, w in oracle.items() if s2 <= query), default=ZERO)
            assert p.to_cost(got) == expected and is_units(got)
        for s in oracle:
            got = t.eval(mask(s))
            expected = max(w for s2, w in oracle.items() if s2 <= s)
            assert p.to_cost(got) == expected and is_units(got)
