from fractions import Fraction
from itertools import combinations

from hypothesis import given, strategies as st

from hmplan.htable import _MEMO_CAP, HeuristicTable
from hmplan.model import INF, ZERO, Atom, GroundAction, Problem

sets = st.frozensets(st.integers(0, 7), max_size=5)
# Values are whole units of 1/scale, or INF.
values = st.one_of(st.integers(min_value=0, max_value=300), st.just(INF))


class TestStoreEval:
    def test_empty_table_evals_zero(self):
        t = HeuristicTable()
        assert t.eval(frozenset({1, 2})) == ZERO

    def test_exact_hit(self):
        t = HeuristicTable()
        t.store(frozenset({1, 3}), 4)
        assert t.eval(frozenset({1, 3})) == 4

    def test_subset_maximization(self):
        # [DERIVED: hand-built table]
        t = HeuristicTable()
        t.store(frozenset({1}), 2)
        t.store(frozenset({2, 3}), 5)
        t.store(frozenset({4}), 7)
        assert t.eval(frozenset({1, 2, 3})) == 5
        assert t.eval(frozenset({1, 2})) == 2
        assert t.eval(frozenset({2, 3, 4})) == 7

    def test_superset_not_used(self):
        t = HeuristicTable()
        t.store(frozenset({1, 2}), 9)
        assert t.eval(frozenset({1})) == ZERO

    def test_infinity_marks_mutex(self):
        t = HeuristicTable()
        t.store(frozenset({0, 1}), INF)
        assert t.eval(frozenset({0, 1, 5})) == INF
        assert t.eval(frozenset({0, 5})) == ZERO

    def test_monotone_store(self):
        t = HeuristicTable()
        s = frozenset({2})
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
            t.store(s, v)
            if v > oracle.get(s, ZERO):
                oracle[s] = v
        expected = ZERO
        for s, v in oracle.items():
            if s <= query and v > expected:
                expected = v
        assert t.eval(query) == expected

    @given(st.lists(st.tuples(sets, values), min_size=1, max_size=25))
    def test_eval_monotone_in_query(self, stores):
        t = HeuristicTable()
        for s, v in stores:
            t.store(s, v)
        small = frozenset({0, 1, 2})
        large = frozenset({0, 1, 2, 3, 4})
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
                t.store(s, v)
                if v > oracle.get(s, ZERO):
                    oracle[s] = v
            else:
                expected = max((v for s, v in oracle.items() if s <= op), default=ZERO)
                assert t.eval(op) == expected


class TestLoad:
    """`load` is `store` over every singleton and pair in one call."""

    @given(st.lists(st.tuples(sets, values), max_size=8),
           st.integers(1, 6).flatmap(lambda n: st.tuples(
               st.lists(values, min_size=n, max_size=n),
               st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))))
    def test_load_matches_stores(self, earlier, dense):
        single, pairs = dense
        loaded, stored = HeuristicTable(), HeuristicTable()
        for t in (loaded, stored):
            for s, v in earlier:
                t.store(s, v)
        loaded.load(single, pairs)
        for a, v in enumerate(single):
            stored.store(frozenset({a}), v)
            for b in range(a + 1, len(single)):
                stored.store(frozenset({a, b}), pairs[a][b])
        for k in range(4):
            for q in map(frozenset, combinations(range(8), k)):
                assert loaded.eval(q) == stored.eval(q)

    def test_only_a_raise_clears_the_memo(self):
        t = HeuristicTable()
        q = frozenset({0, 1, 2})
        t.load([1, 2, 3], [[INF, 4, 0], [INF, INF, 5], [INF] * 3])
        assert t.eval(q) == 5 and q in t._memo
        t.load([0, 2], [[INF, 4], [INF, INF]])  # raises nothing
        assert q in t._memo
        t.load([1, 2, 3], [[INF, 4, 6], [INF, INF, 5], [INF] * 3])
        assert not t._memo and t.eval(q) == 6


class TestMemo:
    def test_only_a_raise_clears(self):
        t = HeuristicTable()
        q = frozenset({0, 1, 9})
        t.store(frozenset({0}), 4)
        assert t.eval(q) == 4 and q in t._memo
        t.store(frozenset({0}), 2)  # raises nothing
        assert q in t._memo
        t.store(frozenset({30}), 1)  # grows the lists, and raises {30}
        assert not t._memo
        assert t.eval(q) == 4
        t.store(frozenset({1, 9}), 6)
        assert not t._memo and t.eval(q) == 6

    def test_memo_never_exceeds_cap(self):
        t = HeuristicTable()
        t.store(frozenset({0}), 3)
        for a in range(1, _MEMO_CAP + 10):
            assert t.eval(frozenset({0, a})) == 3
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
        t.store(frozenset({0, 1}), 3)
        t.store(frozenset({2}), INF)
        for q in (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})):
            assert is_units(t.eval(q))
        assert t.eval(frozenset({0, 1})) == 3
        assert t.eval(frozenset({2})) is INF

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
        t.store(frozenset({0}), p.to_units(Fraction(1, 2)))
        t.store(frozenset({1, 2}), p.to_units(Fraction(7, 3)))
        t.store(frozenset({1, 2, 3}), p.to_units(Fraction(5, 6)))
        t.store(frozenset({1, 2, 3}), p.to_units(Fraction(17, 6)))
        assert t.eval(frozenset({0})) == 3
        assert t.eval(frozenset({1, 2})) == 14
        assert t.eval(frozenset({1, 2, 3})) == 17
        t.store(frozenset({3}), p.to_units(Fraction(4)))
        assert t.eval(frozenset({0, 1, 2})) == 14
        assert t.eval(frozenset({0, 1, 2, 3})) == 24
        for q, cost in [((), 0), ((0,), Fraction(1, 2)), ((1,), 0), ((1, 2), Fraction(7, 3)),
                        ((3,), 4), ((0, 1, 2, 3), 4)]:
            got = p.to_cost(t.eval(frozenset(q)))
            assert got == cost and type(got) is Fraction
        assert p.to_cost(INF) is INF and p.to_units(INF) is INF

    def test_query_atoms_beyond_stored_ids(self):
        t = HeuristicTable(2)
        t.store(frozenset({1, 2}), 5)
        t.store(frozenset({0, 1, 2}), 6)
        assert t.eval(frozenset({1, 2, 40})) == 5
        assert t.eval(frozenset({0, 1, 2, 9, 1000})) == 6
        assert t.eval(frozenset({7, 8})) == 0
        assert is_units(t.eval(frozenset({7, 8})))
        assert t.eval(frozenset({1, 40})) == 0
        assert t.eval(frozenset({50})) == 0
        assert HeuristicTable().eval(frozenset({3})) == 0

    @given(st.lists(st.tuples(sets, thirds_sixths), max_size=25),
           st.frozensets(st.integers(0, 12), max_size=7))
    def test_mixed_denominators_match_dict_oracle(self, stores, query):
        # Values in thirds and sixths, converted on the way in and out.
        p = sixths_problem()
        t = HeuristicTable(p.scale)
        oracle: dict[frozenset, object] = {}
        for s, v in stores:
            t.store(s, p.to_units(v))
            if v > oracle.get(s, ZERO):
                oracle[s] = v
            got = t.eval(query)
            expected = max((w for s2, w in oracle.items() if s2 <= query), default=ZERO)
            assert p.to_cost(got) == expected and is_units(got)
        for s in oracle:
            got = t.eval(s)
            expected = max(w for s2, w in oracle.items() if s2 <= s)
            assert p.to_cost(got) == expected and is_units(got)
