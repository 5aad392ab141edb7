from fractions import Fraction

from hypothesis import given, strategies as st

from hmplan.htable import HeuristicTable
from hmplan.model import INF, ZERO

sets = st.frozensets(st.integers(0, 7), max_size=5)
values = st.one_of(st.fractions(min_value=0, max_value=50), st.just(INF))


class TestStoreEval:
    def test_empty_table_evals_zero(self):
        t = HeuristicTable()
        assert t.eval(frozenset({1, 2})) == ZERO

    def test_exact_hit(self):
        t = HeuristicTable()
        t.store(frozenset({1, 3}), Fraction(4))
        assert t.eval(frozenset({1, 3})) == 4

    def test_subset_maximization(self):
        # [DERIVED: hand-built table]
        t = HeuristicTable()
        t.store(frozenset({1}), Fraction(2))
        t.store(frozenset({2, 3}), Fraction(5))
        t.store(frozenset({4}), Fraction(7))
        assert t.eval(frozenset({1, 2, 3})) == 5
        assert t.eval(frozenset({1, 2})) == 2
        assert t.eval(frozenset({2, 3, 4})) == 7

    def test_superset_not_used(self):
        t = HeuristicTable()
        t.store(frozenset({1, 2}), Fraction(9))
        assert t.eval(frozenset({1})) == ZERO

    def test_infinity_marks_mutex(self):
        t = HeuristicTable()
        t.store(frozenset({0, 1}), INF)
        assert t.eval(frozenset({0, 1, 5})) == INF
        assert t.eval(frozenset({0, 5})) == ZERO

    def test_monotone_store(self):
        t = HeuristicTable()
        s = frozenset({2})
        t.store(s, Fraction(5))
        t.store(s, Fraction(3))
        assert t.lookup_exact(s) == 5
        t.store(s, Fraction(8))
        assert t.lookup_exact(s) == 8

    def test_prefixes_inserted_at_zero(self):
        t = HeuristicTable()
        t.store(frozenset({1, 4, 6}), Fraction(3))
        assert t.lookup_exact(frozenset({1})) == ZERO
        assert t.lookup_exact(frozenset({1, 4})) == ZERO
        assert t.lookup_exact(frozenset()) == ZERO
        # {4} alone is not a prefix of the id string (1, 4, 6)
        assert t.lookup_exact(frozenset({4})) is None


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


class TestEnumeration:
    def test_items_lexical_order(self):
        t = HeuristicTable()
        t.store(frozenset({2}), Fraction(1))
        t.store(frozenset({0, 2}), Fraction(2))
        t.store(frozenset({0}), Fraction(1))
        keys = [k for k, _ in t.items()]
        assert keys == sorted(keys)



def is_cost(x) -> bool:
    """A table value at the interface: a Fraction or INF, never int or float."""
    return x is INF or type(x) is Fraction


thirds_sixths = st.one_of(
    st.builds(Fraction, st.integers(0, 60), st.sampled_from([1, 2, 3, 6])),
    st.just(INF),
)


class TestIntegerUnits:
    def test_values_are_fractions(self):
        t = HeuristicTable()
        t.store(frozenset({0, 1}), Fraction(3))
        t.store(frozenset({2}), INF)
        for q in (frozenset(), frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2})):
            assert is_cost(t.eval(q))
        assert t.eval(frozenset({0, 1})) == 3
        assert t.eval(frozenset({2})) is INF
        assert is_cost(t.lookup_exact(frozenset({0})))
        assert is_cost(t.lookup_exact(frozenset({0, 1})))

    def test_rescaling_keeps_stored_values(self):
        # [DERIVED: halves, then thirds, then sixths force scale 1 -> 2 -> 6]
        t = HeuristicTable()
        t.store(frozenset({0}), Fraction(1, 2))
        t.store(frozenset({1, 2}), Fraction(7, 3))
        t.store(frozenset({1, 2, 3}), Fraction(5, 6))
        t.store(frozenset({3}), Fraction(4))
        t.store(frozenset({1, 2, 3}), Fraction(17, 6))
        assert t.lookup_exact(frozenset({0})) == Fraction(1, 2)
        assert t.lookup_exact(frozenset({1, 2})) == Fraction(7, 3)
        assert t.lookup_exact(frozenset({1, 2, 3})) == Fraction(17, 6)
        assert t.eval(frozenset({0, 1, 2})) == Fraction(7, 3)
        assert t.eval(frozenset({0, 1, 2, 3})) == 4
        assert list(t.items()) == [
            ((), 0), ((0,), Fraction(1, 2)), ((1,), 0), ((1, 2), Fraction(7, 3)),
            ((1, 2, 3), Fraction(17, 6)), ((3,), 4),
        ]
        assert all(is_cost(v) for _, v in t.items())

    def test_query_atoms_beyond_stored_ids(self):
        t = HeuristicTable()
        t.store(frozenset({1, 2}), Fraction(5, 2))
        t.store(frozenset({0, 1, 2}), Fraction(3))
        assert t.eval(frozenset({1, 2, 40})) == Fraction(5, 2)
        assert t.eval(frozenset({0, 1, 2, 9, 1000})) == 3
        assert t.eval(frozenset({7, 8})) == 0
        assert is_cost(t.eval(frozenset({7, 8})))
        assert t.lookup_exact(frozenset({1, 40})) is None
        assert t.lookup_exact(frozenset({50})) is None
        assert HeuristicTable().eval(frozenset({3})) == 0

    @given(st.lists(st.tuples(sets, thirds_sixths), max_size=25),
           st.frozensets(st.integers(0, 12), max_size=7))
    def test_mixed_denominators_match_dict_oracle(self, stores, query):
        t = HeuristicTable()
        oracle: dict[frozenset, object] = {}
        for s, v in stores:
            t.store(s, v)
            if v > oracle.get(s, ZERO):
                oracle[s] = v
            got = t.eval(query)
            expected = max((w for s2, w in oracle.items() if s2 <= query), default=ZERO)
            assert got == expected and is_cost(got)
        for s, v in oracle.items():
            got = t.lookup_exact(s)
            assert got == v and is_cost(got)
