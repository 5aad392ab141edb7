from fractions import Fraction

from hypothesis import given, strategies as st

from hmplan.htable import HeuristicTable
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
        assert t.lookup_exact(s) == 5
        t.store(s, 8)
        assert t.lookup_exact(s) == 8

    def test_prefixes_inserted_at_zero(self):
        t = HeuristicTable()
        t.store(frozenset({1, 4, 6}), 3)
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
        t.store(frozenset({2}), 1)
        t.store(frozenset({0, 2}), 2)
        t.store(frozenset({0}), 1)
        keys = [k for k, _ in t.items()]
        assert keys == sorted(keys)



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
        assert is_units(t.lookup_exact(frozenset({0})))
        assert is_units(t.lookup_exact(frozenset({0, 1})))
        assert all(is_units(v) for _, v in t.items())

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
        t.store(frozenset({3}), p.to_units(Fraction(4)))
        t.store(frozenset({1, 2, 3}), p.to_units(Fraction(17, 6)))
        assert t.lookup_exact(frozenset({0})) == 3
        assert t.lookup_exact(frozenset({1, 2})) == 14
        assert t.lookup_exact(frozenset({1, 2, 3})) == 17
        assert t.eval(frozenset({0, 1, 2})) == 14
        assert t.eval(frozenset({0, 1, 2, 3})) == 24
        assert [(k, p.to_cost(v)) for k, v in t.items()] == [
            ((), 0), ((0,), Fraction(1, 2)), ((1,), 0), ((1, 2), Fraction(7, 3)),
            ((1, 2, 3), Fraction(17, 6)), ((3,), 4),
        ]
        assert all(type(p.to_cost(v)) is Fraction for _, v in t.items())
        assert p.to_cost(INF) is INF and p.to_units(INF) is INF

    def test_query_atoms_beyond_stored_ids(self):
        t = HeuristicTable(2)
        t.store(frozenset({1, 2}), 5)
        t.store(frozenset({0, 1, 2}), 6)
        assert t.eval(frozenset({1, 2, 40})) == 5
        assert t.eval(frozenset({0, 1, 2, 9, 1000})) == 6
        assert t.eval(frozenset({7, 8})) == 0
        assert is_units(t.eval(frozenset({7, 8})))
        assert t.lookup_exact(frozenset({1, 40})) is None
        assert t.lookup_exact(frozenset({50})) is None
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
        for s, v in oracle.items():
            got = t.lookup_exact(s)
            assert p.to_cost(got) == v and is_units(got)
