"""Valuation oracle behavior and the exhaustive class-membership checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bidfair.valuations import (
    AdditiveValuation,
    RowSubstitutesValuation,
    SizeGuardExceeded,
    TableValuation,
    TruncatedValuation,
    UnitDemandValuation,
    ValuationOracle,
    WeightedCoverageValuation,
    XOSValuation,
    is_monotone_normalized,
    is_submodular,
    marginal,
)


def test_additive_marginal():
    v = AdditiveValuation({"e1": 5, "e2": 2})
    assert marginal(v, "e2", {"e1"}) == 2


def test_unit_demand_marginal_absorbed():
    v = UnitDemandValuation({"e1": 5, "e2": 2})
    assert marginal(v, "e2", {"e1"}) == 0


def test_row_substitutes_marginal_zero_within_row():
    v = RowSubstitutesValuation([["a1", "a2"], ["b1", "b2"]], [1, 1])
    assert marginal(v, "a2", {"a1"}) == 0
    assert marginal(v, "b1", {"a1"}) == 1


def test_marginal_rejects_member_item():
    v = AdditiveValuation({"e1": 1})
    with pytest.raises(ValueError):
        marginal(v, "e1", {"e1"})


def test_truncation_values():
    v = AdditiveValuation({"e1": 3, "e2": 2})
    t = TruncatedValuation(v, 4)
    assert t.value({"e1", "e2"}) == 4
    assert t.value({"e2"}) == 2
    zero = TruncatedValuation(v, 0)
    assert zero.value({"e1", "e2"}) == 0


def test_truncation_preserves_structure():
    v = WeightedCoverageValuation(
        {"u1": 2, "u2": 3, "u3": 1},
        {"e1": {"u1", "u2"}, "e2": {"u2", "u3"}, "e3": {"u3"}},
    )
    t = TruncatedValuation(v, Fraction(7, 2))
    items = ["e1", "e2", "e3"]
    assert is_monotone_normalized(t, items)
    assert is_submodular(t, items)


def test_coverage_is_submodular():
    v = WeightedCoverageValuation(
        {"u1": 1, "u2": 4, "u3": 2, "u4": 3},
        {"e1": {"u1", "u2"}, "e2": {"u2", "u3"}, "e3": {"u1", "u4"}, "e4": {"u4"}},
    )
    assert is_submodular(v, ["e1", "e2", "e3", "e4"])


def test_row_substitutes_is_submodular():
    v = RowSubstitutesValuation([["a1", "a2", "a3"], ["b1", "b2", "b3"]], [1, Fraction(1, 2)])
    assert is_submodular(v, ["a1", "a2", "a3", "b1", "b2", "b3"])


def test_cross_column_xos_is_not_submodular():
    # 2x2 matrix, one additive clause per column
    v = XOSValuation(
        [{"r1c1": 1, "r2c1": 1}, {"r1c2": 1, "r2c2": 1}]
    )
    items = ["r1c1", "r1c2", "r2c1", "r2c2"]
    assert is_monotone_normalized(v, items)
    assert not is_submodular(v, items)


def test_monotone_normalized_rejections():
    items = ["e1", "e2"]
    bad_empty = TableValuation(items, {
        frozenset(): 1, frozenset(["e1"]): 1, frozenset(["e2"]): 1,
        frozenset(["e1", "e2"]): 2,
    })
    assert not is_monotone_normalized(bad_empty, items)
    non_monotone = TableValuation(items, {
        frozenset(): 0, frozenset(["e1"]): 2, frozenset(["e2"]): 1,
        frozenset(["e1", "e2"]): 1,
    })
    assert not is_monotone_normalized(non_monotone, items)


def test_size_guard():
    v = AdditiveValuation({f"e{i}": 1 for i in range(13)})
    with pytest.raises(SizeGuardExceeded):
        is_submodular(v, [f"e{i}" for i in range(13)])


def test_query_counter_counts_cached_queries():
    v = AdditiveValuation({"e1": 1})
    v.value({"e1"})
    v.value({"e1"})
    assert v.query_count == 2


def test_miss_counter_counts_only_evaluations():
    inner = AdditiveValuation({"e1": 1, "e2": 2})
    v = TruncatedValuation(inner, 2)
    for bundle in ({"e1"}, {"e1"}, frozenset(["e1"]), {"e1", "e2"}, {"e2", "e1"}):
        v.value(bundle)
    assert (v.query_count, v.miss_count) == (5, 2)
    # the inner oracle is asked only on the wrapper's misses, and misses once each
    assert (inner.query_count, inner.miss_count) == (2, 2)
    inner.value(set())
    inner.value(set())
    assert (inner.query_count, inner.miss_count) == (4, 3)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=5))
def test_additive_and_unit_demand_are_always_submodular(values):
    items = [f"e{i}" for i in range(len(values))]
    table = dict(zip(items, values))
    assert is_submodular(AdditiveValuation(table), items)
    assert is_submodular(UnitDemandValuation(table), items)


def test_xos_needs_a_clause():
    with pytest.raises(ValueError):
        XOSValuation([])


_XOS_ITEMS = ["a", "b", "c", "d"]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.dictionaries(
            st.sampled_from(_XOS_ITEMS),
            st.fractions(min_value=-2, max_value=3, max_denominator=4),
            max_size=len(_XOS_ITEMS),
        ),
        min_size=1,
        max_size=5,
    ),
    st.lists(st.frozensets(st.sampled_from(_XOS_ITEMS + ["z"])), min_size=1, max_size=8),
)
def test_xos_value_is_the_best_clause_sum_or_zero(clauses, bundles):
    # items shared by clauses, items in no clause ("z" never is), empty
    # clauses, zero, negative and fractional weights, the empty bundle
    v = XOSValuation(clauses)
    for bundle in bundles + [frozenset()]:
        expected = max(
            [Fraction(0)] + [sum((c.get(e, 0) for e in bundle), Fraction(0)) for c in clauses]
        )
        got = v.value(bundle)
        assert got == expected and type(got) is Fraction


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_XOS_ITEMS),
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        max_size=len(_XOS_ITEMS),
    ),
    st.lists(st.frozensets(st.sampled_from(_XOS_ITEMS + ["z"])), min_size=1, max_size=8),
)
def test_additive_value_is_the_fraction_sum(values, bundles):
    # the integer sum over the common denominator against a plain Fraction
    # sum: mixed denominators, negative and zero values, an empty value map,
    # and items absent from the map ("z" always is)
    v = AdditiveValuation(values)
    for bundle in bundles + [frozenset()]:
        got = v.value(bundle)
        assert got == sum((values.get(e, 0) for e in bundle), Fraction(0)) and type(got) is Fraction


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_XOS_ITEMS), st.integers(0, 2), max_size=len(_XOS_ITEMS)),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=12), min_size=3, max_size=3),
    st.lists(st.frozensets(st.sampled_from(_XOS_ITEMS + ["z"])), min_size=1, max_size=8),
)
def test_row_substitutes_value_is_the_fraction_sum_of_touched_rows(row_of, weights, bundles):
    # the integer sum over the common denominator against a plain Fraction
    # sum: mixed denominators, negative and zero weights, empty rows, and
    # items in no row ("z" never is)
    rows = [[e for e, i in row_of.items() if i == r] for r in range(3)]
    v = RowSubstitutesValuation(rows, weights)
    for bundle in bundles + [frozenset()]:
        got = v.value(bundle)
        touched = {row_of[e] for e in bundle if e in row_of}
        assert got == sum((weights[i] for i in touched), Fraction(0)) and type(got) is Fraction


def test_xos_counters_over_a_fixed_query_sequence():
    v = XOSValuation([{"a": 1, "b": 2}, {"b": 1, "c": 3}, {"d": -1}])
    queries = [set(), {"a"}, {"a"}, frozenset(["a"]), {"a", "b"}, {"b", "a"},
               {"z"}, {"c", "b"}, {"d"}, set(), {"c", "b"}]
    assert [v.value(q) for q in queries] == [0, 1, 1, 1, 3, 3, 0, 4, 0, 0, 4]
    assert (v.query_count, v.miss_count) == (11, 6)


def test_table_valuation_missing_entry():
    v = TableValuation(["e1"], {frozenset(): 0})
    with pytest.raises(KeyError):
        v.value({"e1"})


_WEIGHTS = st.sampled_from([Fraction(1, 3), Fraction(2, 5), Fraction(7), Fraction(0), Fraction(5, 6)])


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.sampled_from(["u1", "u2", "u3", "u4"]), _WEIGHTS, max_size=4),
    st.data(),
)
def test_coverage_value_is_the_fraction_sum_of_covered_weights(weights, data):
    # the integer sum over the common denominator against a plain Fraction
    # sum, an empty element set included
    elements = sorted(weights)
    covers = {e: data.draw(st.sets(st.sampled_from(elements)) if elements else st.just(set()))
              for e in ("a", "b", "c")}
    v = WeightedCoverageValuation(weights, covers)
    for bundle in data.draw(st.lists(st.frozensets(st.sampled_from(["a", "b", "c", "z"])), max_size=6)):
        covered = set().union(*(covers.get(e, set()) for e in bundle))
        got = v.value(bundle)
        assert got == sum((weights[u] for u in covered), Fraction(0)) and type(got) is Fraction


def test_coverage_over_no_elements_is_zero():
    v = WeightedCoverageValuation({}, {"a": []})
    assert v.value({"a"}) == 0 == v.value(set())


class DelegatingOracle(ValuationOracle):
    """Another oracle's set function behind the base class: the table query
    goes through ``value``, one bundle at a time."""

    def __init__(self, inner):
        super().__init__()
        self.inner = inner

    def _value(self, bundle):
        return self.inner._value(bundle)


@st.composite
def coverage_tables(draw):
    """Coverage oracles over m <= 8 items, listed in a drawn order: weights of
    any sign, zero included, empty covers, items absent from ``covers`` and
    elements that several items share."""
    elements = [f"u{t}" for t in range(draw(st.integers(0, 6)))]
    weights = {u: draw(_WEIGHTS | st.fractions(-3, 0, max_denominator=6)) for u in elements}
    items = draw(st.permutations([f"e{j}" for j in range(draw(st.integers(0, 8)))]))
    listed = draw(st.sets(st.sampled_from(items))) if items else set()
    cover = st.sets(st.sampled_from(elements)) if elements else st.just(set())
    covers = {e: draw(cover) for e in sorted(listed | {"z"})}  # z is in no table
    return WeightedCoverageValuation(weights, covers), items


@settings(max_examples=200, deadline=None)
@given(case=coverage_tables(), asked=st.lists(st.sets(st.sampled_from(["e0", "e1", "z"])), max_size=3))
def test_coverage_table_equals_the_query_table(case, asked):
    v, items = case
    for bundle in asked:
        v.value(bundle)
    cache, queries, misses = dict(v._cache), v.query_count, v.miss_count
    keys, common = v.mask_keys(items)
    reference, reference_common = DelegatingOracle(v).mask_keys(items)
    assert [Fraction(key, common) for key in keys] == [Fraction(key, reference_common) for key in reference]
    size = 1 << len(items)
    assert (v.query_count, v.miss_count) == (queries + size, misses + size)
    assert v._cache == cache
