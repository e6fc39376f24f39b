"""Exact share oracles: frozen values, witnesses, and cross-validation."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import corpus_helpers as ch
from test_valuations import DelegatingOracle
from bidfair import shares, simplex
from bidfair.model import FractionalPartition
from bidfair.shares import (
    _closure,
    _ranked_table,
    aps_exact,
    aps_unit_demand,
    best_affordable,
    mms_exact,
    value_table,
    verify_fractional_partition,
    verify_mms_partition,
)
from bidfair.simplex import solve_lp
from bidfair.valuations import (
    AdditiveValuation,
    RowSubstitutesValuation,
    ScaledValuation,
    SizeGuardExceeded,
    SizeGuardSettingError,
    TableValuation,
    TruncatedValuation,
    UnitDemandValuation,
    WeightedCoverageValuation,
    default_size_guard,
    integer_keys,
    is_monotone_normalized,
    is_submodular,
)


def coverage_fixture(seed, m=5, universe=4):
    rng = random.Random(seed)
    elements = [f"u{t}" for t in range(universe)]
    weights = {u: Fraction(rng.randint(1, 6)) for u in elements}
    covers = {
        f"e{j}": frozenset(rng.sample(elements, rng.randint(1, universe)))
        for j in range(m)
    }
    return WeightedCoverageValuation(weights, covers), [f"e{j}" for j in range(m)]


def test_aps_three_unit_items_half_entitlement():
    v = AdditiveValuation({"e1": 1, "e2": 1, "e3": 1})
    items = ["e1", "e2", "e3"]
    res = aps_exact(v, Fraction(1, 2), items)
    # independent bracketing: uniform prices allow only singletons within the
    # budget (upper bound 1), and equal singleton weights certify 1 from below
    prices = {e: Fraction(1, 3) for e in items}
    assert best_affordable(v, items, prices, Fraction(1, 2)) == 1
    hand_witness = FractionalPartition(
        tuple((frozenset([e]), Fraction(1, 3)) for e in items)
    )
    assert verify_fractional_partition(hand_witness, v, Fraction(1, 2), 1)
    assert res.value == 1
    assert verify_fractional_partition(res.witness, v, Fraction(1, 2), res.value)


def test_aps_full_entitlement_is_total_value():
    v = AdditiveValuation({"e1": 2, "e2": 5})
    res = aps_exact(v, 1, ["e1", "e2"])
    assert res.value == 7
    assert verify_fractional_partition(res.witness, v, 1, 7)


def test_aps_unit_demand_closed_form_values():
    assert aps_unit_demand([5, 4, 3, 2], Fraction(1, 3)) == 3
    assert aps_unit_demand([5, 4], Fraction(1, 3)) == 0
    assert aps_unit_demand([7], 1) == 7


def test_aps_matches_unit_demand_closed_form():
    rng = random.Random(9)
    for _ in range(8):
        m = rng.randint(1, 6)
        values = {f"e{j}": Fraction(rng.randint(0, 9)) for j in range(m)}
        v = UnitDemandValuation(values)
        b = Fraction(1, rng.randint(1, 5))
        res = aps_exact(v, b, list(values))
        assert res.value == aps_unit_demand(values.values(), b)


def test_mms_three_unit_items_two_bundles():
    v = AdditiveValuation({"e1": 1, "e2": 1, "e3": 1})
    res = mms_exact(v, 2, ["e1", "e2", "e3"])
    assert res.value == 1
    assert verify_mms_partition(res.witness, v, ["e1", "e2", "e3"], 1)


def test_mms_single_bundle_is_total_value():
    v = AdditiveValuation({"e1": 4, "e2": 1})
    assert mms_exact(v, 1, ["e1", "e2"]).value == 5


def test_mms_more_bundles_than_items_is_zero():
    v = AdditiveValuation({"e1": 4})
    assert mms_exact(v, 3, ["e1"]).value == 0


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("c", [-1, -2])
def test_mms_of_a_constant_negative_table(n, c):
    # every partition's worst bundle is worth c <= -1: the MMS is c, and the
    # witness must be a partition whose bundles all reach it
    items = ["e1", "e2"]
    v = TableValuation(items, {frozenset(s): c for k in range(3) for s in combinations(items, k)})
    res = mms_exact(v, n, items)
    assert res.value == c
    assert len(res.witness) == n
    assert verify_mms_partition(res.witness, v, items, c)


def test_mms_substitute_rows_columns_witness():
    v = RowSubstitutesValuation([["r0a", "r0b"], ["r1a", "r1b"]], [1, 1])
    items = ["r0a", "r0b", "r1a", "r1b"]
    res = mms_exact(v, 2, items)
    assert res.value == 2
    assert verify_mms_partition(res.witness, v, items, 2)
    columns = (frozenset(["r0a", "r1a"]), frozenset(["r0b", "r1b"]))
    assert verify_mms_partition(columns, v, items, 2)


def test_aps_at_least_mms_under_equal_entitlements():
    for seed in range(10):
        v, items = coverage_fixture(seed, m=5)
        mms = mms_exact(v, 2, items).value
        aps = aps_exact(v, Fraction(1, 2), items).value
        assert aps >= mms


def test_shares_scale_linearly():
    v, items = coverage_fixture(3)
    c = Fraction(3, 7)
    scaled = ScaledValuation(v, c)
    assert mms_exact(scaled, 2, items).value == c * mms_exact(v, 2, items).value
    assert aps_exact(scaled, Fraction(1, 3), items).value == c * aps_exact(v, Fraction(1, 3), items).value


def test_price_form_lower_bounds_aps():
    v, items = coverage_fixture(5)
    b = Fraction(1, 3)
    aps = aps_exact(v, b, items).value
    rng = random.Random(17)
    for _ in range(10):
        raw = [rng.randint(0, 10) for _ in items]
        total = sum(raw) or 1
        prices = {e: Fraction(w, total) for e, w in zip(items, raw)}
        assert best_affordable(v, items, prices, b) >= aps


def test_truncation_pins_the_share():
    # capping the valuation at any level below the share moves the share to
    # exactly that level, and capping at the share leaves it unchanged
    v, items = coverage_fixture(11, m=5)
    for n, b in ((2, Fraction(1, 2)), (3, Fraction(1, 3))):
        mms = mms_exact(v, n, items).value
        aps = aps_exact(v, b, items).value
        assert mms_exact(TruncatedValuation(v, mms), n, items).value == mms
        assert aps_exact(TruncatedValuation(v, aps), b, items).value == aps
        for t in (mms / 2, Fraction(2, 3) * mms):
            assert mms_exact(TruncatedValuation(v, t), n, items).value == t
        for t in (aps / 2, Fraction(2, 3) * aps):
            assert aps_exact(TruncatedValuation(v, t), b, items).value == t


def test_fractional_partition_verifier_rejections():
    v = AdditiveValuation({"e1": 1, "e2": 1})
    all_items = FractionalPartition(((frozenset(["e1", "e2"]), Fraction(1)),))
    # coverage 1 exceeds a sub-unit entitlement
    assert not verify_fractional_partition(all_items, v, Fraction(1, 2), 1)
    assert verify_fractional_partition(all_items, v, 1, 2)
    # support bundle below the claimed level
    low = FractionalPartition(((frozenset(["e1"]), Fraction(1)),))
    assert not verify_fractional_partition(low, v, 1, 2)


def test_mms_partition_verifier_rejections():
    v = AdditiveValuation({"e1": 1, "e2": 1})
    items = ["e1", "e2"]
    good = (frozenset(["e1"]), frozenset(["e2"]))
    assert verify_mms_partition(good, v, items, 1)
    assert not verify_mms_partition(good, v, items, 2)
    not_partition = (frozenset(["e1"]), frozenset(["e1"]))
    assert not verify_mms_partition(not_partition, v, items, 1)
    incomplete = (frozenset(["e1"]), frozenset())
    assert not verify_mms_partition(incomplete, v, items, 0)


def test_size_guard_and_env_override(monkeypatch):
    v = AdditiveValuation({f"e{i}": 1 for i in range(13)})
    items = [f"e{i}" for i in range(13)]
    with pytest.raises(SizeGuardExceeded):
        mms_exact(v, 2, items)
    with pytest.raises(SizeGuardExceeded):
        aps_exact(v, Fraction(1, 2), items)
    monkeypatch.setenv("BIDFAIR_SIZE_GUARD", "13")
    assert mms_exact(v, 2, items).value == 6
    monkeypatch.setenv("BIDFAIR_SIZE_GUARD", "4")
    five = ["e0", "e1", "e2", "e3", "e4"]
    with pytest.raises(SizeGuardExceeded):
        mms_exact(v, 2, five)
    # the exhaustive valuation checks honour the same setting
    with pytest.raises(SizeGuardExceeded):
        is_submodular(v, five)
    with pytest.raises(SizeGuardExceeded):
        is_monotone_normalized(v, five)
    monkeypatch.setenv("BIDFAIR_SIZE_GUARD", "5")
    assert is_submodular(v, five)
    for text in ("abc", "-1", "", "1.5", "²"):
        monkeypatch.setenv("BIDFAIR_SIZE_GUARD", text)
        with pytest.raises(SizeGuardSettingError, match="nonnegative integer"):
            default_size_guard()


def aps_equality_row(v, entitlement, items):
    """APS through the earlier formulation: total weight exactly 1 over every bundle of value >= z."""
    items = sorted(items)
    m = len(items)
    keys, common = value_table(v, items)
    table = [Fraction(key, common) for key in keys]
    candidates = sorted(set(table))

    def feasible(z):
        masks = [mask for mask in range(len(table)) if table[mask] >= z]
        a_ub = [[mask >> j & 1 for mask in masks] for j in range(m)]
        a_ub += [[1] * len(masks), [-1] * len(masks)]  # total weight exactly 1
        result = solve_lp([0] * len(masks), a_ub=a_ub, b_ub=[entitlement] * m + [1, -1])
        return result.status == "optimal"

    lo, hi = 0, len(candidates) - 1  # the smallest value is at most v(empty), hence feasible
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if feasible(candidates[mid]) else (lo, mid - 1)
    return candidates[lo]


def test_aps_below_zero_when_the_empty_bundle_is_negative():
    # weight on {a} is capped at b = 1/2, so half the weight stays on the empty bundle
    v = TableValuation(["a"], {frozenset(): -1, frozenset(["a"]): 0})
    res = aps_exact(v, Fraction(1, 2), ["a"])
    assert res.value == -1
    assert verify_fractional_partition(res.witness, v, Fraction(1, 2), res.value)


def test_closure_matches_brute_force():
    rng = random.Random(4)
    for m in range(8):
        ranks = [rng.randint(0, 5) for _ in range(1 << m)]
        below, reach = _closure(ranks, m)
        for mask in range(1 << m):
            proper = [ranks[sub] for sub in range(mask) if sub & mask == sub]
            assert below[mask] == max(proper, default=-1)
            assert reach[mask] == max(proper + [ranks[mask]])


@st.composite
def small_valuations(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    items = [f"e{j}" for j in range(m)]
    kind = draw(st.sampled_from(["additive", "coverage", "table"]))
    if kind == "additive":
        return AdditiveValuation({e: draw(st.integers(0, 3)) for e in items}), items
    if kind == "coverage":
        elements = [f"u{t}" for t in range(draw(st.integers(1, 5)))]
        weights = {u: draw(st.integers(1, 6)) for u in elements}
        covers = {e: draw(st.sets(st.sampled_from(elements), max_size=len(elements))) for e in items}
        return WeightedCoverageValuation(weights, covers), items
    # non-monotone, with a positive value on the empty bundle
    table = {
        frozenset(items[j] for j in range(m) if mask >> j & 1): draw(st.integers(0, 4))
        for mask in range(1, 1 << m)
    }
    table[frozenset()] = draw(st.integers(1, 4))
    return TableValuation(items, table), items


@settings(max_examples=150, deadline=None)
@given(
    instance=small_valuations(),
    entitlement=st.fractions(min_value=Fraction(1, 6), max_value=1, max_denominator=6),
)
def test_packing_aps_matches_equality_row_formulation(instance, entitlement):
    v, items = instance
    res = aps_exact(v, entitlement, items)
    assert res.value == aps_equality_row(v, entitlement, items)
    assert verify_fractional_partition(res.witness, v, entitlement, res.value)
    for bundle, weight in res.witness.entries:
        assert weight > 0
        proper_subsets = (
            frozenset(sub) for size in range(len(bundle)) for sub in combinations(sorted(bundle), size)
        )
        assert all(v.value(sub) < res.value for sub in proper_subsets)


def mask_bundle(mask, items):
    return frozenset(items[j] for j in range(len(items)) if mask >> j & 1)


def table_of(items, values):
    return TableValuation(items, {mask_bundle(mask, items): x for mask, x in enumerate(values)})


def mms_reference(v, n, items):
    """MMS by the plain exhaustive search over Fraction values, no bound."""
    items = sorted(items)
    m = len(items)
    keys, common = value_table(v, items)
    table = [Fraction(key, common) for key in keys]
    best_blocks = ((1 << m) - 1,) + (0,) * (n - 1)
    best_value = min(table[b] for b in best_blocks)
    blocks = [0] * n

    def search(i, used):
        nonlocal best_value, best_blocks
        if i == m:
            worst = min(table[b] for b in blocks)
            if worst > best_value:
                best_value = worst
                best_blocks = tuple(blocks)
            return
        for idx in range(min(used + 1, n)):
            blocks[idx] |= 1 << i
            search(i + 1, max(used, idx + 1))
            blocks[idx] &= ~(1 << i)

    search(0, 0)
    return best_value, tuple(frozenset(items[j] for j in range(m) if b >> j & 1) for b in best_blocks)


@st.composite
def small_tables(draw):
    """Tables over m <= 6 items with any v(empty), monotone or not."""
    m = draw(st.integers(min_value=0, max_value=6))
    items = [f"e{j}" for j in range(m)]
    raw = draw(st.lists(st.integers(-3, 5), min_size=1 << m, max_size=1 << m))
    if draw(st.booleans()):
        # monotone: each bundle is worth the most raw value of any subset
        for mask in range(1, 1 << m):
            raw[mask] = max([raw[mask]] + [raw[mask ^ (1 << j)] for j in range(m) if mask >> j & 1])
    table = {frozenset(items[j] for j in range(m) if mask >> j & 1): x for mask, x in enumerate(raw)}
    return TableValuation(items, table), items


@settings(max_examples=300, deadline=None)
@given(instance=small_tables(), n=st.integers(min_value=1, max_value=4))
# more bundles than items: a block stays empty at every node
@example(instance=(table_of(["a", "b"], [0, 3, 1, 2]), ["a", "b"]), n=3)
# v(empty) is the largest value, so an empty block ranks above every used one
@example(instance=(table_of(["a", "b", "c"], [5, 1, 2, 4, 3, 0, 2, 1]), ["a", "b", "c"]), n=2)
def test_mms_matches_the_unpruned_fraction_search(instance, n):
    v, items = instance
    res = mms_exact(v, n, items)
    assert (res.value, res.witness) == mms_reference(v, n, items)


def test_mms_matches_the_unpruned_search_on_a_large_table_that_is_not_monotone():
    # 10 items into 4 bundles, beyond what the Hypothesis tables draw: each
    # bundle is worth its size plus noise in -3..3, so adding an item can lower
    # a value, and a bound on the bundles' own ranks would cut the best leaves
    rng = random.Random(0)
    items = [f"e{j}" for j in range(10)]
    table = {
        frozenset(items[j] for j in range(10) if mask >> j & 1): bin(mask).count("1") + rng.randint(-3, 3)
        for mask in range(1 << 10)
    }
    v = TableValuation(items, table)
    res = mms_exact(v, 4, items)
    assert (res.value, res.witness) == mms_reference(v, 4, items)
    assert res.value == 5


def test_best_affordable_below_zero_and_negative_budget():
    # the empty bundle costs nothing, so it is always affordable
    items = ["a", "b"]
    table = {frozenset(): -3, frozenset(["a"]): -2, frozenset(["b"]): -2, frozenset(items): 5}
    v = TableValuation(items, table)
    prices = {"a": Fraction(1), "b": Fraction(1)}
    assert best_affordable(v, items, prices, Fraction(1, 2)) == -3
    assert best_affordable(v, items, prices, 1) == -2
    assert best_affordable(v, items, prices, 2) == 5
    with pytest.raises(ValueError, match="budget"):
        best_affordable(v, items, prices, Fraction(-1, 2))


def test_corpus_aps_values_and_witnesses_are_pinned():
    # all 180 agents of corpus instances 0-59: the value, then each witness
    # bundle (items sorted) with its weight, in the order aps_exact returns them
    lines = []
    for idx in range(60):
        for agent_id in ch.instance(idx).agent_ids:
            res = ch.aps_of(idx, agent_id)
            entries = " ".join(f"{','.join(sorted(bundle))}:{w}" for bundle, w in res.witness.entries)
            lines.append(f"{idx} {agent_id} {res.value} {entries}")
    assert len(lines) == 180
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "e88787b51b7b4e85445c432475c36e7f0ad521935eadcf60381eb6d9cc549730"
    )


def test_corpus_mms_values_and_witnesses_are_pinned():
    # all 180 agents of corpus instances 0-59: the value, then each witness
    # bundle (items sorted, in braces so empty bundles show) in returned order
    lines = []
    for idx in range(60):
        for agent_id in ch.instance(idx).agent_ids:
            res = ch.mms_of(idx, agent_id)
            bundles = " ".join("{" + ",".join(sorted(bundle)) + "}" for bundle in res.witness)
            lines.append(f"{idx} {agent_id} {res.value} {bundles}")
    assert len(lines) == 180
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "083216c8a5cd3f81bac260958cc526a11de816d33d223441df3cdf30833acf39"
    )


def test_doctests():
    import doctest

    import bidfair.shares as shares_mod
    import bidfair.valuations as val_mod
    import bidfair.negatives as neg_mod

    for mod in (shares_mod, val_mod, neg_mod):
        failures, _ = doctest.testmod(mod)
        assert failures == 0


class RecordingTable(TableValuation):
    """A table oracle that records every bundle it evaluates, in order."""

    def __init__(self, items, table):
        super().__init__(items, table)
        self.evaluated = []

    def _value(self, bundle):
        self.evaluated.append(bundle)
        return super()._value(bundle)


@st.composite
def mixed_tables(draw, max_items=5):
    """Recording tables over m <= max_items items whose values are drawn from a
    small pool of rationals with mixed denominators and signs, so they repeat."""
    m = draw(st.integers(min_value=0, max_value=max_items))
    items = [f"e{j}" for j in range(m)]
    pool = draw(st.lists(st.fractions(min_value=-3, max_value=5, max_denominator=7), min_size=1, max_size=6))
    table = {
        frozenset(items[j] for j in range(m) if mask >> j & 1): draw(st.sampled_from(pool))
        for mask in range(1 << m)
    }
    return RecordingTable(items, table), items


@settings(max_examples=150, deadline=None)
@given(instance=mixed_tables())
def test_value_table_matches_the_per_mask_construction(instance):
    v, items = instance
    reference = RecordingTable(items, v.table)
    expected = [reference.value(mask_bundle(mask, items)) for mask in range(1 << len(items))]
    assert value_table(v, items) == integer_keys(expected)
    assert v.evaluated == reference.evaluated
    assert v.query_count == reference.query_count == 1 << len(items)


@settings(max_examples=150, deadline=None)
@given(instance=mixed_tables())
def test_ranked_table_matches_ranking_the_fractions(instance):
    v, items = instance
    table = [v.table[mask_bundle(mask, items)] for mask in range(1 << len(items))]
    candidates = sorted(set(table))
    rank = {value: r for r, value in enumerate(candidates)}
    got_candidates, got_ranks = _ranked_table(v, items)
    assert got_candidates == candidates
    assert all(type(x) is Fraction for x in got_candidates)
    assert got_ranks == [rank[value] for value in table]


@settings(max_examples=150, deadline=None)
@given(
    instance=mixed_tables(),
    raw_prices=st.lists(st.fractions(min_value=-1, max_value=3, max_denominator=6), min_size=5, max_size=5),
    budget=st.fractions(min_value=0, max_value=4, max_denominator=5),
)
def test_best_affordable_matches_brute_force(instance, raw_prices, budget):
    v, items = instance
    prices = dict(zip(items, raw_prices))
    affordable = [
        mask_bundle(mask, items)
        for mask in range(1 << len(items))
        if sum((prices[items[j]] for j in range(len(items)) if mask >> j & 1), Fraction(0)) <= budget
    ]
    assert best_affordable(v, items, prices, budget) == max(v.table[b] for b in affordable)
    assert v.evaluated == affordable  # the affordable bundles only, in mask order


def aps_bisection(v, entitlement, items):
    """APS by binary search over the ranks from v(empty) up, one packing LP per
    probe: the value, the witness, and the number of LPs solved."""
    items = tuple(sorted(items))
    m = len(items)
    candidates, ranks = _ranked_table(v, items)
    below, _ = _closure(ranks, m)
    solves = 0

    def probe(z):
        nonlocal solves
        solves += 1
        masks = [mask for mask in range(len(ranks)) if ranks[mask] >= z > below[mask]]
        a_ub = [[mask >> j & 1 for mask in masks] for j in range(m)]
        result = solve_lp([1] * len(masks), a_ub=a_ub, b_ub=[entitlement] * m)
        if result.objective < 1:
            return None
        return FractionalPartition(
            tuple(
                (mask_bundle(mask, items), weight / result.objective)
                for mask, weight in zip(masks, result.x)
                if weight > 0
            )
        )

    lo, hi = ranks[0], len(candidates) - 1
    best = FractionalPartition(((frozenset(), Fraction(1)),))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        witness = probe(mid)
        if witness is None:
            hi = mid - 1
        else:
            lo, best = mid, witness
    return candidates[lo], best, solves


@st.composite
def zero_singleton_tables(draw):
    """Monotone tables over 1..5 items in which every single item is worth 0."""
    m = draw(st.integers(min_value=1, max_value=5))
    items = [f"e{j}" for j in range(m)]
    raw = [0] * (1 << m)
    for mask in range(1 << m):
        if bin(mask).count("1") > 1:
            below = max(raw[mask ^ (1 << j)] for j in range(m) if mask >> j & 1)
            raw[mask] = below + draw(st.integers(0, 3))
    table = {mask_bundle(mask, items): x for mask, x in enumerate(raw)}
    return TableValuation(items, table), items


@settings(max_examples=300, deadline=None)
@given(
    instance=st.one_of(small_valuations(), small_tables(), zero_singleton_tables()),
    entitlement=st.one_of(
        st.just(Fraction(1)),
        st.fractions(min_value=Fraction(1, 6), max_value=1, max_denominator=6),
    ),
)
@example(instance=(table_of([], [-2]), []), entitlement=Fraction(1, 2))
@example(instance=(table_of(["a", "b"], [-1, 0, 0, 3]), ["a", "b"]), entitlement=Fraction(1))
@example(instance=(table_of(["a", "b"], [-1, 0, 0, 3]), ["a", "b"]), entitlement=Fraction(1, 2))
@example(instance=(table_of(["a", "b", "c"], [0, 0, 0, 2, 0, 2, 2, 5]), ["a", "b", "c"]), entitlement=Fraction(1, 3))
def test_price_cuts_match_bisection(instance, entitlement):
    v, items = instance
    res = aps_exact(v, entitlement, items)
    value, witness, _ = aps_bisection(v, entitlement, items)
    assert (res.value, res.witness) == (value, witness)
    assert sum(res.prices.values()) == (1 if items else 0)
    assert best_affordable(v, items, res.prices, entitlement) == res.value


def test_aps_probes_at_capacity_one_are_the_probes_at_capacity_b_rescaled(monkeypatch):
    # every packing LP aps_exact solves on corpus instances 0-59 has capacity
    # 1; at capacity b the same pivots give the same duals and b times x
    probes = []

    def recording(objective, a_ub=(), b_ub=()):
        probes.append((objective, a_ub, b_ub, b))
        return solve_lp(objective, a_ub, b_ub)

    pivots = []
    pivot = simplex._Tableau._pivot

    def recording_pivot(tab, row, col):
        pivots.append((row, col))
        pivot(tab, row, col)

    monkeypatch.setattr(shares, "solve_lp", recording)
    for idx in range(60):
        inst = ch.instance(idx)
        for spec in inst.agents:
            b = spec.entitlement
            aps_exact(spec.valuation, b, inst.items)
    assert probes
    monkeypatch.setattr(simplex._Tableau, "_pivot", recording_pivot)
    for objective, a_ub, b_ub, b in probes:
        assert b_ub == [1] * len(a_ub)
        pivots.clear()
        at_one = solve_lp(objective, a_ub, b_ub)
        one_pivots = list(pivots)
        pivots.clear()
        at_b = solve_lp(objective, a_ub, [b] * len(a_ub))
        assert pivots == one_pivots
        assert at_one.duals == at_b.duals
        assert at_one.x == [x / b for x in at_b.x]
        assert at_one.objective == at_b.objective / b


def test_price_cuts_solve_fewer_lps_than_bisection(monkeypatch):
    solves = 0

    def counting(*args, **kwargs):
        nonlocal solves
        solves += 1
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr(shares, "solve_lp", counting)
    bisection = 0
    for idx in range(60):
        inst = ch.instance(idx)
        for spec in inst.agents:
            assert aps_exact(spec.valuation, spec.entitlement, inst.items) == ch.aps_of(idx, spec.id)
            bisection += aps_bisection(spec.valuation, spec.entitlement, inst.items)[2]
    assert solves < bisection


def test_corpus_aps_prices_bound_the_share_from_above():
    # the prices that come with each share: a point of the price simplex under
    # which the agent's budget buys exactly the share, no more
    for idx in range(60):
        inst = ch.instance(idx)
        for spec in inst.agents:
            res = ch.aps_of(idx, spec.id)
            assert sorted(res.prices) == sorted(inst.items)
            assert all(p >= 0 for p in res.prices.values())
            assert sum(res.prices.values()) == 1
            assert best_affordable(spec.valuation, inst.items, res.prices, spec.entitlement) == res.value


def test_corpus_aps_prices_are_pinned():
    # all 180 agents of corpus instances 0-59: each item's price, items sorted
    lines = []
    for idx in range(60):
        for agent_id in ch.instance(idx).agent_ids:
            prices = ch.aps_of(idx, agent_id).prices
            lines.append(f"{idx} {agent_id} " + " ".join(f"{e}:{p}" for e, p in sorted(prices.items())))
    assert len(lines) == 180
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "5bf9803d4a7f3bd434cd9840a4adf572d2df98467592a8313523c3200aa22cf2"
    )


def test_corpus_shares_from_the_coverage_table_match_the_query_table():
    # each corpus agent's coverage oracle computes its table by mask; the same
    # set function behind the base class queries it bundle by bundle
    for idx in range(60):
        inst = ch.instance(idx)
        for spec in inst.agents:
            plain = DelegatingOracle(spec.valuation)
            assert aps_exact(plain, spec.entitlement, inst.items) == ch.aps_of(idx, spec.id)
            assert mms_exact(plain, len(inst.agents), inst.items) == ch.mms_of(idx, spec.id)


def test_mms_right_after_aps_on_one_oracle_queries_nothing():
    v, items = coverage_fixture(21, m=6)
    aps_exact(v, Fraction(1, 3), items)
    before = v.query_count
    assert before == 1 << len(items)
    res = mms_exact(v, 3, items)
    assert v.query_count == before
    fresh, _ = coverage_fixture(21, m=6)
    assert res == mms_exact(fresh, 3, items)


def test_each_oracle_gets_its_own_table():
    items = ["e1", "e2", "e3"]
    low = AdditiveValuation({"e1": 1, "e2": 1, "e3": 1})
    high = AdditiveValuation({"e1": 2, "e2": 2, "e3": 2})
    assert aps_exact(low, Fraction(1, 3), items).value == 1
    assert aps_exact(high, Fraction(1, 3), items).value == 2
    assert high.query_count == 1 << len(items)
    assert mms_exact(low, 3, items).value == 1
    assert mms_exact(high, 3, items).value == 2


def test_each_item_set_gets_its_own_table():
    v = AdditiveValuation({"e1": 1, "e2": 2, "e3": 4})
    assert aps_exact(v, 1, ["e1", "e2", "e3"]).value == 7
    assert aps_exact(v, 1, ["e1", "e2"]).value == 3
    assert mms_exact(v, 1, ["e1", "e2"]).value == 3
    assert mms_exact(v, 1, ["e2", "e3"]).value == 6
    assert mms_exact(v, 1, ["e3", "e2"]).value == 6  # the same set in another order


def test_size_guard_holds_for_a_memoised_table(monkeypatch):
    v = AdditiveValuation({f"e{i}": 1 for i in range(5)})
    items = [f"e{i}" for i in range(5)]
    assert aps_exact(v, Fraction(1, 2), items).value == 2
    monkeypatch.setenv("BIDFAIR_SIZE_GUARD", "4")
    with pytest.raises(SizeGuardExceeded):
        mms_exact(v, 2, items)
    with pytest.raises(SizeGuardExceeded):
        aps_exact(v, Fraction(1, 2), items)
