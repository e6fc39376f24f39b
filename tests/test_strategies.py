"""Strategy behavior: bid formulas, phases, guarantees on small fixtures."""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from bidfair.engine import MODES, GameConfig, PublicState, Strategy, TieBreak, run_game
from bidfair.model import make_instance
from bidfair.shares import aps_exact, mms_exact
from bidfair.strategies import (
    AltruisticProportionalBidder,
    ConstantBidder,
    GreedyMarginalBidder,
    ProportionalBidder,
    ScriptedBidder,
    UnitDemandFullBudgetBidder,
    ZeroBidder,
    _MarginalRanking,
    default_rho,
    first_remaining,
)
from bidfair.valuations import (
    AdditiveValuation,
    ScaledValuation,
    TableValuation,
    TruncatedValuation,
    UnitDemandValuation,
    WeightedCoverageValuation,
    XOSValuation,
)


def test_default_rho_formula():
    # equal entitlements 1/n give n/(3n-2)
    for n in (2, 3, 4, 7):
        assert default_rho(Fraction(1, n)) == Fraction(n, 3 * n - 2)
    assert default_rho(Fraction(1, 2)) == Fraction(1, 2)
    assert default_rho(1) == 1


def coverage(seed, m=6, universe=5):
    rng = random.Random(seed)
    elements = [f"u{t}" for t in range(universe)]
    weights = {u: Fraction(rng.randint(1, 6)) for u in elements}
    covers = {f"e{j}": frozenset(rng.sample(elements, rng.randint(1, 3))) for j in range(m)}
    return WeightedCoverageValuation(weights, covers), [f"e{j}" for j in range(m)]


def test_single_agent_proportional_collects_everything():
    v, items = coverage(2)
    inst = make_instance(items, [("solo", 1, v)])
    share = aps_exact(v, 1, items).value
    assert share == v.value(frozenset(items))
    alloc, tr = run_game(
        inst, {"solo": ProportionalBidder(v, 1, share)}, GameConfig()
    )
    assert v.value(alloc["solo"]) == v.value(frozenset(items))


def test_zero_share_means_zero_bids():
    v = AdditiveValuation({"e1": 5})
    inst = make_instance(["e1"], [("a0", Fraction(1, 2), v), ("a1", Fraction(1, 2), v)])
    alloc, tr = run_game(
        inst,
        {"a0": ProportionalBidder(v, Fraction(1, 2), 0), "a1": ZeroBidder()},
        GameConfig(),
    )
    assert all(r.bids["a0"] == 0 for r in tr.rounds)


def test_phase_one_bid_matches_formula():
    v = AdditiveValuation({"e1": 4, "e2": 3, "e3": 2})
    b = Fraction(1, 2)
    share = aps_exact(v, b, ["e1", "e2", "e3"]).value
    rho = default_rho(b)
    inst = make_instance(["e1", "e2", "e3"], [("p", b, v), ("o", b, AdditiveValuation({}))])
    p = ProportionalBidder(v, b, share, rho)
    alloc, tr = run_game(inst, {"p": p, "o": ZeroBidder()}, GameConfig())
    # no large items here: every bid is (1/2rho)*(b/share)*(top marginal)
    factor = Fraction(1, 2) / rho * b / share
    remaining = ["e1", "e2", "e3"]
    held = []
    saw_p_bid = False
    for rnd in tr.rounds:
        if "p" in rnd.bids:
            top = max(
                v.value(frozenset(held + [e])) - v.value(frozenset(held)) for e in remaining
            )
            assert rnd.bids["p"] == min(factor * top, b)
            saw_p_bid = True
        if rnd.winner == "p":
            held.extend(rnd.items)
        remaining = [e for e in remaining if e not in rnd.items]
    assert saw_p_bid
    assert not p.budget_capped_early


def test_large_phase_bids_full_budget_and_exits_on_win():
    # one huge item forces the full-budget phase at a small rho
    v = AdditiveValuation({"big": 10, "s1": 1, "s2": 1})
    b = Fraction(1, 2)
    items = ["big", "s1", "s2"]
    share = aps_exact(v, b, items).value  # 10 at b=1/2 (big alone qualifies)
    p = ProportionalBidder(v, b, share, Fraction(1, 8))
    inst = make_instance(items, [("p", b, v), ("o", b, AdditiveValuation({}))])
    alloc, tr = run_game(inst, {"p": p, "o": ZeroBidder()}, GameConfig())
    assert tr.rounds[0].bids["p"] == b
    assert tr.rounds[0].winner == "p"
    assert tr.rounds[0].items == ("big",)
    # paying the whole budget deactivates p; the rest goes to o at zero
    assert all(r.winner == "o" for r in tr.rounds[1:])


def test_large_phase_pick_is_by_singleton_value_even_when_holding_items():
    # at a spend cap of the whole budget, a budget-exhausting win leaves p
    # active, so p can win again in the large phase with an item already held
    weights = {"u1": 3, "u2": 3, "u3": 2}
    covers = {"a": {"u1", "u2"}, "b": {"u1"}, "c": {"u3"}}
    v = WeightedCoverageValuation(weights, covers)
    b = Fraction(1, 2)
    p = ProportionalBidder(v, b, 8, Fraction(1, 8))  # large: singleton value above 2
    inst = make_instance(["a", "b", "c"], [("p", b, v), ("o", b, AdditiveValuation({}))])
    config = GameConfig(mode="altruistic", rho=Fraction(1), tie=TieBreak("adversarial", target="o"))
    _, tr = run_game(inst, {"p": p, "o": ZeroBidder()}, config)
    # b adds nothing to a, yet is the larger single item; c is not large
    assert [r.items for r in tr.rounds] == [("a",), ("b",), ("c",)]


def test_bid_sequence_weakly_decreasing():
    for seed in range(6):
        v, items = coverage(seed)
        b = Fraction(1, 3)
        share = aps_exact(v, b, items).value
        if share == 0:
            continue
        inst = make_instance(
            items,
            [("p", b, v), ("o1", b, AdditiveValuation({})), ("o2", b, AdditiveValuation({}))],
        )
        strategies = {
            "p": ProportionalBidder(v, b, share),
            "o1": ScriptedBidder([Fraction(1, 9), Fraction(1, 18), Fraction(1, 4)]),
            "o2": ConstantBidder(Fraction(1, 12)),
        }
        _, tr = run_game(inst, strategies, GameConfig(tie=TieBreak("adversarial", target="p")))
        bids = [r.bids["p"] for r in tr.rounds if "p" in r.bids]
        assert all(x >= y for x, y in zip(bids, bids[1:]))


def test_pick_sequence_invariant_under_scaling():
    v, items = coverage(4)
    b = Fraction(1, 3)
    share = aps_exact(v, b, items).value
    c = Fraction(5, 3)

    def play(valuation, share_value):
        inst = make_instance(
            items,
            [("p", b, valuation), ("o1", b, AdditiveValuation({})), ("o2", b, AdditiveValuation({}))],
        )
        strategies = {
            "p": ProportionalBidder(valuation, b, share_value),
            "o1": ScriptedBidder([Fraction(1, 9)] * 3),
            "o2": ConstantBidder(Fraction(1, 12)),
        }
        return run_game(inst, strategies, GameConfig(tie=TieBreak("adversarial", target="p")))

    _, tr_base = play(v, share)
    _, tr_scaled = play(ScaledValuation(v, c), c * share)
    assert [r.winner for r in tr_base.rounds] == [r.winner for r in tr_scaled.rounds]
    assert [r.items for r in tr_base.rounds] == [r.items for r in tr_scaled.rounds]
    # bids are identical, not just proportional: the scale cancels
    assert [r.bids for r in tr_base.rounds] == [r.bids for r in tr_scaled.rounds]


def test_unit_demand_full_budget_guarantee():
    values = {"e1": 5, "e2": 4, "e3": 3, "e4": 2}
    v = UnitDemandValuation(values)
    b = Fraction(1, 3)
    items = list(values)
    opponents = [
        {"o1": ConstantBidder(Fraction(1, 3)), "o2": ConstantBidder(Fraction(1, 3))},
        {"o1": GreedyMarginalBidder(AdditiveValuation(values)), "o2": ConstantBidder(Fraction(1, 3))},
        {"o1": ScriptedBidder([1, 1, 1, 1]), "o2": ScriptedBidder([1, 1, 1, 1])},
    ]
    for opp in opponents:
        inst = make_instance(
            items, [("p", b, v), ("o1", b, AdditiveValuation(values)), ("o2", b, AdditiveValuation(values))]
        )
        strategies = {"p": UnitDemandFullBudgetBidder(v), **opp}
        alloc, tr = run_game(
            inst, strategies, GameConfig(tie=TieBreak("adversarial", target="p"))
        )
        first_win = next(i for i, r in enumerate(tr.rounds, start=1) if r.winner == "p")
        assert first_win <= 3  # floor(1/b)
        assert v.value(alloc["p"]) >= 3  # the closed-form share


def test_unit_demand_single_agent_takes_best():
    v = UnitDemandValuation({"e1": 5, "e2": 9})
    inst = make_instance(["e1", "e2"], [("p", 1, v)])
    alloc, tr = run_game(inst, {"p": UnitDemandFullBudgetBidder(v)}, GameConfig())
    assert "e2" in alloc["p"]
    assert tr.rounds[0].items == ("e2",)


def test_unit_demand_guarantee_in_multi_pick_mode():
    values = {"e1": 5, "e2": 4, "e3": 3, "e4": 2, "e5": 1}
    v = UnitDemandValuation(values)
    b = Fraction(1, 3)

    class GrabTwo(ConstantBidder):
        def pick(self, state):
            return sorted(state.remaining)[:min(2, len(state.remaining))]

    inst = make_instance(
        list(values),
        [("p", b, v), ("o1", b, AdditiveValuation(values)), ("o2", b, AdditiveValuation(values))],
    )
    strategies = {
        "p": UnitDemandFullBudgetBidder(v),
        "o1": GrabTwo(Fraction(1, 3)),
        "o2": GrabTwo(Fraction(1, 3)),
    }
    alloc, _ = run_game(
        inst, strategies, GameConfig(mode="multi_pick", tie=TieBreak("adversarial", target="p"))
    )
    assert v.value(alloc["p"]) >= 3


def test_unit_demand_with_too_few_items_is_fine():
    v = UnitDemandValuation({"e1": 5, "e2": 4})
    b = Fraction(1, 3)
    inst = make_instance(
        ["e1", "e2"],
        [("p", b, v), ("o1", b, AdditiveValuation({})), ("o2", b, AdditiveValuation({}))],
    )
    strategies = {
        "p": UnitDemandFullBudgetBidder(v),
        "o1": ConstantBidder(Fraction(1, 3)),
        "o2": ConstantBidder(Fraction(1, 3)),
    }
    run_game(inst, strategies, GameConfig(tie=TieBreak("adversarial", target="p")))


def test_altruistic_single_item():
    v = AdditiveValuation({"e1": 5})
    inst = make_instance(["e1"], [("p", 1, v)])
    alloc, tr = run_game(
        inst,
        {"p": AltruisticProportionalBidder(v, 1, 5)},
        GameConfig(mode="altruistic", rho=Fraction(10, 27)),
    )
    assert v.value(alloc["p"]) == 5
    assert tr.rounds[0].bids["p"] == 1  # scaled marginal capped at the budget


def test_altruistic_value_tracks_spend():
    # every payment is matched by at least that much scaled value gained
    v, items = coverage(8)
    n = 3
    b = Fraction(1, n)
    share = mms_exact(v, n, items).value
    inst = make_instance(
        items,
        [("p", b, v), ("o1", b, AdditiveValuation({})), ("o2", b, AdditiveValuation({}))],
    )
    strategies = {
        "p": AltruisticProportionalBidder(v, b, share),
        "o1": ConstantBidder(Fraction(1, 12)),
        "o2": ScriptedBidder([Fraction(1, 6), Fraction(1, 24)]),
    }
    alloc, tr = run_game(
        inst, strategies, GameConfig(mode="altruistic", rho=Fraction(10, 27))
    )
    spend = sum((r.payment for r in tr.rounds if r.winner == "p"), Fraction(0))
    scaled_value = (b / share) * min(v.value(alloc["p"]), share)
    assert scaled_value >= spend


def test_scripted_bidder_replays_and_clamps():
    v = AdditiveValuation({"e1": 1, "e2": 1})
    inst = make_instance(["e1", "e2"], [("a0", Fraction(1, 2), v), ("a1", Fraction(1, 2), v)])
    s = ScriptedBidder([Fraction(3, 4), Fraction(1, 8)], ["e2", "e1"])
    alloc, tr = run_game(inst, {"a0": s, "a1": ZeroBidder()}, GameConfig())
    assert tr.rounds[0].bids["a0"] == Fraction(1, 2)  # clamped to budget
    assert tr.rounds[0].items == ("e2",)
    assert tr.violations == ()  # self-clamped, not an engine repair


def test_factories_build_the_right_strategies():
    v = AdditiveValuation({"e1": 2})
    p = ProportionalBidder(v, Fraction(1, 3), 6)
    assert p.rho == default_rho(Fraction(1, 3))  # default aggressiveness
    p2 = ProportionalBidder(v, Fraction(1, 3), 6, rho=Fraction(1, 5))
    assert p2.rho == Fraction(1, 5)
    a = AltruisticProportionalBidder(v, Fraction(1, 2), 4)
    assert a.rho == Fraction(1, 2)  # the proportional bidder at rho = 1/2


def test_game_query_counts_stay_polynomial():
    # a full game costs the bidder at most a few value queries per item pair
    for seed in (0, 1, 2):
        v, items = coverage(seed, m=8, universe=6)
        m = len(items)
        b = Fraction(1, 3)
        share = aps_exact(v, b, items).value
        p = ProportionalBidder(v, b, share)
        inst = make_instance(
            items,
            [("p", b, v), ("o1", b, AdditiveValuation({})), ("o2", b, AdditiveValuation({}))],
        )
        strategies = {
            "p": p,
            "o1": ConstantBidder(Fraction(1, 16)),
            "o2": ScriptedBidder([Fraction(1, 8)] * m),
        }
        before = p.valuation.query_count  # the agent's own oracle, which the ranking queries
        run_game(inst, strategies, GameConfig())
        spent = p.valuation.query_count - before
        assert spent <= 8 * (m + 2) * (m + 2)


def test_game_query_counts_stay_within_one_ranking_per_bundle():
    # the bidder ranks the remaining items once per bundle it holds; the
    # large items come from the first ranking
    for seed in range(40):
        v, items = coverage(seed, m=8, universe=6)
        m = len(items)
        b = Fraction(1, 3)
        share = aps_exact(v, b, items).value
        p = ProportionalBidder(v, b, share)
        inst = make_instance(
            items,
            [("p", b, v), ("o1", b, AdditiveValuation({})), ("o2", b, AdditiveValuation({}))],
        )
        strategies = {
            "p": p,
            "o1": ConstantBidder(Fraction(1, 16)),
            "o2": ScriptedBidder([Fraction(1, 8)] * m),
        }
        before = p.valuation.query_count
        _, tr = run_game(inst, strategies, GameConfig())
        spent = p.valuation.query_count - before
        wins = sum(1 for r in tr.rounds if r.winner == "p")
        assert spent <= (wins + 3) * (m + 1), seed


# -- the strategies against the full scan they replaced --------------------


def _best_marginal(v, held, remaining):
    """Rescan every remaining item: maximal marginal value, first on ties."""
    best_item = None
    best = Fraction(0)
    base_value = v.value(held)
    for item in sorted(remaining):
        gain = v.value(held | {item}) - base_value
        if best_item is None or gain > best:
            best_item = item
            best = gain
    return best_item, best


def _best(ranking, held, remaining):
    """The ranking's best item over ``held`` and its gain as a ``Fraction``."""
    return ranking.advance(held, remaining), Fraction(*ranking.gain)


def _best_singleton(v, remaining):
    best_item = None
    best = Fraction(0)
    for item in sorted(remaining):
        val = v.value(frozenset([item]))
        if best_item is None or val > best:
            best_item = item
            best = val
    return best_item, best


class ScanProportionalBidder(ProportionalBidder):
    """The proportional bidder over its own oracle truncated at the share."""

    def __init__(self, valuation, entitlement, share, rho=None):
        super().__init__(valuation, entitlement, share, rho)
        if self.share > 0:
            self.valuation = TruncatedValuation(valuation, self.share)

    def _scan_large_phase(self, remaining):
        if self.share == 0:
            return False
        threshold = 2 * self.rho * self.share
        return any(self.valuation.value(frozenset([e])) > threshold for e in remaining)

    def bid(self, state):
        if self.share == 0:
            return Fraction(0)
        budget = state.budgets[self.agent_id]
        if self._scan_large_phase(state.remaining):
            return budget
        held = state.bundles[self.agent_id]
        _, top_marginal = _best_marginal(self.valuation, held, state.remaining)
        formula = Fraction(1, 2) / self.rho * self.entitlement / self.share * top_marginal
        if formula > budget:
            if self.valuation.value(held) < self.rho * self.share:
                self.budget_capped_early = True
            return budget
        return formula

    def pick(self, state):
        if self.share > 0 and self._scan_large_phase(state.remaining):
            item, _ = _best_singleton(self.valuation, state.remaining)
        else:
            item, gain = _best_marginal(self.valuation, state.bundles[self.agent_id], state.remaining)
            if gain == 0:
                item = sorted(state.remaining)[0]
        return [item]


class ScanAltruisticBidder(Strategy):
    """The spend-capped bidder written out on its own: truncate at the share,
    bid (b / share) * (top marginal) capped at the budget."""

    def __init__(self, valuation, entitlement, share):
        self.share = Fraction(share)
        self.valuation = TruncatedValuation(valuation, self.share) if self.share > 0 else valuation
        self.scale = Fraction(entitlement) / self.share if self.share > 0 else Fraction(0)

    def bid(self, state):
        if self.share == 0:
            return Fraction(0)
        _, top_marginal = _best_marginal(self.valuation, state.bundles[self.agent_id], state.remaining)
        return min(self.scale * top_marginal, state.budgets[self.agent_id])

    def pick(self, state):
        item, gain = _best_marginal(self.valuation, state.bundles[self.agent_id], state.remaining)
        if gain == 0:
            item = sorted(state.remaining)[0]
        return [item]


@st.composite
def ceiling_cases(draw):
    """A table valuation around a ceiling, and the order in which its items
    leave, each into the held bundle or not."""
    items = [f"e{j}" for j in range(draw(st.integers(0, 4)))]
    ceiling = draw(st.fractions(0, 4, max_denominator=6))
    value = st.sampled_from([ceiling, ceiling + Fraction(1, 7)]) | st.fractions(-2, 5, max_denominator=5)
    table = {
        frozenset(e for j, e in enumerate(items) if mask >> j & 1): draw(value)
        for mask in range(1 << len(items))
    }
    order = draw(st.permutations(items))
    kept = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return items, table, ceiling, list(zip(order, kept))


@settings(max_examples=300, deadline=None)
@given(case=ceiling_cases())
def test_ceiling_ranking_matches_the_truncated_scan(case):
    items, table, ceiling, moves = case
    v = TableValuation(items, table)
    truncated = TruncatedValuation(v, ceiling)
    ranking = _MarginalRanking(v, ceiling)
    held, remaining = frozenset(), list(items)
    for item, keep in moves + [(None, False)]:
        assert _best(ranking, held, remaining) == _best_marginal(truncated, held, remaining)
        assert Fraction(*ranking.base) == truncated.value(held)
        # the cursor's one-call advance, from every start, against a set scan
        ranked, in_play = ranking._items, set(remaining)
        for start in range(len(ranked) + 1):
            scan = next((i for i in range(start, len(ranked)) if ranked[i] in in_play), len(ranked))
            assert first_remaining(ranked, start, remaining) == scan
        if item is None:
            break
        remaining.remove(item)
        if keep:
            held = held | {item}


@st.composite
def shared_ranking_cases(draw):
    """One table valuation and several rankings on it: no ceiling and two
    ceilings, each with its own order of leaving items, the last over a
    strict subset of the items; and the order in which the rankings move."""
    items = [f"e{j}" for j in range(draw(st.integers(1, 4)))]
    ceilings = draw(st.lists(st.fractions(0, 4, max_denominator=6), min_size=2, max_size=2, unique=True))
    value = st.sampled_from(ceilings) | st.fractions(-2, 5, max_denominator=5)
    table = {
        frozenset(e for j, e in enumerate(items) if mask >> j & 1): draw(value)
        for mask in range(1 << len(items))
    }
    subset = sorted(draw(st.sets(st.sampled_from(items), max_size=len(items) - 1)))
    last = draw(st.sampled_from([None, *ceilings]))
    rankings = []
    for ceiling, universe in [(None, items), (ceilings[0], items), (ceilings[1], items), (last, subset)]:
        order = draw(st.permutations(universe))
        kept = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
        rankings.append((ceiling, universe, list(zip(order, kept))))
    turns = [r for r, (_, universe, _) in enumerate(rankings) for _ in range(len(universe) + 1)]
    turns = draw(st.permutations(turns))
    return items, table, rankings, turns


@settings(max_examples=300, deadline=None)
@given(case=shared_ranking_cases())
@example(
    # the ranking over the strict subset goes first and stores the entries of
    # {} and {e0}; the first full ranking reaches both with e2 still in play,
    # so it must rank them again, and over {e0} its best item is then e2
    case=(
        ["e0", "e1", "e2"],
        {
            frozenset(e for j, e in enumerate(["e0", "e1", "e2"]) if mask >> j & 1): Fraction(
                sum(w for j, w in enumerate([3, 1, 2]) if mask >> j & 1)
            )
            for mask in range(8)
        },
        [
            (None, ["e0", "e1", "e2"], [("e0", True), ("e1", False), ("e2", True)]),
            (Fraction(1), ["e0", "e1", "e2"], [("e0", False), ("e1", True), ("e2", False)]),
            (Fraction(5, 2), ["e0", "e1", "e2"], [("e2", True), ("e0", True), ("e1", True)]),
            (None, ["e0", "e1"], [("e0", True), ("e1", True)]),
        ],
        [3, 3, 3, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2],
    )
)
def test_rankings_sharing_an_oracle_match_the_truncated_scan(case):
    # the rankings on one oracle share the latest untruncated ranking of each
    # held bundle, replaced when one needs more items than it covers; each
    # must still read as its own scan
    items, table, rankings, turns = case
    v = TableValuation(items, table)
    states = []
    for ceiling, universe, moves in rankings:
        scan = v if ceiling is None else TruncatedValuation(v, ceiling)
        ranking = _MarginalRanking(v, ceiling)
        states.append([ranking, scan, frozenset(), list(universe), iter(moves)])
    for r in turns:
        ranking, scan, held, remaining, moves = states[r]
        assert _best(ranking, held, remaining) == _best_marginal(scan, held, remaining)
        assert Fraction(*ranking.base) == scan.value(held)
        item, keep = next(moves, (None, False))
        if item is not None:
            remaining.remove(item)
            if keep:
                states[r][2] = held | {item}


def test_rankings_let_their_oracle_go():
    v = AdditiveValuation({"e1": 2, "e2": 1})
    ranking = _MarginalRanking(v, Fraction(3, 2))
    assert _best(ranking, frozenset(), ["e1", "e2"]) == ("e1", Fraction(3, 2))
    assert _best(ranking, frozenset(["e1"]), ["e2"]) == ("e2", Fraction(0))
    ref = weakref.ref(v)
    del v, ranking
    gc.collect()
    assert ref() is None


def test_a_ranking_asks_only_about_items_in_play():
    asked = []

    class Recording(AdditiveValuation):
        def value(self, bundle):
            asked.append(frozenset(bundle))
            return super().value(bundle)

    v = Recording({"e1": 3, "e2": 2, "e3": 1})
    ranking = _MarginalRanking(v)
    assert _best(ranking, frozenset(), ["e1", "e2", "e3"]) == ("e1", 3)
    asked.clear()
    # e2 has left the game: ranking over {e1} asks nothing about it
    assert _best(ranking, frozenset(["e1"]), ["e3"]) == ("e3", 1)
    assert asked and all(bundle <= {"e1", "e3"} for bundle in asked)


def _bid(p, remaining, budget, held=()):
    state = PublicState(1, tuple(remaining), {"p": budget}, {"p": frozenset(held)}, ())
    return p.bid(state)


def _fresh_bid(make, *state):
    p = make()
    p.start("p", None, None)
    return _bid(p, *state)


def test_proportional_bid_is_reused_only_while_gain_and_budget_stand():
    v = AdditiveValuation({"e1": 6, "e2": 3, "e3": 1})
    b = Fraction(1, 2)

    def make():
        return ProportionalBidder(v, b, 8, Fraction(1, 2))  # bids gain / 16

    p = make()
    p.start("p", None, None)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    states = [
        (("e1", "e2", "e3"), half, (), Fraction(3, 8)),
        (("e1", "e2", "e3"), quarter, (), quarter),  # only the budget changes
        (("e1", "e2", "e3"), Fraction(1, 2), (), Fraction(3, 8)),  # an equal budget object
        (("e2", "e3"), half, (), Fraction(3, 16)),  # only the top item leaves
        (("e2", "e3"), half, ("e1",), Fraction(1, 8)),  # the bundle changes: min(9, 8) - 6
    ]
    for remaining, budget, held, expected in states:
        bid = _bid(p, remaining, budget, held)
        assert bid == _fresh_bid(make, remaining, budget, held) == expected


def test_an_item_at_exactly_twice_rho_share_is_not_large():
    v = UnitDemandValuation({"e1": 4, "e2": 3})
    b = Fraction(1, 3)

    def make():
        return ProportionalBidder(v, b, 8, Fraction(1, 4))  # 2 * rho * share = 4

    p = make()
    p.start("p", None, None)
    assert _bid(p, ("e1", "e2"), b) == b  # the formula bid, (1/12) * 4
    # e1 adds 1 to e2: a large e1 would keep the bid at the whole budget
    state = (("e1",), Fraction(1, 6), ("e2",))
    assert _bid(p, *state) == _fresh_bid(make, *state) == Fraction(1, 12)


class ScanGreedyMarginalBidder(GreedyMarginalBidder):
    def bid(self, state):
        _, top = _best_marginal(self.valuation, state.bundles[self.agent_id], state.remaining)
        return min(top, state.budgets[self.agent_id])

    def pick(self, state):
        item, gain = _best_marginal(self.valuation, state.bundles[self.agent_id], state.remaining)
        if gain == 0:
            item = sorted(state.remaining)[0]
        return [item]


class ScanUnitDemandBidder(UnitDemandFullBudgetBidder):
    """Bids nothing once it has won, by a flag rather than by its budget."""

    won = False

    def bid(self, state):
        return Fraction(0) if self.won else state.budgets[self.agent_id]

    def pick(self, state):
        item, _ = _best_singleton(self.valuation, state.remaining)
        self.won = True
        return [item]


RANKED_AND_SCAN = {
    "proportional": (ProportionalBidder, ScanProportionalBidder),
    "altruistic": (AltruisticProportionalBidder, ScanAltruisticBidder),
    "greedy": (GreedyMarginalBidder, ScanGreedyMarginalBidder),
    "unit_demand": (UnitDemandFullBudgetBidder, ScanUnitDemandBidder),
}

small_ints = st.integers(0, 3)  # few distinct values, so many tied gains


@st.composite
def small_valuation(draw, items):
    kind = draw(st.sampled_from(["additive", "coverage", "xos", "table"]))
    if kind == "additive":
        return AdditiveValuation({e: draw(small_ints) for e in items})
    if kind == "coverage":
        elements = [f"u{t}" for t in range(draw(st.integers(1, 4)))]
        weights = {u: draw(st.integers(1, 3)) for u in elements}
        covers = {e: draw(st.sets(st.sampled_from(elements), max_size=2)) for e in items}
        return WeightedCoverageValuation(weights, covers)
    if kind == "xos":
        clauses = draw(st.lists(st.dictionaries(st.sampled_from(items), small_ints), min_size=1, max_size=3))
        return XOSValuation(clauses)
    # non-monotone, possibly nonzero on the empty bundle
    m = len(items)
    table = {
        frozenset(items[j] for j in range(m) if mask >> j & 1): draw(st.integers(-2, 4))
        for mask in range(1 << m)
    }
    return TableValuation(items, table)


@st.composite
def small_games(draw):
    items = [f"e{j}" for j in range(draw(st.integers(1, 5)))]
    n = draw(st.integers(1, 3))
    ids = [f"a{i}" for i in range(n)]
    mode = draw(st.sampled_from(MODES))
    rho = draw(st.fractions(Fraction(1, 4), 1, max_denominator=4)) if mode == "altruistic" else None
    if draw(st.booleans()):
        tie = TieBreak("seeded", seed=draw(st.integers(0, 1000)))
    else:
        tie = TieBreak("adversarial", target=draw(st.sampled_from(ids)))
    agents = []
    for agent_id in ids:
        v = draw(small_valuation(items))
        kind = draw(st.sampled_from(sorted(RANKED_AND_SCAN) + ["constant"]))
        share = draw(st.fractions(0, 6, max_denominator=3))
        strategy_rho = draw(st.none() | st.fractions(Fraction(1, 8), 1, max_denominator=8))
        agents.append((agent_id, v, kind, share, strategy_rho, draw(st.integers(0, 4))))
    return items, agents, GameConfig(mode=mode, rho=rho, tie=tie)


def play_small_game(game, scan):
    items, agents, config = game
    b = Fraction(1, len(agents))
    strategies = {}
    for agent_id, v, kind, share, strategy_rho, constant in agents:
        if kind == "constant":
            strategies[agent_id] = ConstantBidder(Fraction(constant, 4) * b)
            continue
        cls = RANKED_AND_SCAN[kind][scan]
        if kind == "proportional":
            strategies[agent_id] = cls(v, b, share, strategy_rho)
        elif kind == "altruistic":
            strategies[agent_id] = cls(v, b, share)
        else:
            strategies[agent_id] = cls(v)
    inst = make_instance(items, [(agent_id, b, v) for agent_id, v, *_ in agents])
    _, transcript = run_game(inst, strategies, config)
    capped = {a: strategies[a].budget_capped_early for a, _, kind, *_ in agents if kind == "proportional"}
    return transcript, capped


def _large_phase_edge(empty):
    """a0 bids at b = 1/2, share 4 and rho 1/4 on a table with v(a) = v(ab) =
    empty + 1 and v(b) = empty: a's truncated value is v(empty) + gain, with
    gain 1, against 2 * rho * share = 2; a0 bids the budget only when a is large."""
    table = {frozenset(): empty, frozenset("a"): empty + 1, frozenset("b"): empty, frozenset("ab"): empty + 1}
    proportional = ("a0", TableValuation(["a", "b"], table), "proportional", 4, Fraction(1, 4), 0)
    return ["a", "b"], [proportional, ("a1", AdditiveValuation({}), "constant", 0, None, 0)], GameConfig()


def _cap_edge(pair):
    """a0 bids at b = 1/2, share 8 and rho 1/4 on a table where a and b are
    worth 1 each and ab is worth ``pair``: a0 wins a at 1/8, and at budget 3/8
    bids (1/8) * (pair - 1) for b, holding 1, below rho * share = 2."""
    table = {frozenset(): 0, frozenset("a"): 1, frozenset("b"): 1, frozenset("ab"): pair}
    proportional = ("a0", TableValuation(["a", "b"], table), "proportional", 8, Fraction(1, 4), 0)
    return ["a", "b"], [proportional, ("a1", AdditiveValuation({}), "constant", 0, None, 0)], GameConfig()


@example(game=_cap_edge(4))  # the formula bid is the budget exactly: the cap does not bind
@example(game=_cap_edge(5))  # the formula bid 1/2 is above the budget: the cap binds early
@example(game=_large_phase_edge(1))  # a is worth exactly 2, not large: a0 bids 1/4
@example(game=_large_phase_edge(2))  # a is worth 3 although it adds 1: a0 bids 1/2
# at a spend cap of the whole budget a0 wins large a, stays active at budget 0
# and wins the ties at 0; x is the larger single item but not large, so the
# phase is over and a0 takes y, which adds more to a
@example(game=(
    ["a", "x", "y"],
    [
        ("a0", WeightedCoverageValuation({"u1": 2, "u2": 4, "u3": 1}, {"a": {"u1", "u2"}, "x": {"u1"}, "y": {"u3"}}),
         "proportional", 8, Fraction(1, 8), 0),
        ("a1", AdditiveValuation({}), "constant", 0, None, 0),
    ],
    GameConfig(mode="altruistic", rho=Fraction(1), tie=TieBreak("adversarial", target="a1")),
))
@settings(max_examples=300, deadline=None)
@given(game=small_games())
def test_ranked_strategies_play_the_full_scan_games(game):
    assert play_small_game(game, scan=False) == play_small_game(game, scan=True)


class FreshTwin(Strategy):
    """Plays ``make()``, and at every bid and pick builds and starts a fresh
    ``make()`` at the same state, which must answer the same."""

    def __init__(self, make):
        self.make = make
        self.inner = make()
        self.fresh_capped = False  # did some fresh bidder's cap bind at its first bid?

    def start(self, agent_id, instance, config):
        super().start(agent_id, instance, config)
        self.inner.start(agent_id, instance, config)
        self.game = (agent_id, instance, config)

    def fresh(self):
        bidder = self.make()
        bidder.start(*self.game)
        return bidder

    def bid(self, state):
        fresh = self.fresh()
        answer = self.inner.bid(state)
        assert fresh.bid(state) == answer, f"bid differs in round {state.round}"
        self.fresh_capped |= fresh.budget_capped_early
        return answer

    def pick(self, state):
        answer = list(self.inner.pick(state))
        assert list(self.fresh().pick(state)) == answer, f"pick differs in round {state.round}"
        return answer


@settings(max_examples=300, deadline=None)
@given(game=small_games(), strict=st.booleans())
def test_a_fresh_proportional_bidder_decides_like_the_one_in_game(game, strict):
    # a bidder's decisions depend on the public state and its arguments only,
    # so a search may build one per state; its budget_capped_early, read after
    # one bid, says whether the cap binds at that state
    items, agents, config = game
    config = dataclasses.replace(config, strict_threshold=strict)
    b = Fraction(1, len(agents))
    strategies = {}
    for agent_id, v, kind, share, strategy_rho, constant in agents:
        if kind == "proportional":
            strategies[agent_id] = FreshTwin(lambda v=v, s=share, r=strategy_rho: ProportionalBidder(v, b, s, r))
        elif kind == "altruistic":
            strategies[agent_id] = FreshTwin(lambda v=v, s=share: AltruisticProportionalBidder(v, b, s))
        elif kind == "constant":
            strategies[agent_id] = ConstantBidder(Fraction(constant, 4) * b)
        else:
            strategies[agent_id] = RANKED_AND_SCAN[kind][0](v)
    run_game(make_instance(items, [(agent_id, b, v) for agent_id, v, *_ in agents]), strategies, config)
    for twin in strategies.values():
        if isinstance(twin, FreshTwin):
            assert twin.inner.budget_capped_early == twin.fresh_capped
