"""Game engine mechanics: rounds, ties, deactivation, replay verification."""

import dataclasses
import hashlib
from fractions import Fraction

import corpus_helpers as ch
import pytest
from hypothesis import given, settings, strategies as st

from bidfair import serialize
from bidfair.analysis import guarantee_report
from bidfair.engine import (
    MODES,
    GameConfig,
    PublicState,
    Round,
    RuleViolation,
    StrategyError,
    TieBreak,
    Transcript,
    _Ledger,
    _TieBreaker,
    _settle,
    check_transcript,
    run_game,
    state_after,
    verify_transcript,
)
from bidfair.model import make_instance
from bidfair.negatives import gen_xos_hard
from bidfair.strategies import (
    AltruisticProportionalBidder,
    ConstantBidder,
    GreedyMarginalBidder,
    ProportionalBidder,
    RandomBidder,
    ScriptedBidder,
    ZeroBidder,
    default_rho,
)
from bidfair.valuations import AdditiveValuation
from bidfair.wrapper import MMS_GAME_RHO


def two_agent_instance(items_values=None, b0=Fraction(1, 2)):
    items_values = items_values or {"e1": 3, "e2": 2, "e3": 1}
    v = AdditiveValuation(items_values)
    return make_instance(
        list(items_values),
        [("a0", b0, v), ("a1", 1 - b0, AdditiveValuation(items_values))],
    )


def test_single_agent_wins_until_budget_exhausted():
    v = AdditiveValuation({"e1": 3, "e2": 2})
    inst = make_instance(["e1", "e2"], [("solo", 1, v)])
    alloc, tr = run_game(inst, {"solo": ConstantBidder(1)}, GameConfig())
    # full-budget bid wins round 1 and exhausts the budget; e2 stays on the table
    assert alloc["solo"] == frozenset(["e1"])
    assert tr.unallocated == ("e2",)
    assert len(tr.rounds) == 1
    assert verify_transcript(tr, inst)


def test_budget_conservation():
    inst = two_agent_instance()
    alloc, tr = run_game(
        inst, {"a0": GreedyMarginalBidder(inst.valuation("a0")), "a1": RandomBidder(3)},
        GameConfig(),
    )
    for agent in inst.agent_ids:
        paid = sum((r.payment for r in tr.rounds if r.winner == agent), Fraction(0))
        final = state_after(inst, tr, len(tr.rounds)).budgets[agent]
        assert paid + final == inst.entitlement(agent)
    assert verify_transcript(tr, inst)


def test_identical_seeds_identical_transcripts():
    inst = two_agent_instance()
    config = GameConfig(tie=TieBreak(policy="seeded", seed=7))
    runs = []
    for _ in range(2):
        strategies = {"a0": RandomBidder(5), "a1": RandomBidder(6)}
        runs.append(run_game(inst, strategies, config))
    assert runs[0][1] == runs[1][1]
    assert runs[0][0] == runs[1][0]


def test_zero_bids_still_allocate_every_item():
    inst = two_agent_instance()
    alloc, tr = run_game(inst, {"a0": ZeroBidder(), "a1": ZeroBidder()}, GameConfig())
    assert tr.unallocated == ()
    assert len(tr.rounds) == 3
    # lexicographic ties: a0 wins every round
    assert all(r.winner == "a0" for r in tr.rounds)
    assert verify_transcript(tr, inst)


def test_adversarial_ties_never_favor_target():
    inst = two_agent_instance()
    config = GameConfig(tie=TieBreak(policy="adversarial", target="a0"))
    alloc, tr = run_game(inst, {"a0": ZeroBidder(), "a1": ZeroBidder()}, config)
    assert all(r.winner == "a1" for r in tr.rounds)
    assert verify_transcript(tr, inst)


def test_scripted_tiebreak_preferences():
    inst = two_agent_instance()
    config = GameConfig(tie=TieBreak(policy="scripted", prefs=(("a1",), ("a0",), ("a1",))))
    _, tr = run_game(inst, {"a0": ZeroBidder(), "a1": ZeroBidder()}, config)
    assert [r.winner for r in tr.rounds] == ["a1", "a0", "a1"]
    assert verify_transcript(tr, inst)


def test_overbidding_is_clamped_and_reported():
    inst = two_agent_instance()
    _, tr = run_game(
        inst, {"a0": ConstantBidder(5), "a1": ZeroBidder()}, GameConfig()
    )
    assert not tr.violations
    # ConstantBidder clamps itself, to the budget left after each win
    _, tr = run_game(inst, {"a0": ConstantBidder(Fraction(2, 5)), "a1": ZeroBidder()}, GameConfig())
    assert [r.bids["a0"] for r in tr.rounds[:2]] == [Fraction(2, 5), Fraction(1, 10)]
    assert not tr.violations
    # force a violation through a raw strategy
    class Overbidder(ZeroBidder):
        def bid(self, state):
            return state.budgets[self.agent_id] + 1

    _, tr2 = run_game(inst, {"a0": Overbidder(), "a1": ZeroBidder()}, GameConfig())
    assert tr2.violations
    assert all(r.bids["a0"] == inst.entitlement("a0") for r in tr2.rounds[:1])
    assert verify_transcript(tr2, inst)


def test_strategy_reuse_rejected():
    inst = two_agent_instance()
    s = ZeroBidder()
    run_game(inst, {"a0": s, "a1": ZeroBidder()}, GameConfig())
    with pytest.raises(StrategyError):
        run_game(inst, {"a0": s, "a1": ZeroBidder()}, GameConfig())


def test_unavailable_pick_raises():
    inst = two_agent_instance()
    # wins twice but the pick script points at the already-taken item
    bad = ScriptedBidder([Fraction(1, 8), Fraction(1, 8)], ["e1", "e1"])
    with pytest.raises(StrategyError):
        run_game(inst, {"a0": bad, "a1": ZeroBidder()}, GameConfig())


def test_multi_pick_pays_per_item():
    v = AdditiveValuation({"e1": 1, "e2": 1, "e3": 1})
    inst = make_instance(["e1", "e2", "e3"], [("a0", Fraction(1, 2), v), ("a1", Fraction(1, 2), v)])

    class TakeTwo(ConstantBidder):
        def pick(self, state):
            return sorted(state.remaining)[:2]

    alloc, tr = run_game(
        inst,
        {"a0": TakeTwo(Fraction(1, 4)), "a1": ZeroBidder()},
        GameConfig(mode="multi_pick"),
    )
    assert tr.rounds[0].items == ("e1", "e2")
    assert tr.rounds[0].payment == Fraction(1, 2)
    assert verify_transcript(tr, inst)


def test_multi_pick_clamps_unaffordable_grabs():
    v = AdditiveValuation({"e1": 1, "e2": 1, "e3": 1})
    inst = make_instance(["e1", "e2", "e3"], [("a0", Fraction(1, 2), v), ("a1", Fraction(1, 2), v)])

    class TakeAll(ConstantBidder):
        def pick(self, state):
            return sorted(state.remaining)

    alloc, tr = run_game(
        inst,
        {"a0": TakeAll(Fraction(1, 4)), "a1": ZeroBidder()},
        GameConfig(mode="multi_pick"),
    )
    # budget 1/2 at bid 1/4 affords two of the three requested picks
    assert tr.rounds[0].items == ("e1", "e2")
    assert tr.violations
    assert verify_transcript(tr, inst)


def test_multiple_picks_rejected_outside_multi_pick():
    inst = two_agent_instance()

    class TakeTwo(ConstantBidder):
        def pick(self, state):
            return sorted(state.remaining)[:2]

    with pytest.raises(StrategyError):
        run_game(inst, {"a0": TakeTwo(Fraction(1, 4)), "a1": ZeroBidder()}, GameConfig())


def altruistic_config(rho, strict=True):
    return GameConfig(mode="altruistic", rho=rho, strict_threshold=strict)


def test_altruistic_strict_threshold_allows_hitting_cap_exactly():
    v = AdditiveValuation({"e1": 1, "e2": 1, "e3": 1})
    inst = make_instance(["e1", "e2", "e3"], [("a0", Fraction(1, 2), v), ("a1", Fraction(1, 2), v)])
    # bids of 1/8: spend reaches exactly rho*b = 1/4 after two wins
    script = ScriptedBidder([Fraction(1, 8)] * 3)
    alloc, tr = run_game(
        inst, {"a0": script, "a1": ZeroBidder()}, altruistic_config(Fraction(1, 2))
    )
    assert len(alloc["a0"]) == 3  # still active after two wins, takes the third
    assert verify_transcript(tr, inst)

    script2 = ScriptedBidder([Fraction(1, 8)] * 3)
    alloc2, tr2 = run_game(
        inst, {"a0": script2, "a1": ZeroBidder()},
        altruistic_config(Fraction(1, 2), strict=False),
    )
    assert len(alloc2["a0"]) == 2  # reaching the cap deactivates immediately
    assert verify_transcript(tr2, inst)


def test_altruistic_overshoot_only_on_final_win():
    v = AdditiveValuation({"e1": 5, "e2": 1, "e3": 1})
    inst = make_instance(["e1", "e2", "e3"], [("a0", Fraction(1, 2), v), ("a1", Fraction(1, 2), v)])
    rho = Fraction(1, 2)
    script = ScriptedBidder([Fraction(1, 5), Fraction(1, 5), Fraction(1, 5)])
    alloc, tr = run_game(inst, {"a0": script, "a1": ZeroBidder()}, altruistic_config(rho))
    wins = [r for r in tr.rounds if r.winner == "a0"]
    spend = Fraction(0)
    for r in wins[:-1]:
        spend += r.payment
        assert spend <= rho * inst.entitlement("a0")
    assert sum((r.payment for r in wins), Fraction(0)) > rho * inst.entitlement("a0")
    assert verify_transcript(tr, inst)


def test_game_length_bounded_by_item_count():
    inst = two_agent_instance()
    _, tr = run_game(
        inst, {"a0": RandomBidder(1), "a1": RandomBidder(2)}, GameConfig()
    )
    assert len(tr.rounds) <= len(inst.items)


def test_verify_rejects_tampering():
    inst = two_agent_instance()
    _, tr = run_game(
        inst, {"a0": GreedyMarginalBidder(inst.valuation("a0")), "a1": ZeroBidder()},
        GameConfig(),
    )
    assert verify_transcript(tr, inst)

    bad_payment = dataclasses.replace(
        tr,
        rounds=tr.rounds[:1]
        + (dataclasses.replace(tr.rounds[1], payment=tr.rounds[1].payment + 1),)
        + tr.rounds[2:],
    )
    assert not verify_transcript(bad_payment, inst)

    bad_winner = dataclasses.replace(
        tr, rounds=(dataclasses.replace(tr.rounds[0], winner="a1"),) + tr.rounds[1:]
    )
    assert not verify_transcript(bad_winner, inst)

    bad_alloc = dataclasses.replace(tr, allocation={"a0": frozenset(), "a1": frozenset()})
    assert not verify_transcript(bad_alloc, inst)


def test_verify_rejects_bid_after_deactivation():
    # altruistic game: an agent past her spend cap must not appear as a bidder
    v = AdditiveValuation({"e1": 1, "e2": 1, "e3": 1})
    inst = make_instance(["e1", "e2", "e3"], [("a0", Fraction(1, 2), v), ("a1", Fraction(1, 2), v)])
    config = altruistic_config(Fraction(1, 4))
    script = ScriptedBidder([Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)])
    _, tr = run_game(inst, {"a0": script, "a1": ZeroBidder()}, config)
    # a0 overshoots on her first win and leaves; forge a transcript where she
    # keeps bidding afterwards
    assert tr.rounds[0].winner == "a0"
    forged_round = Round(
        number=2,
        bids={"a0": Fraction(1, 4), "a1": Fraction(0)},
        winner="a0",
        items=tr.rounds[1].items,
        payment=Fraction(1, 4),
    )
    forged = dataclasses.replace(tr, rounds=(tr.rounds[0], forged_round) + tr.rounds[2:])
    assert not verify_transcript(forged, inst)


def test_verify_rejects_truncated_game():
    inst = two_agent_instance()
    _, tr = run_game(inst, {"a0": ZeroBidder(), "a1": ZeroBidder()}, GameConfig())
    cut = dataclasses.replace(tr, rounds=tr.rounds[:1])
    assert not verify_transcript(cut, inst)


def test_state_after_matches_manual_accounting():
    inst = two_agent_instance()
    _, tr = run_game(
        inst, {"a0": GreedyMarginalBidder(inst.valuation("a0")), "a1": ConstantBidder(Fraction(1, 8))},
        GameConfig(),
    )
    state = state_after(inst, tr, 1)
    first = tr.rounds[0]
    assert state.budgets[first.winner] == inst.entitlement(first.winner) - first.payment
    assert state.bundles[first.winner] == frozenset(first.items)
    assert state.remaining == inst.item_set - frozenset(first.items)


def test_strategies_observe_previous_bids_and_budgets():
    # a reactive strategy outbids last round's top bid by reading the history
    class Outbidder(ZeroBidder):
        def bid(self, state):
            if not state.bid_history:
                return Fraction(0)
            top = max(state.bid_history[-1].values())
            return min(top + Fraction(1, 100), state.budgets[self.agent_id])

    inst = two_agent_instance()
    _, tr = run_game(
        inst, {"a0": ConstantBidder(Fraction(1, 10)), "a1": Outbidder()}, GameConfig()
    )
    assert tr.rounds[0].winner == "a0"
    assert tr.rounds[1].bids["a1"] == Fraction(1, 10) + Fraction(1, 100)
    assert tr.rounds[1].winner == "a1"


def test_history_entries_are_read_only():
    # every bidder sees the same stored bids of a round, so none may change them
    class Scribbler(ZeroBidder):
        def bid(self, state):
            if state.bid_history:
                state.bid_history[-1]["a0"] = Fraction(1)
            return Fraction(0)

    inst = two_agent_instance()
    with pytest.raises(TypeError):
        run_game(inst, {"a0": ZeroBidder(), "a1": Scribbler()}, GameConfig())


def _sorted_pool_choice(tie, pool):
    """The tie rule as a sort states it: the first of the sorted pool, or
    under the adversarial policy the first that is not the target."""
    pool = sorted(pool)
    others = [a for a in pool if a != tie.target]
    return others[0] if tie.policy == "adversarial" and others else pool[0]


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(st.sampled_from([f"a{i}" for i in range(12)]), min_size=1, unique=True),
    case=st.sampled_from(["present", "absent", "smallest"]),
    data=st.data(),
)
def test_a_minimum_breaks_ties_as_the_sorted_pool_does(pool, case, data):
    if case == "present":
        target = data.draw(st.sampled_from(pool))
    elif case == "absent":
        target = data.draw(st.sampled_from([f"b{i}" for i in range(3)] + ["a", "z"]))
    else:
        target = min(pool)
    for tie in (TieBreak(), TieBreak(policy="adversarial", target=target)):
        assert _TieBreaker(tie).choose(list(pool), 1) == _sorted_pool_choice(tie, pool)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_seeded_games_are_reproducible(seed):
    inst = two_agent_instance()
    config = GameConfig(tie=TieBreak(policy="seeded", seed=seed))
    first = run_game(inst, {"a0": RandomBidder(seed + 1), "a1": RandomBidder(seed + 2)}, config)
    second = run_game(inst, {"a0": RandomBidder(seed + 1), "a1": RandomBidder(seed + 2)}, config)
    assert first == second


class Grabber(RandomBidder):
    """Random bids and picks; in multi-pick games it grabs up to two items."""

    def __init__(self, seed, most):
        super().__init__(seed)
        self.most = most

    def pick(self, state):
        k = self.rng.randint(1, min(self.most, len(state.remaining)))
        return self.rng.sample(sorted(state.remaining), k)


def tamper(inst, tr, index, field):
    """Change one field of round ``index`` so that the round breaks a rule."""
    rnd = tr.rounds[index]
    if field == "payment":
        rnd = dataclasses.replace(rnd, payment=rnd.payment + 1)
    elif field == "winner":
        rnd = dataclasses.replace(rnd, winner=next(a for a in inst.agent_ids if a != rnd.winner))
    elif field == "item":
        other = next(e for e in inst.items if e != rnd.items[0])
        rnd = dataclasses.replace(rnd, items=(other,) + rnd.items[1:])
    elif field == "number":
        rnd = dataclasses.replace(rnd, number=rnd.number + 1)
    else:  # one bid: the winner's no longer matches the payment, a rival's tops the winner's
        bidder = sorted(rnd.bids)[index % len(rnd.bids)]
        bid, top = rnd.bids[bidder], rnd.bids[rnd.winner]
        if bidder == rnd.winner:
            new = bid / 2 if bid > 0 else bid + 1
        else:
            budget = state_after(inst, tr, index).budgets[bidder]
            new = (top + budget) / 2 if budget > top else top + 1
        rnd = dataclasses.replace(rnd, bids={**rnd.bids, bidder: new})
    return dataclasses.replace(tr, rounds=tr.rounds[:index] + (rnd,) + tr.rounds[index + 1:])


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.sampled_from(MODES),
    policy=st.sampled_from(["lexicographic", "seeded", "adversarial"]),
    n=st.integers(min_value=2, max_value=4),
    m=st.integers(min_value=2, max_value=6),
    field=st.sampled_from(["payment", "winner", "item", "bid", "number"]),
    data=st.data(),
)
def test_every_single_field_tamper_is_rejected(seed, mode, policy, n, m, field, data):
    items = [f"e{j}" for j in range(m)]
    v = AdditiveValuation({e: 1 for e in items})
    inst = make_instance(items, [(f"a{i}", Fraction(1, n), v) for i in range(n)])
    tie = TieBreak(policy, seed=seed if policy == "seeded" else None,
                   target="a0" if policy == "adversarial" else None)
    config = GameConfig(mode=mode, rho=Fraction(1, 2) if mode == "altruistic" else None, tie=tie)
    most = 2 if mode == "multi_pick" else 1
    _, tr = run_game(inst, {a: Grabber(seed + i, most) for i, a in enumerate(inst.agent_ids)}, config)
    assert verify_transcript(tr, inst)

    index = data.draw(st.integers(min_value=0, max_value=len(tr.rounds) - 1))
    forged = tamper(inst, tr, index, field)
    assert not verify_transcript(forged, inst)
    with pytest.raises(RuleViolation) as caught:
        check_transcript(forged, inst)
    # a swapped item may stay legal until a later round or the final allocation
    if field == "item":
        assert caught.value.round >= index + 1
    else:
        assert caught.value.round == index + 1


def replace_round(tr, index, **changes):
    rnd = dataclasses.replace(tr.rounds[index], **changes)
    return dataclasses.replace(tr, rounds=tr.rounds[:index] + (rnd,) + tr.rounds[index + 1:])


@pytest.mark.parametrize(
    "forge, rule, number, agent, detail",
    [
        (lambda tr: dataclasses.replace(tr, rounds=tr.rounds + (dataclasses.replace(tr.rounds[2], number=4),)),
         "game over", 4, None, "no item or no active agent"),
        (lambda tr: replace_round(tr, 0, winner="a1"), "tie-break", 1, "a1", "lexicographic policy"),
        (lambda tr: replace_round(tr, 0, items=()), "picks", 1, "a0", "picked no item"),
        (lambda tr: replace_round(tr, 0, items=("e1", "e1")), "picks", 1, "a0", "picked an item twice"),
        (lambda tr: replace_round(tr, 0, bids={"a0": Fraction(1, 2), "a1": Fraction(0)},
                                  items=("e1", "e2"), payment=Fraction(1)),
         "budget", 1, "a0", "paid 1 from a budget of 1/2"),
        (lambda tr: dataclasses.replace(tr, unallocated=("e1",)), "unallocated", 3, None, "items left"),
    ],
)
def test_each_rule_names_its_round_and_agent(forge, rule, number, agent, detail):
    # zero bids in a multi-pick game: a0 wins every tie and picks e1, e2, e3;
    # multi-pick is the one mode where a payment can pass the budget
    inst = two_agent_instance()
    _, tr = run_game(inst, {"a0": ZeroBidder(), "a1": ZeroBidder()}, GameConfig(mode="multi_pick"))
    assert [r.items for r in tr.rounds] == [("e1",), ("e2",), ("e3",)]
    with pytest.raises(RuleViolation) as caught:
        check_transcript(forge(tr), inst)
    assert (caught.value.rule, caught.value.round, caught.value.agent) == (rule, number, agent)
    assert detail in caught.value.detail


# -- bids compared as ints: equivalence with the Fraction loop, range edges, pins

def run_game_reference(instance, strategies, config):
    """``run_game`` as it was when it compared bids as ``Fraction``s: every bid
    re-wrapped, clamped by ``min``/``max`` and the top bid found by ``max``."""
    ids = instance.agent_ids
    for agent_id in ids:
        strategies[agent_id].start(agent_id, instance, config)
    ledger = _Ledger(instance, config, check_bids=False)
    history, rounds, violations = [], [], []
    while not ledger.over:
        round_number = ledger.round + 1
        state = PublicState(
            round=round_number,
            remaining=tuple(sorted(ledger.remaining)),
            budgets=dict(ledger.budgets),
            bundles=dict(ledger.bundles),
            bid_history=tuple(history),
        )
        bids = {}
        for agent_id in ids:
            if agent_id not in ledger.active:
                continue
            bid = Fraction(strategies[agent_id].bid(state))
            legal = min(max(bid, Fraction(0)), ledger.budgets[agent_id])
            if legal != bid:
                violations.append(f"round {round_number}: bid {bid} by {agent_id} clamped to {legal}")
            bids[agent_id] = legal
        top = max(bids.values())
        pool = [a for a, b in bids.items() if b == top]
        winner = ledger.breaker.choose(pool, round_number)
        picks = tuple(strategies[winner].pick(state))
        if config.mode == "multi_pick" and bids[winner] > 0:
            affordable = int(ledger.budgets[winner] / bids[winner])
            if len(picks) > affordable:
                violations.append(f"round {round_number}: {winner} afforded only {affordable} picks")
                picks = picks[:affordable]
        rnd = Round(round_number, dict(bids), winner, picks, bids[winner] * len(picks))
        ledger.apply(rnd)
        history.append(dict(bids))
        rounds.append(rnd)
    transcript = Transcript(
        config=config,
        rounds=tuple(rounds),
        allocation=dict(ledger.bundles),
        agent_ids=ids,
        unallocated=tuple(sorted(ledger.remaining)),
        violations=tuple(violations),
    )
    return dict(ledger.bundles), transcript


LEVELS = [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)]


def drawn_bid(kind, arg, budget):
    """One bid of a ``DrawnBidder``: ``arg`` indexes ``LEVELS`` or scales the budget."""
    level = LEVELS[arg % len(LEVELS)]
    if kind == "int":
        return arg - 1  # -1, 0, 1, 2, ...
    if kind == "fraction":
        return level
    if kind == "float":  # 1/3 is inexact as a float: a bid just off the level
        return float(level)
    if kind == "sum":  # the level again, reached through other arithmetic
        return level / 3 + level * Fraction(2, 3)
    if kind == "negative":
        return -level - Fraction(1, 10**12)
    if kind == "budget":
        return budget
    if kind == "over":
        return budget + Fraction(1, 10**12) + level
    if kind == "budget share":  # equal budgets give equal bids
        return budget * Fraction(arg % 5, 4)
    return float(budget)  # "budget float"


BID_KINDS = ["int", "fraction", "float", "sum", "negative", "budget", "over", "budget share", "budget float"]


class DrawnBidder(ZeroBidder):
    """Bids from a drawn script of (kind, arg), one a round, cycling; picks
    the ``k``-th remaining item and, in a multi-pick game, ``k`` items."""

    def __init__(self, script, k, multi):
        self.script, self.k, self.multi = script, k, multi

    def bid(self, state):
        kind, arg = self.script[(state.round - 1) % len(self.script)]
        return drawn_bid(kind, arg, state.budgets[self.agent_id])

    def pick(self, state):
        remaining = state.remaining
        if self.multi:
            return remaining[: self.k]
        return [remaining[self.k % len(remaining)]]


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    policy=st.sampled_from(["lexicographic", "seeded", "adversarial", "scripted"]),
    strict=st.booleans(),
    m=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_run_game_matches_the_fraction_reference(mode, policy, strict, m, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    ids = [f"a{i}" for i in range(n)]
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    items = [f"e{j}" for j in range(m)]
    v = AdditiveValuation({e: 1 for e in items})
    inst = make_instance(items, [(a, Fraction(w, sum(weights)), v) for a, w in zip(ids, weights)])
    prefs = tuple(tuple(data.draw(st.permutations(ids))) for _ in range(m))
    tie = TieBreak(
        policy,
        seed=data.draw(st.integers(0, 99)) if policy == "seeded" else None,
        target=data.draw(st.sampled_from(ids)) if policy == "adversarial" else None,
        prefs=prefs if policy == "scripted" else (),
    )
    rho = data.draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)])) if mode == "altruistic" else None
    config = GameConfig(mode=mode, rho=rho, strict_threshold=strict, tie=tie)
    step = st.tuples(st.sampled_from(BID_KINDS), st.integers(min_value=0, max_value=7))
    plans = [(data.draw(st.lists(step, min_size=1, max_size=4)), data.draw(st.integers(1, 3))) for _ in ids]

    def players():
        return {a: DrawnBidder(script, k, mode == "multi_pick") for a, (script, k) in zip(ids, plans)}

    got = run_game(inst, players(), config)
    want = run_game_reference(inst, players(), config)
    assert got == want  # bids, winners, picks, payments and violation strings
    assert all(type(b) is Fraction for r in got[1].rounds for b in r.bids.values())
    assert verify_transcript(got[1], inst)


@settings(max_examples=200, deadline=None)
@given(mode=st.sampled_from(MODES), strict=st.booleans(), m=st.integers(1, 6), data=st.data())
def test_agents_leave_exactly_when_the_rule_says(mode, strict, m, data):
    # the rule as stated, from spend = entitlement - budget, not from the ledger
    n = data.draw(st.integers(min_value=1, max_value=4))
    ids = [f"a{i}" for i in range(n)]
    weights = data.draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n, max_size=n))
    items = [f"e{j}" for j in range(m)]
    v = AdditiveValuation({e: 1 for e in items})
    inst = make_instance(items, [(a, Fraction(w, sum(weights)), v) for a, w in zip(ids, weights)])
    # 10/27 is the allocator's spend cap
    rho = data.draw(st.sampled_from([Fraction(1, 4), Fraction(10, 27), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    config = GameConfig(mode=mode, rho=rho, strict_threshold=strict)
    step = st.tuples(st.sampled_from(BID_KINDS), st.integers(min_value=0, max_value=7))
    players = {
        a: DrawnBidder(data.draw(st.lists(step, min_size=1, max_size=4)), data.draw(st.integers(1, 3)),
                       mode == "multi_pick")
        for a in ids
    }
    _, tr = run_game(inst, players, config)
    for upto in range(len(tr.rounds) + 1):
        state = state_after(inst, tr, upto)
        for spec in inst.agents:
            budget = state.budgets[spec.id]
            spend, cap = spec.entitlement - budget, rho * spec.entitlement
            if mode != "altruistic":
                active = budget > 0
            elif strict:
                active = spend <= cap
            else:
                active = spend < cap
            assert state.active[spec.id] == active, (upto, spec.id, spend)


@pytest.mark.parametrize(
    "bids, winner, rule, detail",
    [
        ({"a0": Fraction(1, 2), "a1": Fraction(0)}, "a0", None, None),  # exactly the budget
        ({"a0": Fraction(1, 2) + Fraction(1, 10**12), "a1": Fraction(0)}, "a0", "bid range",
         "bid 500000000001/1000000000000 outside [0, 1/2]"),
        ({"a0": -Fraction(1, 10**12), "a1": Fraction(0)}, "a1", "bid range",
         "bid -1/1000000000000 outside [0, 1/2]"),
        ({"a0": 0, "a1": 0}, "a0", None, None),  # int bids
        ({"a0": 0, "a1": Fraction(0)}, "a0", None, None),
        ({"a0": 1, "a1": 0}, "a0", "bid range", "bid 1 outside [0, 1/2]"),
        ({"a0": 0, "a1": -1}, "a0", "bid range", "bid -1 outside [0, 1/2]"),
        ({"a0": 0.5, "a1": 0}, "a0", None, None),
        ({"a0": 0.5000001, "a1": 0}, "a0", "bid range", "bid 0.5000001 outside [0, 1/2]"),
        ({"a0": Fraction(1, 4), "a1": 0}, "a1", "winner", "does not hold the top bid 1/4"),
        ({"a0": 0, "a1": Fraction(1, 2)}, "a0", "winner", "does not hold the top bid 1/2"),
        ({"a0": Fraction(1, 4), "a1": 0.25}, "a1", "tie-break", "the lexicographic policy picks another"),
    ],
)
def test_hand_built_bids_are_checked_exactly(bids, winner, rule, detail):
    inst = two_agent_instance()
    ledger = _Ledger(inst, GameConfig())
    rnd = Round(1, bids, winner, ("e1",), bids[winner])
    if rule is None:
        ledger.apply(rnd)
        assert ledger.budgets[winner] == Fraction(1, 2) - bids[winner]
        return
    with pytest.raises(RuleViolation) as caught:
        ledger.apply(rnd)
    assert (caught.value.rule, caught.value.round, caught.value.detail) == (rule, 1, detail)


@st.composite
def wide_round(draw):
    """Bids and budgets as the allocator's guesses make them: over distinct
    150-300-bit denominators, with ties written differently (``k * x / k``,
    an ``int``, a ``float``) and bids below 0 or over the budget.  The bids
    come in a drawn order, not in id order."""
    n = draw(st.integers(min_value=1, max_value=8))
    order = draw(st.permutations([f"a{i}" for i in range(n)]))
    denominators = draw(st.lists(st.integers(2**149, 2**300), min_size=2 * n, max_size=2 * n, unique=True))

    def wide(ceiling):
        d = denominators.pop()
        return Fraction(draw(st.integers(0, d)), d) * ceiling

    budgets = {a: wide(1) or Fraction(1, 3) for a in order}
    bids = {}
    for agent in order:
        budget = budgets[agent]
        kind = draw(st.sampled_from(["wide", "tie", "int", "float", "negative", "over", "budget"]))
        if kind == "wide":  # over the budget about half the time
            bid = wide(2 * budget)
        elif kind == "tie":  # an earlier bid or budget again, built by other arithmetic
            x = Fraction(draw(st.sampled_from([*bids.values(), *budgets.values()])))
            k = draw(st.integers(2, 10**6))
            bid = x * k / k
        elif kind == "int":
            bid = draw(st.integers(-1, 1))
        elif kind == "float":
            bid = draw(st.sampled_from([0.0, 0.25, 0.5, float(budget)]))
        elif kind == "negative":
            bid = -wide(1) - Fraction(1, 2**200)
        elif kind == "over":
            bid = budget + Fraction(1, 2**300)
        else:
            bid = budget
        bids[agent] = bid
    return bids, budgets


@settings(max_examples=400, deadline=None)
@given(wide_round())
def test_settle_matches_the_fraction_min_max(drawn):
    bids, budgets = drawn
    legal = {a: min(max(Fraction(b), Fraction(0)), budgets[a]) for a, b in bids.items()}
    want_clamped = [(a, x) for a, x in legal.items() if x != Fraction(bids[a])]
    top = max(legal.values())
    want_pool = [a for a, x in legal.items() if x == top]

    pool, clamped = _settle(bids, budgets, {a: x.as_integer_ratio() for a, x in budgets.items()})
    assert pool == want_pool
    assert list(clamped.items()) == want_clamped  # in bid order
    assert all(x is budgets[a] for a, x in clamped.items() if bids[a] > 0)


@pytest.mark.parametrize(
    "bids, agent, detail",
    [
        ({"a0": 0, "a1": Fraction(1, 2), "a2": Fraction(-1, 7)}, "a1", "bid 1/2 outside [0, 1/3]"),
        ({"a2": Fraction(-1, 7), "a0": 0, "a1": Fraction(1, 2)}, "a2", "bid -1/7 outside [0, 1/3]"),
    ],
)
def test_the_first_bid_out_of_range_in_bid_order_is_named(bids, agent, detail):
    v = AdditiveValuation({"e1": 1, "e2": 1, "e3": 1})
    inst = make_instance(["e1", "e2", "e3"], [(f"a{i}", Fraction(1, 3), v) for i in range(3)])
    _, tr = run_game(inst, {a: ZeroBidder() for a in inst.agent_ids}, GameConfig())
    with pytest.raises(RuleViolation) as caught:
        check_transcript(replace_round(tr, 0, bids=bids), inst)
    assert (caught.value.rule, caught.value.round, caught.value.agent) == ("bid range", 1, agent)
    assert caught.value.detail == detail


@pytest.mark.parametrize("strict", [True, False])
def test_state_after_maps_every_agent_to_its_activity(strict):
    # budgets 1/3 and rho = 1/2: a win at 1/6 spends exactly the cap, which a
    # lenient cap ends and a strict one does not
    items = [f"e{j}" for j in range(6)]
    v = AdditiveValuation({e: 1 for e in items})
    inst = make_instance(items, [(f"a{i}", Fraction(1, 3), v) for i in range(3)])
    config = GameConfig(mode="altruistic", rho=Fraction(1, 2), strict_threshold=strict)
    _, tr = run_game(inst, {a: ConstantBidder(Fraction(1, 6)) for a in inst.agent_ids}, config)
    # the ledger as an {id: bool} map that a leaver's entry turns False in
    old = dict.fromkeys(inst.agent_ids, True)
    budgets, floor = dict.fromkeys(inst.agent_ids, Fraction(1, 3)), Fraction(1, 6)
    for upto in range(len(tr.rounds) + 1):
        assert state_after(inst, tr, upto).active == old, upto
        if upto < len(tr.rounds):
            winner = tr.rounds[upto].winner
            budgets[winner] -= tr.rounds[upto].payment
            if budgets[winner] < floor if strict else budgets[winner] <= floor:
                old[winner] = False
    assert len(tr.rounds) == (6 if strict else 3)
    assert not any(old.values())


def _equal_budget_game(strategy, **tie):
    """Three agents of budget 1/3 each, so equal strategies tie."""
    v = AdditiveValuation({f"e{j}": j + 1 for j in range(6)})
    inst = make_instance([f"e{j}" for j in range(6)], [(f"a{i}", Fraction(1, 3), v) for i in range(3)])
    strategies = {a: strategy(i) for i, a in enumerate(inst.agent_ids)}
    return run_game(inst, strategies, GameConfig(tie=TieBreak(**tie)))


@pytest.mark.parametrize(
    "play, digest",
    [
        pytest.param(
            lambda: gen_xos_hard(16, 2).execute(),
            "a65fe43a742098232f47a59f31cefba37620d2660c7a95d32223be54b150b847",
            id="xos-hard-16-2",
        ),
        pytest.param(
            lambda: gen_xos_hard(36, 3).execute(),
            "cc26d0df99051f68cde91769ab3cbf4cc13c7fbdce0f99db4a5bc074add7a4ff",
            id="xos-hard-36-3",
        ),
        pytest.param(
            lambda: _equal_budget_game(lambda i: RandomBidder(i % 2), policy="seeded", seed=5),
            "a3fe2db79c1ec510be0230c48c489f5ac6824e772d4c7c0e789f8de1f97a07bf",
            id="random-seeded",
        ),
        pytest.param(
            lambda: _equal_budget_game(lambda i: RandomBidder(7), policy="adversarial", target="a1"),
            "9595bea41f70947bf8e311d0883921e4b1a4153e03cb553427e229ba3f18c308",
            id="random-adversarial",
        ),
        pytest.param(
            lambda: _equal_budget_game(lambda i: ConstantBidder(Fraction(1, 9))),
            "f15873a5ba1144dddb293383dcf61ca538c1158ee59793e4e638e206ff1a1cde",
            id="constant-lexicographic",
        ),
        pytest.param(
            lambda: _equal_budget_game(
                lambda i: ConstantBidder(Fraction(1, 9)), policy="scripted", prefs=(("a2",), ("a1", "a2"))
            ),
            "d3deac7056207cb80383e8a32c8d4dbe1d701c427e4269a8bba54fd655a64324",
            id="constant-scripted",
        ),
    ],
)
def test_transcripts_are_pinned(play, digest):
    # SHA-256 of the serialized transcript, recorded when bids were compared as Fractions
    _, tr = play()
    text = serialize.dumps(serialize.transcript_to_dict(tr))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class _PairPicker(ProportionalBidder):
    """Proportional bidding that asks for a second item on every win, so a
    multi_pick game pays for two items or is cut back to what it affords."""

    def pick(self, state):
        first = list(super().pick(state))
        return first + [e for e in state.remaining if e not in first][:1]


def _corpus_game_document(mode, idx, profile):
    """A corpus game against the acceptance suite's opponents and tie policy
    (profile % 4 picks the policy), as a report with its guarantee entry."""
    inst = ch.instance(idx)
    p_id = ch.designated_agent(idx, profile)
    spec = inst.agent(p_id)
    players = ch.opponents_for(idx, profile, p_id)
    tie = ch.tie_for(idx, profile, p_id)
    if mode == "altruistic":
        share, target = ch.mms_of(idx, p_id).value, MMS_GAME_RHO
        players[p_id] = AltruisticProportionalBidder(spec.valuation, spec.entitlement, share)
        config = GameConfig(mode=mode, rho=MMS_GAME_RHO, tie=tie)
    else:
        share, target = ch.aps_of(idx, p_id).value, default_rho(spec.entitlement)
        bidder = _PairPicker if mode == "multi_pick" else ProportionalBidder
        players[p_id] = bidder(spec.valuation, spec.entitlement, share)
        config = GameConfig(mode=mode, tie=tie)
    allocation, tr = run_game(inst, players, config)
    report = guarantee_report(inst, allocation, {p_id: share}, {p_id: target})
    entries = [dataclasses.asdict(e) for e in report.entries]
    return serialize.dumps(serialize.report_to_dict(inst, tr, entries))


_CORPUS_GAME_DIGESTS = {
    ("standard", 2, 0): "234cb3d78ec8643670bdd2081be26021d037f30f0727b8dd17c8acf97b430dd4",
    ("standard", 9, 0): "0a6b69a7e1b459b12a15b1adc50345af3af7fa4409b0922b4de4e88560183b2e",
    ("standard", 2, 1): "da603e325342c6fc888736e0e5203393209d1f24a327bdff7424f5a321c0fe1f",
    ("standard", 9, 1): "302089b65c63a4f1f0c3fa74f705e6f096496564b62500d1b2ca3932b3e73320",
    ("standard", 2, 2): "ae851495ab561c2989db2778b9d9c6aaea5ca705a159f2d7489c619956af47e1",
    ("standard", 9, 2): "99847dd4ca0eb1fe4ad695c1a16e99a3944dea59cd7df79a207bab9993915a02",
    ("standard", 2, 3): "a02c6e57d0d02d42f5431622e0d9fa7a9a2c91b865fbd80a88bfab6d79365fa6",
    ("standard", 9, 3): "0bfdb91f0469c72775ace09d011fe2f41662cfbf83dba707de77a3d94d0c2764",
    ("altruistic", 2, 0): "bc5afff58790f40f6537d601cda78e5c6e758cd94b11ab767ee889d0331298bf",
    ("altruistic", 8, 0): "35b8d928b9e8a02b065781722d5686473ccda5da2fb3090f58c21ff4429a44af",
    ("altruistic", 2, 1): "901db14709dde383fa960906d7e97e72e81b538dc78a77d66b774f2d586ebb72",
    ("altruistic", 8, 1): "3b5c8133b485fc056e90441be9d1d5a4bd2f64d1718832299f1b185358db5df3",
    ("altruistic", 2, 2): "8086de4ae175392401bc8f4baac23ca05a68bcf4ec582e59228e83ba094104f0",
    ("altruistic", 8, 2): "af6e90f43efa4bf355ca645e9eed5102ef40f9e23f89c30ce7c41a8c55e81e27",
    ("altruistic", 2, 3): "e8ab73316683537b4d07f226bc8f14e4736e9c4c085e5b440658952aef769a3f",
    ("altruistic", 8, 3): "12e3f5cf02acb932ff1b4296550ab19a8cd69c06674a3d918736a1b5f08399a6",
    ("multi_pick", 2, 0): "ad396887a8caa2504d61237fa83a5f8fe8c194b75ba893a1f8466eb21247602c",
    ("multi_pick", 9, 0): "41cd1e7ae46001df4d54cc01a434f23c44b87b159e58023ca93e4c0fc96171ed",
    ("multi_pick", 2, 1): "087fba5a2db0debeffd5050754b2884c9c95484aee64ef53da00a9fc65f279f4",
    ("multi_pick", 9, 1): "b52a55c0a48a5d08eab82d3f1a3ff1de0a34aacbf45040a048b3814c2de3d79c",
    ("multi_pick", 2, 2): "2455ebf5e2018fd910042e7a1244d262568bd18dfbc6af68b3d7752c5b6ba75e",
    ("multi_pick", 9, 2): "c385a662e2440e24a666be2e34d8fd59fd5f00e3a2b614698c62924ef5725026",
    ("multi_pick", 2, 3): "315a97548d862104af526ed9559dc8453f42fe7be11f98d74c92b9d8dccb15a0",
    ("multi_pick", 9, 3): "bc899bdd1b8e0c76056dea695b31400ed41358f482dacf74fee2e9add3ea8984",
}


@pytest.mark.parametrize(
    "mode, idx, profile",
    [
        pytest.param(mode, idx, profile, id=f"{mode}-{policy}-{idx}")
        for mode, indices in (("standard", (2, 9)), ("altruistic", (2, 8)), ("multi_pick", (2, 9)))
        for profile, policy in enumerate(("lexicographic", "adversarial", "seeded", "scripted"))
        for idx in indices
    ],
)
def test_corpus_games_are_pinned(mode, idx, profile):
    # SHA-256 of each game's report, recorded before the ledger, the tie
    # breaker and the bidders' set-up moved to int arithmetic
    text = _corpus_game_document(mode, idx, profile)
    assert hashlib.sha256(text.encode()).hexdigest() == _CORPUS_GAME_DIGESTS[mode, idx, profile]
