"""Guess-refinement allocator: contracts, invariants, iteration bounds."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from bidfair.model import make_instance
from bidfair.negatives import gen_random_submodular
from bidfair.shares import aps_exact, mms_exact
from bidfair.valuations import AdditiveValuation
from bidfair.wrapper import (
    ContractViolation,
    call_budget,
    conditional_allocate,
    default_epsilon,
    guarantee_rho,
    unconditional_allocate,
    value_spread_bound,
)


def aps_shares(inst):
    return {
        a.id: aps_exact(a.valuation, a.entitlement, inst.items).value for a in inst.agents
    }


def mms_shares(inst):
    n = len(inst.agents)
    return {a.id: mms_exact(a.valuation, n, inst.items).value for a in inst.agents}


def test_zero_guesses_trivially_satisfied():
    inst = gen_random_submodular(1, 3, 6)
    guesses = {a: Fraction(0) for a in inst.agent_ids}
    alloc, _ = conditional_allocate(inst, guesses)
    assert set(alloc) == set(inst.agent_ids)


def test_exact_guesses_reach_guaranteed_fractions():
    for seed in (2, 3, 4):
        inst = gen_random_submodular(seed, 3, 7, entitlements="random")
        shares = aps_shares(inst)
        alloc, _ = conditional_allocate(inst, shares, mode="aps")
        for a in inst.agents:
            rho = guarantee_rho("aps", a.entitlement)
            assert a.valuation.value(alloc[a.id]) >= rho * shares[a.id]


def additive_instance(seed):
    """Three equal agents with seeded additive values over nine items."""
    rng = random.Random(seed)
    items = [f"e{j}" for j in range(9)]
    valuations = [AdditiveValuation({e: rng.randint(1, 9) for e in items}) for _ in range(3)]
    return make_instance(items, [(f"a{i}", Fraction(1, 3), v) for i, v in enumerate(valuations)])


def test_a_repeated_game_reuses_every_ranking():
    # rankings are kept per oracle across games: the same guesses play the
    # same game again without a value query
    for mode in ("aps", "mms"):
        inst = additive_instance(3)
        guesses = {a.id: a.valuation.value(inst.item_set) / 2 for a in inst.agents}
        first = conditional_allocate(inst, guesses, mode)
        assert len(first[1].rounds) > len(inst.agents)  # some agent wins twice
        before = [a.valuation.query_count for a in inst.agents]
        assert conditional_allocate(inst, guesses, mode) == first
        assert [a.valuation.query_count for a in inst.agents] == before


def test_concurrent_games_on_shared_oracles_play_as_alone():
    # games on one instance share its oracles' rankings; run at once, with
    # threads switching often, each still plays the game it plays alone
    shared = additive_instance(5)
    guesses = [{a.id: a.valuation.value(shared.item_set) / (2 + k) for a in shared.agents} for k in range(6)]
    alone = [conditional_allocate(additive_instance(5), g) for g in guesses]
    results = [None] * len(guesses)

    def play(k):
        results[k] = conditional_allocate(shared, guesses[k])

    threads = [threading.Thread(target=play, args=(k,)) for k in range(len(guesses))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == alone


def test_one_inflated_guess_leaves_others_protected():
    inst = gen_random_submodular(5, 3, 7)
    shares = aps_shares(inst)
    inflated = dict(shares)
    victim = inst.agent_ids[0]
    inflated[victim] = 2 * shares[victim] + 1
    alloc, _ = conditional_allocate(inst, inflated, mode="aps")
    for a in inst.agents:
        if a.id == victim:
            continue
        rho = guarantee_rho("aps", a.entitlement)
        assert a.valuation.value(alloc[a.id]) >= rho * shares[a.id]


def test_mms_mode_requires_equal_entitlements():
    inst = gen_random_submodular(6, 3, 6, entitlements="random")
    if inst.has_equal_entitlements():
        pytest.skip("random draw happened to be equal")
    with pytest.raises(ValueError):
        conditional_allocate(inst, {a: Fraction(1) for a in inst.agent_ids}, mode="mms")


def test_unknown_mode_rejected_like_guarantee_rho():
    # an unknown mode must not fall through to the spend-capped game
    v = AdditiveValuation({"e1": 1, "e2": 2})
    inst = make_instance(["e1", "e2"], [("a0", Fraction(1, 3), v), ("a1", Fraction(2, 3), v)])
    with pytest.raises(ValueError) as expected:
        guarantee_rho("apss", Fraction(1, 3))
    with pytest.raises(ValueError) as caught:
        conditional_allocate(inst, {"a0": Fraction(1), "a1": Fraction(1)}, mode="apss")
    assert str(caught.value) == str(expected.value) == "unknown mode 'apss'"


def test_call_budget_takes_the_log_of_a_huge_spread_exactly():
    # K = 10**400 overflows a float; log K = 400 ln 10 = 921.03..., over eps = 1/10
    assert call_budget(2, Fraction(1, 10), 10**400) == 2 * 9211 + 1
    assert call_budget(2, Fraction(1, 10), Fraction(10**400, 3)) == 2 * 9200 + 1
    assert call_budget(3, Fraction(1, 2), Fraction(1)) == 1


def test_unconditional_guarantee_and_iteration_bound():
    eps = Fraction(1, 10)
    for seed, mode, kind in ((7, "aps", "random"), (8, "mms", "equal"), (9, "aps", "equal")):
        inst = gen_random_submodular(seed, 3, 7, entitlements=kind)
        shares = aps_shares(inst) if mode == "aps" else mms_shares(inst)
        seen = []
        outcome = unconditional_allocate(
            inst, eps, mode=mode, exact_shares=shares,
            on_iteration=lambda i, guesses, alloc: seen.append(dict(guesses)),
        )
        assert outcome.calls <= call_budget(len(inst.agents), eps, value_spread_bound(inst))
        for a in inst.agents:
            rho = guarantee_rho(mode, a.entitlement)
            value = a.valuation.value(outcome.allocation[a.id])
            assert value >= (1 - eps) * rho * shares[a.id]
        # guesses never dipped below (1-eps) of the true share at any iteration
        for guesses in seen:
            for agent_id, guess in guesses.items():
                assert guess >= (1 - eps) * shares[agent_id]


def test_guesses_start_at_total_value_and_decay_geometrically():
    inst = gen_random_submodular(10, 2, 6)
    eps = Fraction(1, 4)
    trace = []
    unconditional_allocate(
        inst, eps, mode="aps",
        on_iteration=lambda i, guesses, alloc: trace.append(guesses),
    )
    totals = {a.id: a.valuation.value(inst.item_set) for a in inst.agents}
    assert trace[0] == totals
    for agent_id in inst.agent_ids:
        values = [g[agent_id] for g in trace]
        for prev, cur in zip(values, values[1:]):
            assert cur == prev or cur == (1 - eps) * prev


def test_contract_violation_detected_with_inflated_oracle():
    # feeding impossibly large "exact" shares must trip the breach detector
    inst = gen_random_submodular(11, 2, 6)
    fake = {a.id: a.valuation.value(inst.item_set) * 100 for a in inst.agents}
    with pytest.raises(ContractViolation) as info:
        unconditional_allocate(inst, Fraction(1, 2), mode="aps", exact_shares=fake)
    assert info.value.transcript is not None


def test_spread_bound_and_epsilon_defaults():
    inst = gen_random_submodular(12, 3, 6)
    spread = value_spread_bound(inst)
    for a in inst.agents:
        total = a.valuation.value(inst.item_set)
        for e in inst.items:
            single = a.valuation.value(frozenset([e]))
            if single > 0:
                assert total / single <= spread
    # the standard-mode default keeps agents with positive shares at >= 1/3
    m = len(inst.items)
    eps = default_epsilon("aps", inst)
    assert eps == Fraction(2, 3 * m)
    for denom in range(1, m + 1):
        b = Fraction(1, denom)  # any entitlement >= 1/m
        assert (1 - eps) * guarantee_rho("aps", b) >= Fraction(1, 3)
    assert default_epsilon("mms", inst) == Fraction(1, 3 * len(inst.agents))


def test_epsilon_bounds_validated():
    inst = gen_random_submodular(13, 2, 5)
    with pytest.raises(ValueError):
        unconditional_allocate(inst, Fraction(0))
    with pytest.raises(ValueError):
        unconditional_allocate(inst, Fraction(3, 2))


def test_single_call_when_initial_guesses_succeed():
    # one agent valuing everything equally: the opening guess v(M) is met
    v = AdditiveValuation({"e1": 1, "e2": 1})
    inst = make_instance(["e1", "e2"], [("solo", 1, v)])
    outcome = unconditional_allocate(inst, Fraction(1, 10), mode="aps")
    assert outcome.calls == 1
    assert outcome.guesses["solo"] == 2
