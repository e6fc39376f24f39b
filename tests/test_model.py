"""Instance construction, reduction, and residual renormalization."""

import dataclasses
import random
from fractions import Fraction

import pytest

from bidfair.model import (
    FractionalPartition,
    GameState,
    make_instance,
    reduce_instance,
    residual_instance,
    validate_allocation,
)
from bidfair.shares import aps_exact
from bidfair.valuations import AdditiveValuation


def equal_instance(n, items, valuations=None):
    return make_instance(
        items,
        [
            (f"a{i}", Fraction(1, n), valuations[i] if valuations else AdditiveValuation({}))
            for i in range(n)
        ],
    )


def test_entitlements_must_sum_to_one():
    with pytest.raises(ValueError):
        make_instance(["e1"], [("a", Fraction(1, 2), AdditiveValuation({}))])
    with pytest.raises(ValueError):
        make_instance(
            ["e1"],
            [("a", Fraction(2, 3), AdditiveValuation({})), ("b", Fraction(2, 3), AdditiveValuation({}))],
        )


def test_duplicate_ids_rejected():
    with pytest.raises(ValueError):
        make_instance(["e1", "e1"], [("a", 1, AdditiveValuation({}))])
    with pytest.raises(ValueError):
        make_instance(
            ["e1"],
            [("a", Fraction(1, 2), AdditiveValuation({})), ("a", Fraction(1, 2), AdditiveValuation({}))],
        )
    third, v = Fraction(1, 3), AdditiveValuation({})
    with pytest.raises(ValueError, match="duplicate agent ids"):
        make_instance(["e1"], [("a", third, v), ("b", third, v), ("a", third, v)])


def test_agent_lookups_by_id():
    v = [AdditiveValuation({"e1": k}) for k in range(3)]
    shares = [("c", Fraction(1, 2)), ("a", Fraction(1, 3)), ("b", Fraction(1, 6))]
    inst = make_instance(["e1"], [(i, b, v[k]) for k, (i, b) in enumerate(shares)])
    assert inst.agent_ids == ("c", "a", "b")  # agent order, not sorted
    assert inst.agent_ids is inst.agent_ids
    for spec in inst.agents:
        assert inst.agent(spec.id) is spec
        assert inst.entitlement(spec.id) == spec.entitlement
        assert inst.valuation(spec.id) is spec.valuation
    for lookup in (inst.agent, inst.entitlement, inst.valuation):
        with pytest.raises(KeyError) as caught:
            lookup("nobody")
        assert caught.value.args == ("no agent 'nobody'",)
    # the index is no field: equality, hashing and repr see items and agents only
    twin = make_instance(["e1"], [(a.id, a.entitlement, a.valuation) for a in inst.agents])
    assert twin == inst and hash(twin) == hash(inst) and repr(twin) == repr(inst)
    assert [f.name for f in dataclasses.fields(inst)] == ["items", "agents"]
    assert "_by_id" not in repr(inst)


def test_items_canonically_sorted():
    inst = make_instance(["e2", "e1"], [("a", 1, AdditiveValuation({}))])
    assert inst.items == ("e1", "e2")


def test_reduce_equal_thirds():
    inst = equal_instance(3, ["e1", "e2", "e3"])
    reduced = reduce_instance(inst, "a1", "e1")
    assert reduced.agent_ids == ("a0", "a2")
    assert all(a.entitlement == Fraction(1, 2) for a in reduced.agents)
    assert reduced.items == ("e2", "e3")


def test_reduce_unequal():
    inst = make_instance(
        ["e1", "e2"],
        [
            ("big", Fraction(1, 2), AdditiveValuation({})),
            ("s1", Fraction(1, 4), AdditiveValuation({})),
            ("s2", Fraction(1, 4), AdditiveValuation({})),
        ],
    )
    reduced = reduce_instance(inst, "big", "e2")
    assert [a.entitlement for a in reduced.agents] == [Fraction(1, 2), Fraction(1, 2)]


def test_reduce_rejects_full_entitlement_and_unknown_ids():
    inst = make_instance(["e1"], [("a", 1, AdditiveValuation({}))])
    with pytest.raises(ValueError):
        reduce_instance(inst, "a", "e1")
    inst2 = equal_instance(2, ["e1", "e2"])
    with pytest.raises(KeyError):
        reduce_instance(inst2, "nobody", "e1")
    with pytest.raises(KeyError):
        reduce_instance(inst2, "a0", "missing")


def test_reduce_never_lowers_shares_of_smaller_agents():
    # removing an agent and an item helps every remaining agent whose
    # entitlement does not exceed the removed one
    rng = random.Random(42)
    for trial in range(12):
        m = rng.randint(2, 5)
        items = [f"e{j}" for j in range(m)]
        weights = [rng.randint(1, 4) for _ in range(3)]
        total = sum(weights)
        agents = []
        for i, w in enumerate(weights):
            vals = {e: Fraction(rng.randint(0, 6)) for e in items}
            agents.append((f"a{i}", Fraction(w, total), AdditiveValuation(vals)))
        inst = make_instance(items, agents)
        removed = inst.agents[rng.randrange(3)]
        if removed.entitlement == 1:
            continue
        item = items[rng.randrange(m)]
        reduced = reduce_instance(inst, removed.id, item)
        for survivor in reduced.agents:
            if inst.entitlement(survivor.id) > removed.entitlement:
                continue
            before = aps_exact(survivor.valuation, inst.entitlement(survivor.id), inst.items)
            after = aps_exact(survivor.valuation, survivor.entitlement, reduced.items)
            assert after.value >= before.value


def fresh_state(inst, budgets=None, remaining=None, active=None, bundles=None):
    budgets = budgets or {a.id: a.entitlement for a in inst.agents}
    return GameState(
        round=0,
        remaining=frozenset(remaining if remaining is not None else inst.items),
        budgets=budgets,
        bundles=bundles or {a.id: frozenset() for a in inst.agents},
        active=active or {a.id: True for a in inst.agents},
    )


def test_residual_before_any_round_is_identity():
    inst = equal_instance(3, ["e1", "e2"])
    residual, gamma = residual_instance(inst, fresh_state(inst))
    assert gamma == 1
    assert residual.items == inst.items
    assert [(a.id, a.entitlement) for a in residual.agents] == [
        (a.id, a.entitlement) for a in inst.agents
    ]


def test_residual_after_one_agent_spends_out():
    inst = equal_instance(3, ["e1", "e2", "e3"])
    state = fresh_state(
        inst,
        budgets={"a0": Fraction(0), "a1": Fraction(1, 3), "a2": Fraction(1, 3)},
        remaining=["e2", "e3"],
        active={"a0": False, "a1": True, "a2": True},
        bundles={"a0": frozenset(["e1"]), "a1": frozenset(), "a2": frozenset()},
    )
    residual, gamma = residual_instance(inst, state)
    assert gamma == Fraction(2, 3)
    assert residual.agent_ids == ("a1", "a2")
    assert all(a.entitlement == Fraction(1, 2) for a in residual.agents)


def test_residual_requires_active_budget():
    inst = equal_instance(2, ["e1"])
    state = fresh_state(inst, active={"a0": False, "a1": False})
    with pytest.raises(ValueError):
        residual_instance(inst, state)


def test_residual_truncation_caps_valuation():
    v = AdditiveValuation({"e1": 5, "e2": 5})
    inst = make_instance(["e1", "e2"], [("a0", 1, v)])
    residual, _ = residual_instance(inst, fresh_state(inst), truncations={"a0": Fraction(6)})
    assert residual.valuation("a0").value({"e1", "e2"}) == 6


def test_fractional_partition_invariants():
    with pytest.raises(ValueError):
        FractionalPartition(((frozenset(["e1"]), Fraction(-1, 2)), (frozenset(), Fraction(3, 2))))
    with pytest.raises(ValueError):
        FractionalPartition(((frozenset(["e1"]), Fraction(1, 2)),))
    fp = FractionalPartition(((frozenset(["e1"]), Fraction(1, 2)), (frozenset(["e2"]), Fraction(1, 2))))
    assert fp.coverage("e1") == Fraction(1, 2)
    assert fp.coverage("missing") == 0


def test_validate_allocation():
    inst = equal_instance(2, ["e1", "e2"])
    validate_allocation(inst, {"a0": frozenset(["e1"]), "a1": frozenset(["e2"])})
    with pytest.raises(ValueError):
        validate_allocation(inst, {"a0": frozenset(["e1"]), "a1": frozenset(["e1"])})
    with pytest.raises(ValueError):
        validate_allocation(inst, {"a0": frozenset(["zzz"])})


def test_full_budget_prefix_on_staged_instance_preserves_share():
    # the staged k=1 instance: every item is worth more than 2*rho*share at a
    # small rho, so the bidder opens with full-budget bids; after losing such
    # a round her share in the renormalized remainder is exactly preserved
    from fractions import Fraction

    from bidfair.engine import GameConfig, TieBreak, run_game, state_after
    from bidfair.negatives import gen_original_negative
    from bidfair.strategies import ProportionalBidder, ScriptedBidder

    base = gen_original_negative(1)
    inst = base.instance
    p = base.agent
    v = inst.valuation(p)
    share = base.share_value  # 2
    rho = Fraction(1, 5)  # large threshold 4/5 < 1: all items force full bids
    opponent = next(a for a in inst.agent_ids if a != p)
    strategies = {
        p: ProportionalBidder(v, inst.entitlement(p), share, rho),
        opponent: ScriptedBidder([Fraction(1, 2)], ["r01c001"]),
    }
    config = GameConfig(tie=TieBreak("adversarial", target=p))
    alloc, tr = run_game(inst, strategies, config)
    assert tr.rounds[0].bids[p] == inst.entitlement(p)
    assert tr.rounds[0].winner == opponent

    state = state_after(inst, tr, 1)
    residual, gamma = residual_instance(inst, state, truncations={p: share})
    assert gamma == Fraction(1, 2)  # the winner paid her whole budget
    assert residual.entitlement(p) == 1
    res = aps_exact(residual.valuation(p), residual.entitlement(p), residual.items)
    assert res.value == share
