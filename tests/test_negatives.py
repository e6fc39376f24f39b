"""Adversarial constructions: exact reproduction of their expected outcomes."""

import math
import random
from fractions import Fraction
from functools import partial

import pytest

from bidfair.engine import PublicState, run_game, verify_transcript
from bidfair.negatives import (
    STAGED,
    XosSniperBidder,
    _ColumnPlan,
    altruistic_negative_ratio,
    gen_altruistic_negative,
    gen_modified_negative,
    gen_original_negative,
    gen_random_submodular,
    gen_xos_hard,
    named_run,
    standard_negative_ratio,
    sylvester,
)
from bidfair.shares import mms_exact, verify_mms_partition
from bidfair.valuations import XOSValuation, is_submodular


def test_sylvester_values():
    assert sylvester(3) == [2, 3, 7, 43]
    assert sylvester(1) == [2, 3]
    assert sylvester(4) == [2, 3, 7, 43, 1807]


@pytest.mark.parametrize("generator", [gen_altruistic_negative, gen_original_negative, gen_modified_negative])
def test_staged_runs_stop_at_desk_scale(generator):
    # k = 4 means 1,805 agents and rows of 1,805 items, minutes of play
    with pytest.raises(ValueError, match="between 1 and 3 at desk scale"):
        generator(4)


@pytest.mark.parametrize("kind", ["altruistic", "original", "modified"])
def test_named_run_refuses_a_k4_name(kind):
    # the agent count matches the name, so only the desk-scale limit refuses it
    assert len(named_run(f"{kind}_negative_k3", 42).instance.agents) == 42
    with pytest.raises(ValueError, match="between 1 and 3 at desk scale"):
        named_run(f"{kind}_negative_k4", sylvester(4)[-1] - 1)


def test_sylvester_product_identity():
    for k in range(1, 6):
        qs = sylvester(k)
        assert math.prod(qs[:k]) == qs[k] - 1


def test_sylvester_guards():
    with pytest.raises(ValueError):
        sylvester(0)
    with pytest.raises(ValueError):
        sylvester(7)


def run_and_value(run):
    alloc, tr = run.execute()
    value = run.instance.valuation(run.agent).value(alloc[run.agent])
    assert verify_transcript(tr, run.instance)
    return value, alloc, tr


@pytest.mark.parametrize(
    "k,expected_share,expected_ratio",
    [
        (1, Fraction(2), Fraction(1, 2)),
        (2, Fraction(5, 2), Fraction(2, 5)),
        (3, Fraction(8, 3), Fraction(3, 8)),
    ],
)
def test_spend_capped_negative_runs(k, expected_share, expected_ratio):
    run = gen_altruistic_negative(k)
    assert run.share_value == expected_share
    assert run.expected_ratio == expected_ratio
    value, alloc, tr = run_and_value(run)
    assert value == 1
    assert value / run.share_value == expected_ratio


@pytest.mark.parametrize(
    "k,expected_share,expected_ratio",
    [(1, Fraction(2), Fraction(1, 2)), (2, Fraction(8, 3), Fraction(3, 8))],
)
def test_standard_negative_runs(k, expected_share, expected_ratio):
    run = gen_original_negative(k)
    assert run.share_value == expected_share
    value, alloc, tr = run_and_value(run)
    assert value == 1
    assert value / run.share_value == expected_ratio


@pytest.mark.parametrize("k", [1, 2])
def test_modified_negative_runs(k):
    run = gen_modified_negative(k)
    value, alloc, tr = run_and_value(run)
    assert value == 1
    assert value / run.share_value == altruistic_negative_ratio(k)


@pytest.mark.parametrize("name,queries", [("original", 1197), ("altruistic", 1197), ("modified", 32256)])
def test_staged_runs_ask_only_about_items_in_play(name, queries):
    # each held bundle is ranked over the items still in play, so a ranking
    # that also values items already allocated asks more than these counts
    run = STAGED[name](3)
    run.execute()
    assert run.instance.valuation(run.agent).query_count == queries


def test_modified_tail_rows_match_last_stage_value():
    for k in (1, 2, 3):
        run = gen_modified_negative(k)
        v = run.instance.valuation(run.agent)
        qs = sylvester(k)
        stage_value = Fraction(1, qs[k - 1] - 1)
        # the last staged row and every tail row carry the same item value
        last_stage_item = f"r{k:02d}c001"
        assert v.value(frozenset([last_stage_item])) == stage_value
        tail_rows = len(v.rows) - k
        assert tail_rows == qs[k - 1] - 1
        for row in v.rows[k:]:
            assert v.value(frozenset([row[0]])) == stage_value


def test_staged_instances_are_submodular():
    for gen in (gen_altruistic_negative, gen_original_negative, gen_modified_negative):
        run = gen(1)
        v = run.instance.valuation(run.agent)
        assert is_submodular(v, run.instance.items)


def test_opponent_squads_exactly_exhaust_the_rows():
    for k in (1, 2, 3):
        run = gen_altruistic_negative(k)
        qs = sylvester(k)
        n = math.prod(qs[:k])
        opponents = [a for a in run.instance.agent_ids if a != run.agent]
        assert len(opponents) == n - 1
        for i, q in enumerate(qs[:k], start=1):
            squad = [a for a in opponents if a.startswith(f"adv{i:02d}_")]
            assert len(squad) == n // q
        # execution: every opponent ends holding exactly her stage's item count
        alloc, _ = run.execute()
        for i, q in enumerate(qs[:k], start=1):
            for agent in opponents:
                if agent.startswith(f"adv{i:02d}_"):
                    assert len(alloc[agent]) == q


def test_ratio_sequences():
    alt = [altruistic_negative_ratio(k) for k in range(1, 5)]
    std = [standard_negative_ratio(k) for k in range(1, 5)]
    assert alt[0] == Fraction(1, 2) and alt[1] == Fraction(2, 5) and alt[2] == Fraction(3, 8)
    assert std[0] == Fraction(1, 2) and std[1] == Fraction(3, 8)
    for seq in (alt, std):
        assert all(a > b for a, b in zip(seq, seq[1:]))
    assert all(r > Fraction(1, 3) for r in std)
    # the spend-capped sequence settles just above 0.3716
    assert abs(float(alt[3]) - 0.3716) < 2e-3


def test_cross_column_hard_run():
    run = gen_xos_hard(16, 2)
    value, alloc, tr = run_and_value(run)
    assert value <= 1
    assert run.share_value == 2
    # the column partition certifies the share at full scale
    v = run.instance.valuation(run.agent)
    columns = []
    for j in range(1, 17):
        columns.append(frozenset(f"r{i:02d}c{j:03d}" for i in range(1, 3)))
    assert verify_mms_partition(tuple(columns), v, run.instance.items, 2)


class _RescanCheckedPlan(_ColumnPlan):
    """A shared sniper plan whose every answer is checked against a full
    rescan of the remaining items; it records the rounds of the states it
    worked a target out for."""

    def __init__(self, victim, column_of):
        super().__init__(victim, column_of)
        self.checks = 0
        self.rounds = []

    def target(self, state):
        fresh = state is not self.last[0]
        target = super().target(state)
        columns = {self.column_of[e] for e in state.bundles[self.victim]}
        rescan = min((e for e in state.remaining if self.column_of[e] in columns), default=None)
        assert target == rescan
        self.checks += 1
        if fresh:
            self.rounds.append(state.round)
        return target


@pytest.mark.parametrize("n, k", [(16, 2), (36, 3)])
def test_sniper_memo_equals_the_rescan(n, k):
    run = gen_xos_hard(n, k)
    column_of = {e: int(e[-3:]) for e in run.instance.items}
    plan = _RescanCheckedPlan("p", column_of)
    strategies = {
        a: XosSniperBidder(plan) if a.startswith("t2_") else make()
        for a, make in run.strategy_factories.items()
    }
    _, checked = run_game(run.instance, strategies, run.config)
    # one target a round, worked out and checked in every round a sniper is
    # active in; the round's later snipers read that checked answer
    sniped = [r.number for r in checked.rounds if any(a.startswith("t2_") for a in r.bids)]
    assert plan.rounds == sniped and plan.checks >= len(sniped) > 0
    assert checked == run.execute()[1]


def test_sniper_memo_equals_the_rescan_on_random_walks():
    # the victim gains items of any column, earlier ones too, as items leave;
    # one plan serves all walks, as it serves game after game
    column_of = {f"r{i:02d}c{j:03d}": j for i in range(1, 4) for j in range(1, 7)}
    plan = _RescanCheckedPlan("p", column_of)
    for seed in range(20):
        rng = random.Random(seed)
        remaining, held = sorted(column_of), frozenset()
        while remaining:
            item = remaining.pop(rng.randrange(len(remaining)))
            if rng.random() < 0.5:
                held = held | {item}
            state = PublicState(0, tuple(remaining), {}, {"p": held}, ())
            assert plan.target(state) == plan.target(state)
    assert plan.checks == 2 * 20 * len(column_of)
    assert len(plan.rounds) == 20 * len(column_of)


def test_snipers_of_a_run_share_one_plan():
    run = gen_xos_hard(16, 2)
    snipers = [make() for a, make in run.strategy_factories.items() if a.startswith("t2_")]
    assert len(snipers) == 7
    assert all(type(s) is XosSniperBidder and s.plan is snipers[0].plan for s in snipers)
    assert snipers[0].plan.victim == run.agent


@pytest.mark.parametrize("n, k", [(16, 2), (36, 3)])
def test_games_in_a_row_share_a_plan_safely(n, k):
    run = gen_xos_hard(n, k)
    first, second = run.execute()[1], run.execute()[1]
    assert first == second == gen_xos_hard(n, k).execute()[1]


def test_cross_column_valuation_small_scale_share():
    # same construction at sub scale, small enough for the exact oracle
    clauses = []
    for j in range(1, 5):
        clauses.append({f"r{i:02d}c{j:03d}": Fraction(1) for i in range(1, 3)})
    v = XOSValuation(clauses)
    items = [f"r{i:02d}c{j:03d}" for i in range(1, 3) for j in range(1, 5)]
    assert mms_exact(v, 4, items).value == 2
    assert not is_submodular(v, items[:4] + items[4:6])
    # direct check on the 2x2 corner
    corner = ["r01c001", "r01c002", "r02c001", "r02c002"]
    assert not is_submodular(v, corner)


def test_xos_guards():
    with pytest.raises(ValueError):
        gen_xos_hard(8, 2)  # needs n >= 4k^2
    with pytest.raises(ValueError):
        gen_xos_hard(17, 2)


def test_negative_generators_reject_bad_k():
    for gen in (gen_altruistic_negative, gen_original_negative, gen_modified_negative):
        with pytest.raises(ValueError):
            gen(0)
        with pytest.raises(ValueError):
            gen(5)


def test_random_submodular_generator():
    a = gen_random_submodular(21, 3, 6, 5, "random")
    b = gen_random_submodular(21, 3, 6, 5, "random")
    assert [x.entitlement for x in a.agents] == [x.entitlement for x in b.agents]
    assert sum(x.entitlement for x in a.agents) == 1
    for agent in a.agents:
        assert is_submodular(agent.valuation, a.items)
    c = gen_random_submodular(22, 4, 5, 5, "equal")
    assert all(x.entitlement == Fraction(1, 4) for x in c.agents)
    with pytest.raises(ValueError):
        gen_random_submodular(1, 2, 4, entitlements="weird")


def test_scripted_runs_are_repeatable():
    run = gen_altruistic_negative(2)
    _, tr1 = run.execute()
    _, tr2 = run.execute()
    assert tr1 == tr2


def test_random_fixture_share_values_frozen():
    # three seeded fixtures with their exact share values pinned down
    expected = {
        (101, 3, 6, "equal"): (
            {"a0": "1/3", "a1": "1/3", "a2": "1/3"},
            {"a0": "15", "a1": "14", "a2": "16"},
            {"a0": "15", "a1": "14", "a2": "16"},
        ),
        (202, 2, 5, "random"): (
            {"a0": "2/5", "a1": "3/5"},
            {"a0": "16", "a1": "12"},
            {"a0": "22", "a1": "12"},  # MMS can exceed APS once entitlements differ
        ),
        (303, 4, 7, "equal"): (
            {"a0": "1/4", "a1": "1/4", "a2": "1/4", "a3": "1/4"},
            {"a0": "6", "a1": "9", "a2": "8", "a3": "4"},
            {"a0": "6", "a1": "9", "a2": "8", "a3": "4"},
        ),
    }
    from bidfair.shares import aps_exact, mms_exact

    for (seed, n, m, kind), (ents, aps, mms) in expected.items():
        inst = gen_random_submodular(seed, n, m, universe=5, entitlements=kind)
        assert {a.id: str(a.entitlement) for a in inst.agents} == ents
        for spec in inst.agents:
            assert str(aps_exact(spec.valuation, spec.entitlement, inst.items).value) == aps[spec.id]
            assert str(mms_exact(spec.valuation, n, inst.items).value) == mms[spec.id]
