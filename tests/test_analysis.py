"""Certificate LP, run diagnostics, and guarantee reports."""

from fractions import Fraction

import pytest

from bidfair.analysis import (
    CANONICAL_MULTIPLIERS,
    TheoremSystem,
    build_theorem_system,
    certificate_valid,
    check_feasible,
    combine_rows,
    guarantee_report,
    lower_bound_diagnostics,
)
from bidfair.engine import GameConfig, TieBreak, run_game, state_after
from bidfair.model import FractionalPartition, make_instance, residual_instance
from bidfair.negatives import gen_random_submodular, gen_xos_hard
from bidfair.shares import aps_exact
from bidfair.strategies import ProportionalBidder, RandomBidder, ScriptedBidder, ZeroBidder
from bidfair.valuations import AdditiveValuation, TruncatedValuation


# ------------------------------------------------------------ LP system

def test_substituted_coefficients_at_z_27_over_10():
    system = build_theorem_system(Fraction(27, 10), 10)
    # value row: -2x1 - 3/2 x2 - 4/3 x3 - 5/4 x4 - 6/5 y + q < -17/10
    assert system.rows[1] == (
        Fraction(-2), Fraction(-3, 2), Fraction(-4, 3),
        Fraction(-5, 4), Fraction(-6, 5), Fraction(1),
    )
    assert system.rhs[1] == Fraction(-17, 10)
    # deficiency row at z-5/2 = 1/5: x4 coefficient -1, constant -3/5
    assert system.rows[3] == (
        Fraction(-2, 5), Fraction(-3, 5), Fraction(-4, 5),
        Fraction(-1), Fraction(-6, 5), Fraction(-1),
    )
    assert system.rhs[3] == Fraction(-3, 5)
    assert system.rows[2] == (Fraction(2), 0, 0, 0, 0, 0) and system.rhs[2] == 1
    assert system.rhs[0] == 1 - Fraction(1, 10)
    assert system.strict == (False, True, False, False)


def test_deficiency_scalar_just_above_the_validity_floor():
    system = build_theorem_system(Fraction(26, 10), 100)
    assert system.rows[3][0] == Fraction(-1, 5)  # -2 * (z - 5/2) with z - 5/2 = 1/10
    assert system.rhs[3] == Fraction(-3, 10)


def test_z_at_or_below_validity_floor_rejected():
    with pytest.raises(ValueError):
        build_theorem_system(Fraction(5, 2), 10)
    with pytest.raises(ValueError):
        build_theorem_system(2, 10)


@pytest.mark.parametrize("n", [10, 100, 1000, None])
def test_infeasible_at_27_tenths(n):
    system = build_theorem_system(Fraction(27, 10), n)
    outcome = check_feasible(system)
    assert not outcome.feasible
    assert outcome.certificate == CANONICAL_MULTIPLIERS
    coeffs, constant = combine_rows(system, outcome.certificate)
    assert all(c >= 0 for c in coeffs)
    assert coeffs[2] == Fraction(2, 5) - Fraction(1, 3)  # 1/15 on x3
    assert coeffs[3] == Fraction(1, 20)
    assert coeffs[5] == Fraction(1, 2)
    if n is None:
        assert constant == 0  # contradiction comes from the strict value row
    else:
        assert constant == Fraction(-9, 5) / n


def test_feasible_below_the_bound_brackets_it():
    largest_feasible = None
    for z in (Fraction(51, 20), Fraction(13, 5), Fraction(269, 100)):
        outcome = check_feasible(build_theorem_system(z, 1000))
        assert outcome.feasible
        w = outcome.witness
        # substitute the witness back into every row
        system = build_theorem_system(z, 1000)
        point = [w[v] for v in ("x1", "x2", "x3", "x4", "y", "q")]
        for row, rhs, strict in zip(system.rows, system.rhs, system.strict):
            lhs = sum(c * x for c, x in zip(row, point))
            assert lhs < rhs if strict else lhs <= rhs
        largest_feasible = z
    assert largest_feasible == Fraction(269, 100) < Fraction(27, 10)


def test_feasibility_stable_under_row_scaling():
    base = build_theorem_system(Fraction(27, 10), 50)
    factors = (Fraction(3), Fraction(1, 7), Fraction(5, 2), Fraction(11, 4))
    scaled = TheoremSystem(
        z=base.z,
        inv_n=base.inv_n,
        rows=tuple(tuple(f * c for c in row) for f, row in zip(factors, base.rows)),
        rhs=tuple(f * b for f, b in zip(factors, base.rhs)),
        strict=base.strict,
    )
    assert not check_feasible(scaled).feasible
    feas_base = build_theorem_system(Fraction(13, 5), 50)
    feas_scaled = TheoremSystem(
        z=feas_base.z,
        inv_n=feas_base.inv_n,
        rows=tuple(tuple(f * c for c in row) for f, row in zip(factors, feas_base.rows)),
        rhs=tuple(f * b for f, b in zip(factors, feas_base.rhs)),
        strict=feas_base.strict,
    )
    assert check_feasible(feas_scaled).feasible


def test_certificate_validation_rules():
    system = build_theorem_system(Fraction(27, 10), None)
    assert certificate_valid(system, CANONICAL_MULTIPLIERS)
    # dropping the strict row's weight invalidates the zero-constant case
    assert not certificate_valid(system, (Fraction(1), Fraction(0), Fraction(1), Fraction(1)))
    assert not certificate_valid(system, (Fraction(-1), Fraction(1), Fraction(1), Fraction(1)))


# ------------------------------------------------------------ diagnostics

def test_single_agent_diagnostics_settle_immediately():
    v = AdditiveValuation({"e1": 2, "e2": 3})
    inst = make_instance(["e1", "e2"], [("solo", 1, v)])
    share = aps_exact(v, 1, inst.items)
    alloc, tr = run_game(
        inst, {"solo": ProportionalBidder(v, 1, share.value)}, GameConfig()
    )
    diag = lower_bound_diagnostics(tr, inst, "solo", share.witness)
    assert diag.settle_round == 0
    assert diag.taken_by_others == frozenset()
    assert diag.held == frozenset()
    assert diag.surviving_total == diag.certified_total  # nothing shrank it


def test_diagnostics_reject_invalid_partition():
    v = AdditiveValuation({"e1": 1, "e2": 1})
    inst = make_instance(
        ["e1", "e2"],
        [("p", Fraction(1, 2), v), ("o", Fraction(1, 2), AdditiveValuation({}))],
    )
    _, tr = run_game(inst, {"p": ZeroBidder(), "o": ZeroBidder()}, GameConfig())
    overweight = FractionalPartition(((frozenset(["e1", "e2"]), Fraction(1)),))
    with pytest.raises(ValueError):
        lower_bound_diagnostics(tr, inst, "p", overweight)  # coverage 1 > 1/2
    split = FractionalPartition(((frozenset(["e1"]), Fraction(1, 2)), (frozenset(["e1", "e2"]), Fraction(1, 2))))
    with pytest.raises(ValueError):
        lower_bound_diagnostics(tr, inst, "p", split)  # e1 covered 1/2 + 1/2 > 1/2
    # an item outside the instance carries no coverage to check
    outside = FractionalPartition(((frozenset(["e1", "x"]), Fraction(1, 2)), (frozenset(["e2"]), Fraction(1, 2))))
    assert lower_bound_diagnostics(tr, inst, "p", outside).certified_total == 1


@pytest.mark.parametrize(
    "n, k, settle, taken, certified, removed",
    [(16, 2, 32, 31, 2, 1), (36, 3, 108, 107, 3, 2)],
)
def test_xos_hard_diagnostics_are_pinned(n, k, settle, taken, certified, removed):
    # the column partition as witness; values recorded when the ledger kept
    # an {id: bool} activity map
    run = gen_xos_hard(n, k)
    _, tr = run.execute()
    columns = run.instance.valuation("p").clauses
    witness = FractionalPartition(tuple((frozenset(c), Fraction(1, len(columns))) for c in columns))
    diag = lower_bound_diagnostics(tr, run.instance, "p", witness)
    assert diag.settle_round == settle
    assert diag.window_items == frozenset(run.instance.items)
    assert diag.held == {"r01c001"}
    assert len(diag.taken_by_others) == taken
    assert (diag.certified_total, diag.surviving_total) == (certified, 0)
    assert (diag.held_value, diag.removed_marginals) == (1, removed)


def scan_settle_round(inst, tr, agent, start):
    """First round boundary from ``start`` on where rivals are done or items gone."""
    for r in range(start, len(tr.rounds) + 1):
        state = state_after(inst, tr, r)
        if not state.remaining or not any(on for a, on in state.active.items() if a != agent):
            return r
    return None


def test_settle_round_matches_a_state_after_scan():
    # diagnostics replay the game once; a scan of state_after at every round
    # boundary must find the same settle round, window and holdings
    empty = FractionalPartition(((frozenset(), Fraction(1)),))
    for seed in range(6):
        inst = gen_random_submodular(seed, 3, 6, entitlements="random")
        config = GameConfig(
            mode="altruistic" if seed % 2 else "standard",
            rho=Fraction(1, 2) if seed % 2 else None,
            tie=TieBreak("seeded", seed=seed),
        )
        strategies = {a: RandomBidder(seed * 10 + i) for i, a in enumerate(inst.agent_ids)}
        _, tr = run_game(inst, strategies, config)
        for agent in inst.agent_ids:
            for start in range(len(tr.rounds) + 2):
                settle = scan_settle_round(inst, tr, agent, start)
                if settle is None:
                    with pytest.raises(ValueError):
                        lower_bound_diagnostics(tr, inst, agent, empty, start_round=start)
                    continue
                diag = lower_bound_diagnostics(tr, inst, agent, empty, start_round=start)
                assert diag.settle_round == settle
                opening = state_after(inst, tr, start)
                assert diag.window_items == opening.remaining
                window = tr.rounds[start:settle]
                won = {e for r in window if r.winner == agent for e in r.items}
                assert diag.held == opening.bundles[agent] | won
                assert diag.taken_by_others == {e for r in window if r.winner != agent for e in r.items}


def big_small_fixture():
    """Two large items an agent must not win, then a small-item endgame."""
    v = AdditiveValuation({"big1": 5, "big2": 5, "s1": 1, "s2": 1, "s3": 1, "s4": 1})
    items = ["big1", "big2", "s1", "s2", "s3", "s4"]
    inst = make_instance(
        items,
        [
            ("p", Fraction(1, 4), v),
            ("o1", Fraction(3, 8), AdditiveValuation({})),
            ("o2", Fraction(3, 8), AdditiveValuation({})),
        ],
    )
    return inst, v


def test_full_budget_prefix_preserves_the_share():
    # while any item is worth more than 2*rho*share the agent bids everything;
    # after losing those rounds, her share in the renormalized rest is intact
    inst, v = big_small_fixture()
    b = Fraction(1, 4)
    share = aps_exact(v, b, inst.items).value
    assert share == 2
    rho = Fraction(3, 8)  # large threshold 2*rho*share = 3/2 splits big from small
    strategies = {
        "p": ProportionalBidder(v, b, share, rho),
        "o1": ScriptedBidder([Fraction(1, 4)], ["big1"]),
        "o2": ScriptedBidder([0, Fraction(1, 4)], [None, "big2"]),
    }
    config = GameConfig(tie=TieBreak("adversarial", target="p"))
    alloc, tr = run_game(inst, strategies, config)
    assert tr.rounds[0].items == ("big1",) and tr.rounds[1].items == ("big2",)
    assert tr.rounds[0].bids["p"] == b and tr.rounds[1].bids["p"] == b

    state = state_after(inst, tr, 2)
    residual, gamma = residual_instance(inst, state, truncations={"p": share})
    assert gamma == Fraction(1, 2)
    assert residual.entitlement("p") == Fraction(1, 2)
    res_share = aps_exact(residual.valuation("p"), residual.entitlement("p"), residual.items)
    assert res_share.value == share  # unchanged by the full-budget prefix

    # run diagnostics over the post-prefix window with the residual witness
    truncated = TruncatedValuation(v, share)
    diag = lower_bound_diagnostics(
        tr, inst, "p", res_share.witness,
        oracle=truncated, start_round=2, entitlement=Fraction(1, 2),
    )
    assert diag.certified_total <= (
        diag.surviving_total + diag.held_value + Fraction(1, 2) * diag.removed_marginals
    )
    survivors = diag.window_items - diag.taken_by_others
    assert truncated.value(survivors) >= diag.held_value + diag.surviving_total
    # and the final holdings clear the guaranteed fraction
    assert v.value(alloc["p"]) >= rho * share


# ------------------------------------------------------------ reports

def test_guarantee_report_fixtures():
    inst = gen_random_submodular(33, 2, 5)
    v0 = inst.valuation("a0")
    alloc = {"a0": frozenset(inst.items), "a1": frozenset()}
    shares = {"a0": v0.value(inst.item_set), "a1": Fraction(5)}
    targets = {"a0": Fraction(1, 2), "a1": Fraction(1, 2)}
    report = guarantee_report(inst, alloc, shares, targets)
    by_agent = {e.agent: e for e in report.entries}
    assert by_agent["a0"].passed and by_agent["a0"].ratio == 1
    assert not by_agent["a1"].passed
    assert not report.all_passed
    # zero share passes vacuously with no ratio
    vac = guarantee_report(inst, alloc, {"a1": Fraction(0)}, {"a1": Fraction(1)})
    assert vac.entries[0].passed and vac.entries[0].ratio is None


def test_certificate_fallback_when_canonical_multipliers_fail():
    # far above the bound the canonical combination has a negative coefficient,
    # so the solver's own multipliers must be returned and still verify
    for z, n in ((Fraction(3), 50), (Fraction(271, 100), 1000), (Fraction(271, 100), None)):
        system = build_theorem_system(z, n)
        outcome = check_feasible(system)
        assert not outcome.feasible
        assert certificate_valid(system, outcome.certificate)
    assert not certificate_valid(build_theorem_system(Fraction(3), 50), CANONICAL_MULTIPLIERS)
