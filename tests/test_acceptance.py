"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS line with its counts when it succeeds, so a
verbose run doubles as the acceptance report.
"""

import random
import time
from fractions import Fraction

import corpus_helpers as ch

from bidfair.analysis import (
    CANONICAL_MULTIPLIERS,
    build_theorem_system,
    certificate_valid,
    check_feasible,
    combine_rows,
    lower_bound_diagnostics,
)
from bidfair.engine import state_after, verify_transcript
from bidfair.model import make_instance, reduce_instance, residual_instance
from bidfair.negatives import (
    gen_altruistic_negative,
    gen_original_negative,
    gen_xos_hard,
)
from bidfair.serialize import dumps, report_to_dict, transcript_to_dict
from bidfair.shares import (
    aps_exact,
    aps_unit_demand,
    mms_exact,
    verify_fractional_partition,
    verify_mms_partition,
)
from bidfair.strategies import default_rho
from bidfair.valuations import (
    AdditiveValuation,
    TruncatedValuation,
    UnitDemandValuation,
)
from bidfair.wrapper import (
    call_budget,
    guarantee_rho,
    unconditional_allocate,
    value_spread_bound,
)

MMS_RHO = Fraction(10, 27)


def test_criterion_1_share_guarantee_standard_game():
    """Proportional bidding always clears APS/(3-2b) against any opponents."""
    start = time.time()
    games = 0
    violations = 0
    for idx in range(ch.CORPUS_SIZE):
        for profile in range(ch.PROFILES):
            inst, p, share, strategy, alloc, tr = ch.play_standard(idx, profile)
            games += 1
            rho = default_rho(inst.entitlement(p))
            if inst.valuation(p).value(alloc[p]) < rho * share:
                violations += 1
    assert violations == 0
    print(
        f"ACCEPT 1 PASS: {games} standard games over {ch.CORPUS_SIZE} instances, "
        f"0 violations of v >= APS/(3-2b) [{time.time()-start:.1f}s]"
    )


def test_criterion_2_share_guarantee_spend_capped_game():
    """Marginal-value bidding in the 10/27-capped game clears (10/27)*MMS."""
    start = time.time()
    games = 0
    violations = 0
    for idx in ch.equal_indices():
        for profile in range(ch.PROFILES):
            inst, p, share, strategy, alloc, tr = ch.play_altruistic(idx, profile)
            games += 1
            if inst.valuation(p).value(alloc[p]) < MMS_RHO * share:
                violations += 1
    assert violations == 0
    print(
        f"ACCEPT 2 PASS: {games} spend-capped games on equal entitlements, "
        f"0 violations of v >= (10/27)*MMS [{time.time()-start:.1f}s]"
    )


def test_criterion_3_negative_instances_reproduce_exactly():
    start = time.time()
    checked = []
    for k, ratio in ((1, Fraction(1, 2)), (2, Fraction(2, 5)), (3, Fraction(3, 8))):
        run = gen_altruistic_negative(k)
        alloc, tr = run.execute()
        value = run.instance.valuation(run.agent).value(alloc[run.agent])
        assert value == 1
        assert value / run.share_value == ratio
        assert verify_transcript(tr, run.instance)
        checked.append(f"capped k={k}: {ratio}")
    for k, share, ratio in ((1, Fraction(2), Fraction(1, 2)), (2, Fraction(8, 3), Fraction(3, 8))):
        run = gen_original_negative(k)
        alloc, tr = run.execute()
        value = run.instance.valuation(run.agent).value(alloc[run.agent])
        assert run.share_value == share
        assert value == 1 and value / share == ratio
        assert verify_transcript(tr, run.instance)
        checked.append(f"standard k={k}: {ratio} of {share}")
    run = gen_xos_hard(16, 2)
    alloc, tr = run.execute()
    value = run.instance.valuation(run.agent).value(alloc[run.agent])
    assert value <= 1 and run.share_value == 2
    assert verify_transcript(tr, run.instance)
    checked.append("xos(16,2): <=1 vs 2")
    elapsed = time.time() - start
    assert elapsed <= 10
    print(f"ACCEPT 3 PASS: exact ratios {checked} [{elapsed:.1f}s]")


def test_criterion_4_certificate_lp():
    start = time.time()
    for n in (10, 100, 1000, None):
        system = build_theorem_system(Fraction(27, 10), n)
        outcome = check_feasible(system)
        assert not outcome.feasible
        coeffs, constant = combine_rows(system, outcome.certificate)
        assert all(c >= 0 for c in coeffs)
        assert constant < 0 or (constant == 0 and outcome.certificate[1] > 0)
        # the returned multipliers are the canonical ones (scale factor 1)
        assert outcome.certificate == CANONICAL_MULTIPLIERS
        assert certificate_valid(system, CANONICAL_MULTIPLIERS)
    bracket = check_feasible(build_theorem_system(Fraction(269, 100), 1000))
    assert bracket.feasible  # recorded: 269/100 is feasible, so 27/10 is tight
    elapsed = time.time() - start
    assert elapsed <= 1
    print(
        "ACCEPT 4 PASS: z=27/10 infeasible for n in {10,100,1000,inf} with "
        f"multipliers (9/5,1,1/5,1/2); z=269/100 feasible [{elapsed:.2f}s]"
    )


def test_criterion_5_guess_refinement_allocator():
    start = time.time()
    epsilon = Fraction(1, 10)
    instances = 0
    total_calls = 0

    def run_mode(idx, mode, shares):
        nonlocal total_calls
        inst = ch.instance(idx)
        trace = []
        outcome = unconditional_allocate(
            inst, epsilon, mode=mode, exact_shares=shares,
            on_iteration=lambda i, guesses, alloc: trace.append(guesses),
        )
        budget = call_budget(len(inst.agents), epsilon, value_spread_bound(inst))
        assert outcome.calls <= budget
        total_calls += outcome.calls
        for spec in inst.agents:
            rho = guarantee_rho(mode, spec.entitlement)
            value = spec.valuation.value(outcome.allocation[spec.id])
            assert value >= (1 - epsilon) * rho * shares[spec.id]
        for guesses in trace:  # guess floor invariant at every iteration
            for agent_id, guess in guesses.items():
                assert guess >= (1 - epsilon) * shares[agent_id]

    for idx in range(ch.CORPUS_SIZE):
        inst = ch.instance(idx)
        run_mode(idx, "aps", {a.id: ch.aps_of(idx, a.id).value for a in inst.agents})
        instances += 1
    mms_instances = 0
    for idx in ch.equal_indices():
        inst = ch.instance(idx)
        run_mode(idx, "mms", {a.id: ch.mms_of(idx, a.id).value for a in inst.agents})
        mms_instances += 1
    elapsed = time.time() - start
    assert elapsed <= 600
    print(
        f"ACCEPT 5 PASS: refinement on {instances} standard + {mms_instances} "
        f"spend-capped corpora, {total_calls} conditional calls, all within "
        f"budget, every agent >= (1-eps)*rho*share, guess floor held "
        f"[{elapsed:.1f}s]"
    )


# ------------------------------------------------------------ criterion 6

PROPERTY_INSTANCES = 40
PROPERTY_PROFILES = (0, 1, 2)  # lexicographic, adversarial, seeded ties


def _standard_transcript_claims(inst, p_id, share, rho, strategy, transcript):
    """Bid-shape claims; returns the large-phase length and win flag."""
    v = inst.valuation(p_id)
    vt = TruncatedValuation(v, share)
    b = inst.entitlement(p_id)
    threshold = 2 * rho * share
    bids = []
    transition = 0
    won_large = False
    for r, rnd in enumerate(transcript.rounds, start=1):
        if p_id not in rnd.bids:
            continue
        state = state_after(inst, transcript, r - 1)
        large = any(vt.value(frozenset([e])) > threshold for e in state.remaining)
        held = state.bundles[p_id]
        if large:
            transition = r
            assert rnd.bids[p_id] == state.budgets[p_id]
            if rnd.winner == p_id:
                won_large = True
        else:
            top = max(
                (vt.value(held | {e}) - vt.value(held) for e in state.remaining),
                default=Fraction(0),
            )
            formula = Fraction(1, 2) / rho * b / share * top
            assert rnd.bids[p_id] == min(formula, state.budgets[p_id])
            # bid dichotomy: full formula bid, or the target already held
            assert rnd.bids[p_id] == formula or vt.value(held) >= rho * share
        bids.append(rnd.bids[p_id])
    assert all(x >= y for x, y in zip(bids, bids[1:]))
    assert not strategy.budget_capped_early
    return transition, won_large


def _residual_claims(inst, p_id, share, rho, transcript, transition):
    """Renormalized-window claims; returns which checks were exercised."""
    state = state_after(inst, transcript, transition)
    if state.bundles[p_id]:
        return None  # grabbed a big item; she is done and the window is moot
    residual, _ = residual_instance(inst, state, truncations={p_id: share})
    b_hat = residual.entitlement(p_id)
    res = aps_exact(residual.valuation(p_id), b_hat, residual.items)
    assert res.value == share  # share preserved through the full-budget prefix
    vt = TruncatedValuation(inst.valuation(p_id), share)
    diag = lower_bound_diagnostics(
        transcript, inst, p_id, res.witness,
        oracle=vt, start_round=transition, entitlement=b_hat,
    )
    survivors = diag.window_items - diag.taken_by_others
    assert vt.value(survivors) >= diag.held_value + diag.surviving_total
    assert diag.certified_total <= (
        diag.surviving_total + diag.held_value + b_hat * diag.removed_marginals
    )
    tight = diag.held_value < rho * share
    if tight:
        assert diag.removed_marginals <= 2 * rho * (1 - b_hat) * share / b_hat
    return tight


def test_criterion_6_structural_run_invariants():
    start = time.time()
    standard_runs = 0
    residual_checks = 0
    payment_bound_checks = 0
    large_phase_runs = 0
    for idx in range(PROPERTY_INSTANCES):
        for profile in PROPERTY_PROFILES:
            inst, p, share, strategy, alloc, tr = ch.play_standard(idx, profile)
            assert verify_transcript(tr, inst)
            standard_runs += 1
            if share == 0:
                continue
            rho = default_rho(inst.entitlement(p))
            transition, won_large = _standard_transcript_claims(inst, p, share, rho, strategy, tr)
            if transition:
                large_phase_runs += 1
            if not won_large:
                tight = _residual_claims(inst, p, share, rho, tr, transition)
                if tight is not None:
                    residual_checks += 1
                    if tight:
                        payment_bound_checks += 1
    assert residual_checks > 0 and payment_bound_checks > 0 and large_phase_runs > 0

    # spend-capped runs: the bid sequence is weakly decreasing there too
    altruistic_runs = 0
    for idx in ch.equal_indices(PROPERTY_INSTANCES):
        for profile in PROPERTY_PROFILES:
            inst, p, share, strategy, alloc, tr = ch.play_altruistic(idx, profile)
            bids = [r.bids[p] for r in tr.rounds if p in r.bids]
            assert all(x >= y for x, y in zip(bids, bids[1:]))
            altruistic_runs += 1

    # agent/item removal never lowers the shares of weakly smaller agents
    reduction_checks = 0
    rng = random.Random(2024)
    for trial in range(30):
        n = rng.choice([2, 3])
        m = rng.randint(2, 6)
        items = [f"e{j}" for j in range(m)]
        equal = trial % 2 == 0
        if equal:
            shares_vec = [Fraction(1, n)] * n
        else:
            weights = [rng.randint(1, 4) for _ in range(n)]
            shares_vec = [Fraction(w, sum(weights)) for w in weights]
        agents = []
        for i in range(n):
            vals = {e: Fraction(rng.randint(0, 5)) for e in items}
            agents.append((f"a{i}", shares_vec[i], AdditiveValuation(vals)))
        inst = make_instance(items, agents)
        removed = inst.agents[rng.randrange(n)]
        if removed.entitlement == 1:
            continue
        reduced = reduce_instance(inst, removed.id, items[rng.randrange(m)])
        for survivor in reduced.agents:
            if inst.entitlement(survivor.id) > removed.entitlement:
                continue
            before = aps_exact(survivor.valuation, inst.entitlement(survivor.id), inst.items).value
            after = aps_exact(survivor.valuation, survivor.entitlement, reduced.items).value
            assert after >= before
            if equal:
                mms_before = mms_exact(survivor.valuation, n, inst.items).value
                mms_after = mms_exact(survivor.valuation, n - 1, reduced.items).value
                assert mms_after >= mms_before
            reduction_checks += 1
    assert reduction_checks > 0

    # truncating at any level at or below the share pins the share there
    truncation_checks = 0
    for idx in range(0, PROPERTY_INSTANCES, 7):
        inst = ch.instance(idx)
        spec = inst.agents[0]
        aps = ch.aps_of(idx, spec.id).value
        mms = ch.mms_of(idx, spec.id).value
        n = len(inst.agents)
        for t in (aps, aps / 2):
            assert aps_exact(TruncatedValuation(spec.valuation, t), spec.entitlement, inst.items).value == t
        for t in (mms, Fraction(2, 3) * mms):
            assert mms_exact(TruncatedValuation(spec.valuation, t), n, inst.items).value == t
        truncation_checks += 1
    elapsed = time.time() - start
    print(
        f"ACCEPT 6 PASS: {standard_runs} standard + {altruistic_runs} capped "
        f"transcripts (bid shape, dichotomy, monotone bids; {large_phase_runs} "
        f"had a full-budget prefix), {residual_checks} renormalized windows "
        f"with the share preserved ({payment_bound_checks} payment-bound "
        f"checks), {reduction_checks} reduction checks, {truncation_checks} "
        f"truncation fixed points, 0 violations [{elapsed:.1f}s]"
    )


def test_criterion_7_share_oracle_cross_validation():
    start = time.time()
    dominance = 0
    for idx in ch.equal_indices(60):
        inst = ch.instance(idx)
        for spec in inst.agents:
            assert ch.aps_of(idx, spec.id).value >= ch.mms_of(idx, spec.id).value
            dominance += 1
    closed_form = 0
    rng = random.Random(99)
    for _ in range(20):
        m = rng.randint(1, 7)
        values = {f"e{j}": Fraction(rng.randint(0, 12)) for j in range(m)}
        v = UnitDemandValuation(values)
        b = Fraction(rng.randint(1, 5), rng.randint(5, 9))
        b = min(b, Fraction(1))
        res = aps_exact(v, b, list(values))
        assert res.value == aps_unit_demand(values.values(), b)
        assert verify_fractional_partition(res.witness, v, b, res.value)
        closed_form += 1
    witnesses = 0
    for (idx, agent_id), res in list(ch._aps.items())[:80]:
        inst = ch.instance(idx)
        assert verify_fractional_partition(
            res.witness, inst.valuation(agent_id), inst.entitlement(agent_id), res.value
        )
        witnesses += 1
    for (idx, agent_id), res in list(ch._mms.items())[:80]:
        inst = ch.instance(idx)
        assert verify_mms_partition(res.witness, inst.valuation(agent_id), inst.items, res.value)
        witnesses += 1
    assert witnesses > 0
    print(
        f"ACCEPT 7 PASS: APS>=MMS on {dominance} equal-entitlement agents, "
        f"{closed_form} closed-form agreements, {witnesses} witnesses verified "
        f"[{time.time()-start:.1f}s]"
    )


def test_criterion_8_deterministic_reports():
    start = time.time()
    # repeated corpus games with seeded ties and seeded opponents
    for idx, profile in ((0, 2), (5, 6), (9, 2)):
        inst, p1, _, _, _, tr1 = ch.play_standard(idx, profile)
        _, p2, _, _, _, tr2 = ch.play_standard(idx, profile)
        assert p1 == p2 and tr1 == tr2
        assert dumps(transcript_to_dict(tr1)) == dumps(transcript_to_dict(tr2))
        assert dumps(report_to_dict(inst, tr1)) == dumps(report_to_dict(inst, tr2))
    # builtin adversarial runs are bit-stable as well
    runs = [gen_altruistic_negative(2).execute()[1] for _ in range(2)]
    assert dumps(transcript_to_dict(runs[0])) == dumps(transcript_to_dict(runs[1]))
    print(f"ACCEPT 8 PASS: byte-identical reports on repeated seeded runs [{time.time()-start:.1f}s]")
