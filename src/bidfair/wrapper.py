"""Guess-refinement allocator: conditional share guarantees made unconditional.

``conditional_allocate`` simulates the bidding game with every agent playing
her proportional strategy against a supplied share guess t_i.  Its contract:
whenever t_i is at most agent i's true share, she receives at least rho_i*t_i,
where rho_i = 1/(3-2*b_i) in the standard game and 10/27 in the spend-capped
equal-entitlement game.

``unconditional_allocate`` starts every guess at v_i(M) and repeatedly lowers
one violated guess by a (1-eps) factor, stopping when no agent with a guess
above her value floor v_i(M)/K is short of rho_i*t_i.  Guesses never fall
below (1-eps) times the true share, so the result is a (1-eps)*rho_i share
guarantee, within n*ceil(log K / eps) + 1 game runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from .engine import GameConfig, Strategy, Transcript, run_game
from .model import Allocation, Instance
from .strategies import AltruisticProportionalBidder, ProportionalBidder, default_rho

MMS_GAME_RHO = Fraction(10, 27)


class ContractViolation(RuntimeError):
    """The conditional guarantee failed against an exact share oracle."""

    def __init__(self, message: str, transcript: Transcript | None = None):
        super().__init__(message)
        self.transcript = transcript


def guarantee_rho(mode: str, entitlement: Fraction) -> Fraction:
    """Per-agent guaranteed fraction of a correct guess."""
    if mode == "aps":
        return default_rho(entitlement)
    if mode == "mms":
        return MMS_GAME_RHO
    raise ValueError(f"unknown mode {mode!r}")


def conditional_allocate(
    instance: Instance,
    guesses: Mapping[str, Fraction],
    mode: str = "aps",
) -> tuple[Allocation, Transcript]:
    """One game with every agent playing her proportional strategy at her guess."""
    if set(guesses) != set(instance.agent_ids):
        raise ValueError("need one guess per agent")
    if any(t < 0 for t in guesses.values()):
        raise ValueError("guesses must be nonnegative")
    if mode == "aps":
        config, bidder = GameConfig(mode="standard"), ProportionalBidder
    elif mode == "mms":
        if not instance.has_equal_entitlements():
            raise ValueError("the spend-capped game guarantee needs equal entitlements")
        config, bidder = GameConfig(mode="altruistic", rho=MMS_GAME_RHO), AltruisticProportionalBidder
    else:
        raise ValueError(f"unknown mode {mode!r}")
    strategies: dict[str, Strategy] = {
        spec.id: bidder(spec.valuation, spec.entitlement, guesses[spec.id])
        for spec in instance.agents
    }
    return run_game(instance, strategies, config)


def value_spread_bound(instance: Instance) -> Fraction:
    """K: largest ratio of full-set value to smallest positive item value."""
    best = Fraction(1)
    for spec in instance.agents:
        total = spec.valuation.value(instance.item_set)
        singles = (spec.valuation.value(frozenset([e])) for e in instance.items)
        positives = [x for x in singles if x > 0]
        if positives and total > 0:
            best = max(best, total / min(positives))
    return best


def call_budget(n: int, epsilon: Fraction, spread: Fraction) -> int:
    """n * ceil(log K / eps) + 1, the allowed number of conditional calls.
    log K is taken from K's numerator and denominator: ``math.log`` of an int
    never overflows, while K as a float may."""
    log_k = math.log(spread.numerator) - math.log(spread.denominator) if spread > 1 else 0.0
    return n * math.ceil(log_k / float(epsilon)) + 1


def default_epsilon(mode: str, instance: Instance) -> Fraction:
    """Guess-decrement rate that keeps the unconditional guarantee at the
    mode's base fraction: 2/(3m) leaves agents with positive shares at 1/3
    of their share in the standard game (m counts as 1 when there are no
    items); 1/(3n) is the equal-entitlement counterpart."""
    if mode == "aps":
        return Fraction(2, 3 * max(1, len(instance.items)))
    if mode == "mms":
        return Fraction(1, 3 * len(instance.agents))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class RefinementOutcome:
    allocation: Allocation
    transcript: Transcript
    guesses: dict[str, Fraction]
    calls: int
    frozen: tuple[str, ...]  # agents whose guess hit the value floor


def unconditional_allocate(
    instance: Instance,
    epsilon: Fraction,
    mode: str = "aps",
    exact_shares: Mapping[str, Fraction] | None = None,
    on_iteration: Callable[[int, dict[str, Fraction], Allocation], None] | None = None,
) -> RefinementOutcome:
    """Run the guess-refinement loop to a satisfying allocation.

    ``exact_shares``, when supplied (desk-scale verification), arms a check
    that every guess stays at or above (1-eps) times the true share; a breach
    means the conditional contract failed and raises ContractViolation with
    the offending transcript.
    """
    epsilon = Fraction(epsilon)
    if not (0 < epsilon < 1):
        raise ValueError(f"'epsilon' must lie in (0, 1), not {epsilon}")
    spread = value_spread_bound(instance)
    ids = instance.agent_ids
    totals = {a.id: a.valuation.value(instance.item_set) for a in instance.agents}
    guesses = dict(totals)
    floors = {i: totals[i] / spread for i in ids}
    rhos = {i: guarantee_rho(mode, instance.entitlement(i)) for i in ids}
    budget = call_budget(len(ids), epsilon, spread)

    calls = 0
    while True:
        allocation, transcript = conditional_allocate(instance, guesses, mode)
        calls += 1
        if on_iteration is not None:
            on_iteration(calls, dict(guesses), allocation)
        if exact_shares is not None:
            for i in ids:
                if guesses[i] < (1 - epsilon) * exact_shares[i]:
                    raise ContractViolation(
                        f"guess for {i} fell to {guesses[i]}, below (1-eps) "
                        f"times the true share {exact_shares[i]}",
                        transcript,
                    )
        violators = [
            i
            for i in ids
            if instance.valuation(i).value(allocation[i]) < rhos[i] * guesses[i]
            and guesses[i] >= floors[i]
        ]
        if not violators:
            frozen = tuple(i for i in ids if guesses[i] < floors[i])
            return RefinementOutcome(allocation, transcript, guesses, calls, frozen)
        if calls > budget:
            raise ContractViolation(
                f"exceeded the call budget of {budget}; the conditional "
                "guarantee must have failed",
                transcript,
            )
        worst = min(violators)
        guesses[worst] = (1 - epsilon) * guesses[worst]
