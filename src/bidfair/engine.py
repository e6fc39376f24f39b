"""Deterministic engine for the budgeted bidding game and its variants.

One item is allocated per round: every active agent submits a bid within her
remaining budget, the highest bid wins (ties resolved by an explicit policy),
and the winner pays her bid and picks an item.  Variants:

* standard    - an agent leaves the game exactly when her budget hits zero.
* altruistic  - an agent leaves once her cumulative spend passes a fixed
                fraction rho of her starting budget (strictly passes by
                default; a config switch makes reaching it sufficient).
* multi_pick  - the winner may take k >= 1 items and pays k times her bid.

Games are replayable: the transcript records every bid, win, pick and payment,
and ``verify_transcript`` re-checks a transcript against the rules without
needing the strategies.  Playing, replaying and verifying all advance one
ledger of the game state, whose ``apply`` checks a round against the rules,
raising ``RuleViolation`` on the first broken one, and then updates budgets,
bundles, the remaining items and who is still active.

Bids are compared as exact ints, never by building a ``Fraction`` per bid,
in one pass over a round's bids (``_settle``, the one routine that decides
the bid range and the top bid, for play and check alike): a bid against its
budget by the sign of its numerator and one cross-multiplication, and
against the running top bid by one more.  The ledger keeps every budget as
a ``Fraction`` and as its (numerator, denominator) int pair, both written
only by ``apply``, and each agent's leaving floor as an int pair fixed at
the start, so a round's leaving test is one cross-multiplication too.
``apply`` computes the winner's new budget from her budget's and her
payment's pairs and builds one ``Fraction`` of it; a free win changes no
budget.

Most games last a few rounds, so what a game costs once counts as much as
what a round costs: ``run_game`` reads the ledger's dicts and its tie
breaker once, and a seeded tie policy seeds its generator at the first tie
it breaks, which draws exactly what a generator seeded up front would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .model import Allocation, GameState, Instance

MODES = ("standard", "altruistic", "multi_pick")
TIE_POLICIES = ("lexicographic", "seeded", "adversarial", "scripted")


class StrategyError(RuntimeError):
    """A strategy broke the rules in a way the engine does not repair."""


class RuleViolation(StrategyError):
    """A round, or the end of a game, that breaks a rule of the game.

    ``round`` is the round's position in the game (counting from 1), or the
    number of rounds played for the end-of-game rules; ``agent`` is the agent
    at fault, when there is one.
    """

    def __init__(self, round: int, rule: str, agent: str | None, detail: str):
        by = f" by {agent}" if agent is not None else ""
        super().__init__(f"round {round}: {rule}{by}: {detail}")
        self.round = round
        self.rule = rule
        self.agent = agent
        self.detail = detail


@dataclass(frozen=True)
class TieBreak:
    policy: str = "lexicographic"
    seed: int | None = None
    target: str | None = None  # adversarial mode: never let this agent win a tie
    prefs: tuple[tuple[str, ...], ...] = ()  # scripted mode: per-round preference

    def __post_init__(self) -> None:
        if self.policy not in TIE_POLICIES:
            raise ValueError(f"unknown tie policy {self.policy!r}")
        if self.policy == "seeded" and self.seed is None:
            raise ValueError("seeded tie-breaking needs a seed")
        if self.policy == "adversarial" and self.target is None:
            raise ValueError("adversarial tie-breaking needs a target agent")


@dataclass(frozen=True)
class GameConfig:
    mode: str = "standard"
    rho: Fraction | None = None
    strict_threshold: bool = True
    tie: TieBreak = field(default_factory=TieBreak)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "altruistic":
            if self.rho is None or not (0 < self.rho <= 1):
                raise ValueError("altruistic mode needs rho in (0, 1]")


@dataclass(frozen=True)
class PublicState:
    """Everything a strategy may observe when bidding or picking.  Spend and
    activity follow from ``budgets`` and what ``Strategy.start`` receives."""

    round: int
    remaining: tuple[str, ...]  # ascending
    budgets: Mapping[str, Fraction]
    bundles: Mapping[str, frozenset[str]]
    bid_history: tuple[Mapping[str, Fraction], ...]


class Strategy:
    """Stateful per-game bidder.  Instances must not be reused across games."""

    agent_id: str | None = None

    def start(self, agent_id: str, instance: Instance, config: GameConfig) -> None:
        if self.agent_id is not None:
            raise StrategyError("strategy instance reused across games")
        self.agent_id = agent_id

    def bid(self, state: PublicState) -> Fraction:
        raise NotImplementedError

    def pick(self, state: PublicState) -> Sequence[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Round:
    number: int
    bids: Mapping[str, Fraction]
    winner: str
    items: tuple[str, ...]
    payment: Fraction


@dataclass(frozen=True)
class Transcript:
    config: GameConfig
    rounds: tuple[Round, ...]
    allocation: Mapping[str, frozenset[str]]
    agent_ids: tuple[str, ...]
    unallocated: tuple[str, ...]
    violations: tuple[str, ...] = ()


_ZERO = Fraction(0)


def _settle(
    bids: Mapping[str, Fraction],
    budgets: Mapping[str, Fraction],
    pairs: Mapping[str, tuple[int, int]],
) -> tuple[list[str], dict[str, Fraction]]:
    """The agents that hold the top bid, in bid order, and the agents whose
    bid lies outside ``[0, budget]``, in bid order, each mapped to her bid
    clamped there (the budget object itself when over it); the top bid is
    the top of the clamped bids.

    ``pairs`` maps each bidder to her budget's ``as_integer_ratio()``, as
    the ledger keeps it.  Each bid's ``as_integer_ratio`` is read once: a bid
    is clamped by its numerator's sign and one cross-multiplication with its
    budget pair, and compared with the running top bid by one more.

    >>> budgets = dict.fromkeys("abcd", Fraction(1, 3))
    >>> _settle({"a": Fraction(1, 3), "b": -1, "c": 2, "d": Fraction(2, 6)},
    ...         budgets, dict.fromkeys("abcd", (1, 3)))
    (['a', 'c', 'd'], {'b': Fraction(0, 1), 'c': Fraction(1, 3)})
    """
    pool: list[str] = []
    clamped: dict[str, Fraction] = {}
    top_n, top_d = -1, 1
    for agent, bid in bids.items():
        n, d = bid.as_integer_ratio()
        if n < 0:
            clamped[agent] = _ZERO
            n, d = 0, 1
        else:
            p, q = pairs[agent]
            if n * q > p * d:
                clamped[agent] = budgets[agent]
                n, d = p, q
        left, right = n * top_d, top_n * d
        if left > right:
            top_n, top_d, pool = n, d, [agent]
        elif left == right:
            pool.append(agent)
    return pool, clamped


class _TieBreaker:
    def __init__(self, tie: TieBreak):
        self.tie = tie
        # a seeded policy's generator, seeded at the first tie it breaks: only
        # ties draw from it, so the draws are those of one made up front
        self.rng: random.Random | None = None

    def choose(self, pool: list[str], round_number: int) -> str:
        if len(pool) == 1:
            return pool[0]
        pool = sorted(pool)
        policy = self.tie.policy
        if policy == "lexicographic":
            return pool[0]
        if policy == "seeded":
            if self.rng is None:
                self.rng = random.Random(self.tie.seed)
            return self.rng.choice(pool)
        if policy == "adversarial":
            others = [a for a in pool if a != self.tie.target]
            return others[0] if others else pool[0]
        prefs = self.tie.prefs[round_number - 1] if round_number <= len(self.tie.prefs) else ()
        for preferred in prefs:
            if preferred in pool:
                return preferred
        return pool[0]


class _Ledger:
    """The state of one game, advanced one checked round at a time.

    ``check_bids`` checks what only a recorded round can break: its number,
    the game not being over, the bidders, bid amounts, winner, tie-break and
    payment.  ``run_game`` turns it off: it builds each round from the clamped
    bids of the active agents and draws the winner from ``breaker`` itself (a
    seeded tie policy must be drawn once per tied round); it checks the picks.

    ``budgets`` holds each budget as a ``Fraction`` and ``pairs`` as its
    ``as_integer_ratio()``; ``apply``, the one place a budget changes, writes
    both.  ``floors`` holds each agent's leaving floor as an int pair, built
    from the ratios of rho and the entitlement.
    """

    def __init__(self, instance: Instance, config: GameConfig, check_bids: bool = True):
        self.config = config
        self.budgets = budgets = {a.id: a.entitlement for a in instance.agents}
        self.pairs = pairs = {i: b.as_integer_ratio() for i, b in budgets.items()}
        # an agent leaves below her floor under a strict spend cap, at it otherwise:
        # spend passes rho * b exactly when the budget falls below (1 - rho) * b
        if config.mode == "altruistic":
            r, s = config.rho.as_integer_ratio()
            self.floors = {i: ((s - r) * p, s * q) for i, (p, q) in pairs.items()}
            self.strict = config.strict_threshold
        else:  # rho = 1: floor 0
            self.floors = dict.fromkeys(budgets, (0, 1))
            self.strict = False
        self.bundles: dict[str, frozenset[str]] = dict.fromkeys(budgets, frozenset())
        # the active agents, in the instance's order: a leaving agent is deleted
        self.active = dict.fromkeys(budgets)
        # the instance's items are sorted, and deleting keys keeps a dict's order
        self.remaining = dict.fromkeys(instance.items)
        self.round = 0
        self.breaker = _TieBreaker(config.tie)
        self.check_bids = check_bids

    @property
    def over(self) -> bool:
        return not self.remaining or not self.active

    def apply(self, rnd: Round) -> None:
        """Check ``rnd`` as the next round of this game, then play it."""
        number, winner, picks = self.round + 1, rnd.winner, rnd.items
        if self.check_bids:
            if rnd.number != number:
                raise RuleViolation(number, "round number", None, f"numbered {rnd.number}")
            if self.over:
                raise RuleViolation(number, "game over", None, "no item or no active agent is left")
            if rnd.bids.keys() != self.active.keys():
                odd = sorted(rnd.bids.keys() ^ self.active.keys())[0]
                raise RuleViolation(number, "bidders", odd, "the bidders must be exactly the active agents")
            pool, clamped = _settle(rnd.bids, self.budgets, self.pairs)
            if clamped:
                agent = next(iter(clamped))
                detail = f"bid {rnd.bids[agent]} outside [0, {self.budgets[agent]}]"
                raise RuleViolation(number, "bid range", agent, detail)
            if winner not in pool:
                raise RuleViolation(number, "winner", winner, f"does not hold the top bid {rnd.bids[pool[0]]}")
            if self.breaker.choose(pool, number) != winner:
                detail = f"the {self.config.tie.policy} policy picks another"
                raise RuleViolation(number, "tie-break", winner, detail)
        # a single pick still in play passes every pick rule
        if len(picks) != 1 or picks[0] not in self.remaining:
            if not picks:
                raise RuleViolation(number, "picks", winner, "picked no item")
            if len(set(picks)) != len(picks):
                raise RuleViolation(number, "picks", winner, "picked an item twice")
            gone = [e for e in picks if e not in self.remaining]
            if gone:
                raise RuleViolation(number, "picks", winner, f"picked unavailable items {gone}")
            if self.config.mode != "multi_pick" and len(picks) != 1:
                raise RuleViolation(number, "picks", winner, f"picked {len(picks)} items outside multi_pick")
        payment = rnd.payment
        (n, d), (p, q) = payment.as_integer_ratio(), self.pairs[winner]
        if self.check_bids:
            bid, k = rnd.bids[winner], len(picks)
            if payment != (bid if k == 1 else bid * k):
                raise RuleViolation(number, "payment", winner, f"paid {payment} for {k} items at {bid}")
            if n * q > p * d:
                detail = f"paid {payment} from a budget of {self.budgets[winner]}"
                raise RuleViolation(number, "budget", winner, detail)

        self.bundles[winner] = self.bundles[winner].union(picks)
        for e in picks:
            del self.remaining[e]
        # a free win leaves the budget, and so the agent's activity, as it was
        if n:
            self.budgets[winner] = budget = Fraction(p * d - n * q, q * d)
            self.pairs[winner] = n, d = budget.as_integer_ratio()
            p, q = self.floors[winner]
            if n * q < p * d if self.strict else n * q <= p * d:
                del self.active[winner]
        self.round = number

    def snapshot(self) -> GameState:
        return GameState(
            round=self.round,
            remaining=frozenset(self.remaining),
            budgets=dict(self.budgets),
            bundles=dict(self.bundles),
            active={i: i in self.active for i in self.budgets},
        )


def run_game(
    instance: Instance,
    strategies: Mapping[str, Strategy],
    config: GameConfig,
) -> tuple[Allocation, Transcript]:
    """Play the game to completion and return the allocation and transcript."""
    ids = instance.agent_ids
    if set(strategies) != set(ids):
        raise ValueError("need exactly one strategy per agent")
    for agent_id in ids:
        strategies[agent_id].start(agent_id, instance, config)

    ledger = _Ledger(instance, config, check_bids=False)
    # the ledger's dicts change in place, so the loop reads them once
    budgets, pairs, bundles = ledger.budgets, ledger.pairs, ledger.bundles
    active, remaining = ledger.active, ledger.remaining
    choose, apply = ledger.breaker.choose, ledger.apply
    multi_pick = config.mode == "multi_pick"
    history: list[Mapping[str, Fraction]] = []
    rounds: list[Round] = []
    violations: list[str] = []

    while remaining and active:
        round_number = len(rounds) + 1
        state = PublicState(
            round=round_number,
            remaining=tuple(remaining),
            budgets=dict(budgets),
            bundles=dict(bundles),
            bid_history=tuple(history),
        )
        bids: dict[str, Fraction] = {}
        for agent_id in active:
            bid = strategies[agent_id].bid(state)
            bids[agent_id] = bid if type(bid) is Fraction else Fraction(bid)
        pool, clamped = _settle(bids, budgets, pairs)
        for agent_id, legal in clamped.items():
            violations.append(
                f"round {round_number}: bid {bids[agent_id]} by {agent_id} clamped to {legal}"
            )
            bids[agent_id] = legal
        winner = choose(pool, round_number)

        picks = tuple(strategies[winner].pick(state))
        bid = bids[winner]
        if multi_pick and bid > 0:
            affordable = int(budgets[winner] / bid)
            if len(picks) > affordable:
                violations.append(
                    f"round {round_number}: {winner} afforded only {affordable} picks"
                )
                picks = picks[:affordable]

        rnd = Round(round_number, bids, winner, picks, bid if len(picks) == 1 else bid * len(picks))
        apply(rnd)
        history.append(dict(bids))
        rounds.append(rnd)

    transcript = Transcript(
        config=config,
        rounds=tuple(rounds),
        allocation=dict(bundles),
        agent_ids=ids,
        unallocated=tuple(remaining),
        violations=tuple(violations),
    )
    return dict(bundles), transcript


def state_after(instance: Instance, transcript: Transcript, upto: int) -> GameState:
    """Reconstruct the game state after the first ``upto`` rounds.

    The rounds are checked as they are replayed: a broken rule raises
    ``RuleViolation``.
    """
    ledger = _Ledger(instance, transcript.config)
    for rnd in transcript.rounds[:upto]:
        ledger.apply(rnd)
    return ledger.snapshot()


def check_transcript(transcript: Transcript, instance: Instance) -> None:
    """Re-check a transcript against the game rules, without the strategies.

    Replays every round through the rules (bid legality, winner maximality
    and tie-break consistency, payments, pick availability, deactivation
    timing), then checks that the game stopped only when it had to and that
    the recorded allocation and unallocated items match the picks.  Raises
    ``RuleViolation`` for the first rule broken.
    """
    ledger = _Ledger(instance, transcript.config)
    for rnd in transcript.rounds:
        ledger.apply(rnd)
    played, won, recorded = ledger.round, ledger.bundles, transcript.allocation
    if not ledger.over:
        left = len(ledger.remaining)
        raise RuleViolation(played, "stopped early", None, f"{left} items left to active agents")
    wrong = sorted(a for a in set(recorded) | set(won) if recorded.get(a) != won.get(a))
    if wrong:
        raise RuleViolation(played, "allocation", wrong[0], "recorded bundle differs from the items won")
    if set(transcript.unallocated) != ledger.remaining.keys():
        raise RuleViolation(played, "unallocated", None, "recorded items differ from the items left")


def verify_transcript(transcript: Transcript, instance: Instance) -> bool:
    """Whether ``check_transcript`` finds no broken rule."""
    try:
        check_transcript(transcript, instance)
    except RuleViolation:
        return False
    return True
