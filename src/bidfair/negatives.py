"""Hard instances with scripted adversarial runs, plus random instance corpora.

The staged constructions arrange items in a matrix of substitute rows built
on the Sylvester sequence q_1 = 2, q_k = 1 + q_1*...*q_{k-1}.  Against the
scripted opponents (and ties always resolved against the designated agent),
the proportional bidder ends with value exactly 1 while her share is larger,
pinning down how far the strategy guarantees can possibly be pushed.  The
cross-column XOS construction shows that no strategy helps once valuations
leave the substitute-rows world: a max-over-columns bidder can be held to a
1/k fraction of her share.

Every generator returns a ``ScriptedRun`` whose execution through the game
engine reproduces its expected outcome exactly, in rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .engine import GameConfig, PublicState, Strategy, TieBreak, Transcript, run_game
from .model import Allocation, AgentSpec, Instance
from .strategies import (
    AltruisticProportionalBidder,
    ConstantBidder,
    ProportionalBidder,
    ScriptedBidder,
    still_remaining,
)
from .valuations import (
    AdditiveValuation,
    RowSubstitutesValuation,
    WeightedCoverageValuation,
    XOSValuation,
)

P_ID = "p"


def sylvester(k: int) -> list[int]:
    """First k+1 Sylvester numbers: q_1 = 2, q_j = 1 + q_1*...*q_{j-1}.

    >>> sylvester(3)
    [2, 3, 7, 43]
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > 6:
        raise ValueError("k > 6 rejected: the sequence grows doubly exponentially")
    qs = [2]
    while len(qs) < k + 1:
        qs.append(1 + math.prod(qs))
    return qs


def altruistic_negative_ratio(k: int) -> Fraction:
    """1 / (1 + sum_{i<=k} 1/(q_i - 1)): ratio achieved in the spend-capped run."""
    qs = sylvester(k)
    return 1 / (1 + sum(Fraction(1, q - 1) for q in qs[:k]))


def standard_negative_ratio(k: int) -> Fraction:
    """1 / (3 - 2/(q_{k+1} - 1)): ratio achieved in the standard-game run."""
    qs = sylvester(k)
    return 1 / (3 - Fraction(2, qs[k] - 1))


@dataclass
class ScriptedRun:
    """An instance bundled with strategies and the outcome the run must produce."""

    name: str
    instance: Instance
    agent: str
    config: GameConfig
    strategy_factories: Mapping[str, Callable[[], Strategy]]
    expected_value: Fraction
    share_value: Fraction
    share_kind: str
    expected_ratio: Fraction | None = None
    value_is_upper_bound: bool = False

    def execute(self) -> tuple[Allocation, Transcript]:
        strategies = {a: factory() for a, factory in self.strategy_factories.items()}
        return run_game(self.instance, strategies, self.config)


def _matrix_ids(rows: Sequence[int], n_cols: int) -> dict[int, list[str]]:
    return {i: [f"r{i:02d}c{j:03d}" for j in range(1, n_cols + 1)] for i in rows}


def _staged_run(
    k: int,
    row_values: list[Fraction],
    top_row_value: Fraction | None,
) -> tuple[Instance, dict, int, list[int], Fraction]:
    """Common layout for the staged negatives: n agents, substitute rows."""
    qs = sylvester(k)
    n = math.prod(qs[:k])
    assert n == qs[k] - 1
    assert sum(n // q for q in qs[:k]) == n - 1  # opponents exactly suffice

    if top_row_value is not None:
        row_ids = _matrix_ids(range(0, k + 1), n)
        weights = [top_row_value] + row_values
        rows = [row_ids[i] for i in range(0, k + 1)]
    else:
        row_ids = _matrix_ids(range(1, len(row_values) + 1), n)
        weights = row_values
        rows = [row_ids[i] for i in range(1, len(row_values) + 1)]
    valuation = RowSubstitutesValuation(rows, weights)
    items = [e for row in rows for e in row]

    b = Fraction(1, n)
    agents = [AgentSpec(P_ID, b, valuation)]
    opponents: list[tuple[str, int]] = []  # (agent id, stage index i)
    for i, q in enumerate(qs[:k], start=1):
        for t in range(1, n // q + 1):
            agent_id = f"adv{i:02d}_{t:03d}"
            agents.append(AgentSpec(agent_id, b, AdditiveValuation({})))
            opponents.append((agent_id, i))
    instance = Instance(items=tuple(items), agents=tuple(agents))
    return instance, row_ids, n, qs, b


def _stage_scripts(
    row_ids: dict[int, list[str]],
    qs: list[int],
    k: int,
    n: int,
    stage_bid: Callable[[int], Fraction],
    first_round: int,
) -> dict[str, tuple[list[Fraction], list[str | None]]]:
    """Per-opponent bid/pick scripts clearing rows 1..k in column order."""
    total_rounds = first_round - 1 + k * n
    scripts: dict[str, tuple[list[Fraction], list[str | None]]] = {}
    rnd = first_round
    for i in range(1, k + 1):
        q = qs[i - 1]
        for t in range(1, n // q + 1):
            agent_id = f"adv{i:02d}_{t:03d}"
            bids: list[Fraction] = [Fraction(0)] * total_rounds
            picks: list[str | None] = [None] * total_rounds
            for step in range(q):
                col = (t - 1) * q + step
                bids[rnd - 1] = stage_bid(i)
                picks[rnd - 1] = row_ids[i][col]
                rnd += 1
            scripts[agent_id] = (bids, picks)
    return scripts


def gen_altruistic_negative(k: int) -> ScriptedRun:
    """Spend-capped game where the proportional bidder is held to value 1.

    Rows 1..k carry value 1/(q_i - 1); one extra row of n value-1 items tops
    the matrix.  The designated agent wins one value-1 item in round 1, then
    for each stage i a squad of n/q_i opponents matches her bid, clears row i
    (q_i items each), and drops out after passing the spend cap.  She ends
    with the value-1 row only: value 1 against a share of 1 + sum 1/(q_i-1).
    """
    if not (1 <= k <= 4):
        raise ValueError("k must be between 1 and 4 at desk scale")
    qs = sylvester(k)
    row_values = [Fraction(1, q - 1) for q in qs[:k]]
    instance, row_ids, n, qs, b = _staged_run(k, row_values, Fraction(1))
    share = 1 + sum(row_values, Fraction(0))
    rho = 1 / share
    scale = b / share

    scripts = _stage_scripts(
        row_ids, qs, k, n, lambda i: scale * Fraction(1, qs[i - 1] - 1), first_round=2
    )
    factories: dict[str, Callable[[], Strategy]] = {
        P_ID: lambda: AltruisticProportionalBidder(
            instance.valuation(P_ID), b, share
        )
    }
    for agent_id, (bids, picks) in scripts.items():
        factories[agent_id] = (lambda bb, pp: (lambda: ScriptedBidder(bb, pp)))(bids, picks)

    config = GameConfig(
        mode="altruistic", rho=rho, tie=TieBreak(policy="adversarial", target=P_ID)
    )
    return ScriptedRun(
        name=f"altruistic_negative_k{k}",
        instance=instance,
        agent=P_ID,
        config=config,
        strategy_factories=factories,
        expected_value=Fraction(1),
        share_value=share,
        share_kind="mms",
        expected_ratio=rho,
    )


def gen_original_negative(k: int) -> ScriptedRun:
    """Standard-game analogue: row values 2/q_i, share 3 - 2/(q_{k+1} - 1)."""
    if not (1 <= k <= 4):
        raise ValueError("k must be between 1 and 4 at desk scale")
    qs = sylvester(k)
    row_values = [Fraction(2, q) for q in qs[:k]]
    instance, row_ids, n, qs, b = _staged_run(k, row_values, Fraction(1))
    share = 3 - Fraction(2, qs[k] - 1)
    assert share == 1 + sum(row_values, Fraction(0))
    rho = 1 / share

    scripts = _stage_scripts(
        row_ids, qs, k, n, lambda i: b / qs[i - 1], first_round=2
    )
    factories: dict[str, Callable[[], Strategy]] = {
        P_ID: lambda: ProportionalBidder(instance.valuation(P_ID), b, share, rho)
    }
    for agent_id, (bids, picks) in scripts.items():
        factories[agent_id] = (lambda bb, pp: (lambda: ScriptedBidder(bb, pp)))(bids, picks)

    config = GameConfig(mode="standard", tie=TieBreak(policy="adversarial", target=P_ID))
    return ScriptedRun(
        name=f"original_negative_k{k}",
        instance=instance,
        agent=P_ID,
        config=config,
        strategy_factories=factories,
        expected_value=Fraction(1),
        share_value=share,
        share_kind="mms",
        expected_ratio=rho,
    )


def gen_modified_negative(k: int) -> ScriptedRun:
    """Variant replacing each value-1 item by q_k - 1 items of value 1/(q_k - 1).

    The tail rows have the same item value as row k.  Opponents clear rows
    1..k first; the designated agent then assembles one item per tail row
    (items in different columns are substitutes, so the column she draws
    from is irrelevant) for a final value of exactly 1.
    """
    if not (1 <= k <= 4):
        raise ValueError("k must be between 1 and 4 at desk scale")
    qs = sylvester(k)
    tail = qs[k - 1] - 1
    row_values = [Fraction(1, q - 1) for q in qs[:k]] + [Fraction(1, tail)] * tail
    instance, row_ids, n, qs, b = _staged_run(k, row_values, None)
    share = 1 + sum(Fraction(1, q - 1) for q in qs[:k])
    rho = 1 / share
    scale = b / share

    scripts = _stage_scripts(
        row_ids, qs, k, n, lambda i: scale * Fraction(1, qs[i - 1] - 1), first_round=1
    )
    factories: dict[str, Callable[[], Strategy]] = {
        P_ID: lambda: AltruisticProportionalBidder(
            instance.valuation(P_ID), b, share
        )
    }
    for agent_id, (bids, picks) in scripts.items():
        factories[agent_id] = (lambda bb, pp: (lambda: ScriptedBidder(bb, pp)))(bids, picks)

    config = GameConfig(
        mode="altruistic", rho=rho, tie=TieBreak(policy="adversarial", target=P_ID)
    )
    return ScriptedRun(
        name=f"modified_negative_k{k}",
        instance=instance,
        agent=P_ID,
        config=config,
        strategy_factories=factories,
        expected_value=Fraction(1),
        share_value=share,
        share_kind="mms",
        expected_ratio=rho,
    )


class XosSniperBidder(Strategy):
    """Reactive adversary: once the victim holds an item of some column, bid
    everything until that column is exhausted, taking its items."""

    def __init__(self, victim: str, column_of: Mapping[str, int]) -> None:
        self.victim = victim
        self.column_of = dict(column_of)
        self.column_items: dict[int, list[str]] = {}
        for e in sorted(self.column_of):
            self.column_items.setdefault(self.column_of[e], []).append(e)

    def _targets(self, state: PublicState) -> list[str]:
        """The remaining items of the victim's columns, in ascending order."""
        victim_columns = {self.column_of[e] for e in state.bundles[self.victim]}
        remaining = state.remaining  # ascending, as the engine gives it
        return sorted(
            e
            for column in victim_columns
            for e in self.column_items[column]
            if still_remaining(remaining, e)
        )

    def bid(self, state: PublicState) -> Fraction:
        if self._targets(state):
            return state.budgets[self.agent_id]
        return Fraction(0)

    def pick(self, state: PublicState) -> Sequence[str]:
        targets = self._targets(state)
        return [targets[0] if targets else state.remaining[0]]


def gen_xos_hard(n: int, k: int) -> ScriptedRun:
    """Cross-column max-of-additives instance where no strategy beats value 1.

    Items form a k x n matrix and the designated agent values a bundle at its
    best column count.  Half the agents bid a constant on everything; the
    rest snipe: as soon as she wins an item, they buy out that column.  Her
    bundle meets every column at most once, so its value never exceeds 1,
    while the column partition witnesses a share of k.
    """
    if n < 4 * k * k:
        raise ValueError("need n >= 4k^2 agents")
    if n % 2:
        raise ValueError("need an even number of agents")
    row_ids = _matrix_ids(range(1, k + 1), n)
    items = [e for i in range(1, k + 1) for e in row_ids[i]]
    column_of = {e: j for i in range(1, k + 1) for j, e in enumerate(row_ids[i], start=1)}
    clauses = []
    for j in range(1, n + 1):
        clauses.append({e: Fraction(1) for e, col in column_of.items() if col == j})
    valuation = XOSValuation(clauses)

    b = Fraction(1, n)
    agents = [AgentSpec(P_ID, b, valuation)]
    factories: dict[str, Callable[[], Strategy]] = {
        P_ID: lambda: ProportionalBidder(valuation, b, Fraction(k))
    }
    constant = Fraction(1, 2 * n * k)
    for idx in range(n // 2):
        agent_id = f"t1_{idx:03d}"
        agents.append(AgentSpec(agent_id, b, AdditiveValuation({})))
        factories[agent_id] = (lambda c: (lambda: ConstantBidder(c)))(constant)
    for idx in range(n // 2 - 1):
        agent_id = f"t2_{idx:03d}"
        agents.append(AgentSpec(agent_id, b, AdditiveValuation({})))
        factories[agent_id] = lambda: XosSniperBidder(P_ID, column_of)

    instance = Instance(items=tuple(items), agents=tuple(agents))
    config = GameConfig(mode="standard", tie=TieBreak(policy="adversarial", target=P_ID))
    return ScriptedRun(
        name=f"xos_hard_n{n}_k{k}",
        instance=instance,
        agent=P_ID,
        config=config,
        strategy_factories=factories,
        expected_value=Fraction(1),
        share_value=Fraction(k),
        share_kind="mms",
        expected_ratio=None,
        value_is_upper_bound=True,
    )


def gen_random_submodular(
    seed: int,
    n: int,
    m: int,
    universe: int = 6,
    entitlements: str = "equal",
) -> Instance:
    """Seeded instance with weighted-coverage (hence submodular) valuations."""
    if entitlements not in ("equal", "random"):
        raise ValueError("entitlements must be 'equal' or 'random'")
    rng = random.Random(seed)
    elements = [f"u{t:02d}" for t in range(universe)]
    items = [f"e{j:02d}" for j in range(m)]

    if entitlements == "equal":
        shares = [Fraction(1, n)] * n
    else:
        weights = [rng.randint(1, 6) for _ in range(n)]
        total = sum(weights)
        shares = [Fraction(w, total) for w in weights]

    agents = []
    for idx in range(n):
        element_weights = {u: Fraction(rng.randint(1, 8)) for u in elements}
        covers = {
            e: frozenset(rng.sample(elements, rng.randint(1, max(1, universe // 2))))
            for e in items
        }
        agents.append(
            AgentSpec(
                f"a{idx}",
                shares[idx],
                WeightedCoverageValuation(element_weights, covers),
            )
        )
    return Instance(items=tuple(items), agents=tuple(agents))
