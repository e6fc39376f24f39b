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
import re
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .engine import GameConfig, PublicState, Strategy, TieBreak, Transcript, run_game
from .model import Allocation, AgentSpec, Instance
from .strategies import (
    AltruisticProportionalBidder,
    ConstantBidder,
    ProportionalBidder,
    ScriptedBidder,
    first_remaining,
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


def _matrix_ids(rows: Iterable[int], n_cols: int) -> list[list[str]]:
    return [[f"r{i:02d}c{j:03d}" for j in range(1, n_cols + 1)] for i in rows]


def _desk_sylvester(k: int) -> list[int]:
    # k = 3 (42 agents) plays in about a second; k = 4 has 1,805 agents and
    # rows of 1,805 items, and one run takes minutes
    if not (1 <= k <= 3):
        raise ValueError("k must be between 1 and 3 at desk scale")
    return sylvester(k)


def _staged_negative(
    name: str, k: int, row_values: list[Fraction], top_row: bool, capped: bool
) -> ScriptedRun:
    """The staged layout shared by the three Sylvester-row constructions.

    n = q_{k+1} - 1 agents with entitlement 1/n; the designated agent values
    rows of n substitutes at ``row_values`` (under one extra row of value-1
    items when ``top_row``), and its share is 1 plus the first k row values.
    For each stage i a squad of n/q_i opponents follows, each bidding
    ``row_values[i-1]`` times b/share (spend-capped game, ``capped``) or b/2
    (standard game) for q_i rounds and clearing row i in column order.  With
    a top row the designated agent wins round 1, so the squads start in round
    2; otherwise in round 1.
    """
    qs = sylvester(k)
    n = math.prod(qs[:k])
    assert n == qs[k] - 1
    assert sum(n // q for q in qs[:k]) == n - 1  # the squads exactly suffice
    first_row = 0 if top_row else 1
    rows = _matrix_ids(range(first_row, len(row_values) + 1), n)
    valuation = RowSubstitutesValuation(rows, [Fraction(1)] * top_row + row_values)
    b = Fraction(1, n)
    share = 1 + sum(row_values[:k], Fraction(0))
    rho = 1 / share
    unit = b / share if capped else b / 2
    tie = TieBreak(policy="adversarial", target=P_ID)
    factories: dict[str, Callable[[], Strategy]]
    if capped:
        config = GameConfig(mode="altruistic", rho=rho, tie=tie)
        factories = {P_ID: partial(AltruisticProportionalBidder, valuation, b, share)}
    else:
        config = GameConfig(mode="standard", tie=tie)
        factories = {P_ID: partial(ProportionalBidder, valuation, b, share, rho)}

    agents = [AgentSpec(P_ID, b, valuation)]
    total_rounds = top_row + k * n
    rnd = top_row  # index of the next scripted round
    for i, (q, value, row) in enumerate(zip(qs[:k], row_values, rows[top_row:]), start=1):
        for t in range(n // q):
            bids = [Fraction(0)] * total_rounds
            picks: list[str | None] = [None] * total_rounds
            for col in range(t * q, (t + 1) * q):
                bids[rnd], picks[rnd] = unit * value, row[col]
                rnd += 1
            agent_id = f"adv{i:02d}_{t + 1:03d}"
            agents.append(AgentSpec(agent_id, b, AdditiveValuation({})))
            factories[agent_id] = partial(ScriptedBidder, bids, picks)
    return ScriptedRun(
        name=f"{name}_negative_k{k}",
        instance=Instance(items=tuple(e for row in rows for e in row), agents=tuple(agents)),
        agent=P_ID,
        config=config,
        strategy_factories=factories,
        expected_value=Fraction(1),
        share_value=share,
        share_kind="mms",
        expected_ratio=rho,
    )


def gen_altruistic_negative(k: int) -> ScriptedRun:
    """Spend-capped game where the proportional bidder is held to value 1.

    Rows 1..k carry value 1/(q_i - 1); one extra row of n value-1 items tops
    the matrix.  The designated agent wins one value-1 item in round 1, then
    for each stage i a squad of n/q_i opponents matches her bid, clears row i
    (q_i items each), and drops out after passing the spend cap.  She ends
    with the value-1 row only: value 1 against a share of 1 + sum 1/(q_i-1).
    """
    qs = _desk_sylvester(k)
    row_values = [Fraction(1, q - 1) for q in qs[:k]]
    return _staged_negative("altruistic", k, row_values, top_row=True, capped=True)


def gen_original_negative(k: int) -> ScriptedRun:
    """Standard-game analogue: row values 2/q_i, share 3 - 2/(q_{k+1} - 1)."""
    qs = _desk_sylvester(k)
    row_values = [Fraction(2, q) for q in qs[:k]]
    run = _staged_negative("original", k, row_values, top_row=True, capped=False)
    assert run.share_value == 3 - Fraction(2, qs[k] - 1)
    return run


def gen_modified_negative(k: int) -> ScriptedRun:
    """Variant replacing each value-1 item by q_k - 1 items of value 1/(q_k - 1).

    The tail rows have the same item value as row k.  Opponents clear rows
    1..k first; the designated agent then assembles one item per tail row
    (items in different columns are substitutes, so the column she draws
    from is irrelevant) for a final value of exactly 1.
    """
    qs = _desk_sylvester(k)
    tail = qs[k - 1] - 1
    row_values = [Fraction(1, q - 1) for q in qs[:k]] + [Fraction(1, tail)] * tail
    return _staged_negative("modified", k, row_values, top_row=False, capped=True)


_ZERO = Fraction(0)


class _ColumnPlan:
    """The round's target of every sniper of one victim, worked out once.

    The target is the first remaining item, in ascending order, of a column
    the victim holds an item of.  ``target`` answers it once per
    ``PublicState`` (the last state and its answer are kept as one pair,
    which a sniper reads directly) and keeps the sorted targets of each
    bundle the victim has held.  Neither depends on one game, so one plan
    serves game after game of the snipers it was built for.  The column
    tables are built at the first ``target`` call.
    """

    def __init__(self, victim: str, column_of: Mapping[str, int]) -> None:
        self.victim = victim
        self.column_of = column_of
        self.last: tuple[PublicState | None, str | None] = (None, None)
        self._targets: dict[frozenset[str], list[str]] = {}

    @cached_property
    def _column_items(self) -> dict[int, list[str]]:
        column_items: dict[int, list[str]] = {}
        for e in sorted(self.column_of):
            column_items.setdefault(self.column_of[e], []).append(e)
        return column_items

    def target(self, state: PublicState) -> str | None:
        """The round's target, or None when no column the victim holds has
        an item left."""
        last_state, last_target = self.last
        if state is last_state:
            return last_target
        held = state.bundles[self.victim]
        targets = self._targets.get(held)
        if targets is None:
            column_of, column_items = self.column_of, self._column_items
            columns = {column_of[e] for e in held}
            targets = self._targets[held] = sorted(e for c in columns for e in column_items[c])
        # the engine gives the remaining items in ascending order
        i = first_remaining(targets, 0, state.remaining)
        target = targets[i] if i < len(targets) else None
        # one store, so a reader never pairs a state with another's target
        self.last = (state, target)
        return target


class XosSniperBidder(Strategy):
    """Reactive adversary: once the victim holds an item of some column, bid
    everything until that column is exhausted, taking its items.

    The snipers of one run share one ``_ColumnPlan``, which finds the round's
    target once for all of them and names the victim.
    """

    def __init__(self, plan: _ColumnPlan) -> None:
        self.plan = plan

    def bid(self, state: PublicState) -> Fraction:
        # the round's later snipers read the first one's answer without a call
        last_state, target = self.plan.last
        if state is not last_state:
            target = self.plan.target(state)
        return _ZERO if target is None else state.budgets[self.agent_id]

    def pick(self, state: PublicState) -> Sequence[str]:
        target = self.plan.target(state)
        return [state.remaining[0] if target is None else target]


def gen_xos_hard(n: int, k: int) -> ScriptedRun:
    """Cross-column max-of-additives instance where no strategy beats value 1.

    Items form a k x n matrix and the designated agent values a bundle at its
    best column count.  Half the agents bid a constant on everything; the
    rest snipe, all following one plan: as soon as she wins an item, they
    buy out that column.  Her bundle meets every column at most once, so its
    value never exceeds 1, while the column partition witnesses a share of k.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if n < 4 * k * k:
        raise ValueError("need n >= 4k^2 agents")
    if n % 2:
        raise ValueError("need an even number of agents")
    rows = _matrix_ids(range(1, k + 1), n)
    items = [e for row in rows for e in row]
    column_of = {e: j for row in rows for j, e in enumerate(row, start=1)}
    valuation = XOSValuation([{row[j]: Fraction(1) for row in rows} for j in range(n)])

    b = Fraction(1, n)
    agents = [AgentSpec(P_ID, b, valuation)]
    factories: dict[str, Callable[[], Strategy]] = {
        P_ID: partial(ProportionalBidder, valuation, b, Fraction(k))
    }
    constant = Fraction(1, 2 * n * k)
    plan = _ColumnPlan(P_ID, column_of)
    for idx in range(n // 2):
        agent_id = f"t1_{idx:03d}"
        agents.append(AgentSpec(agent_id, b, AdditiveValuation({})))
        factories[agent_id] = partial(ConstantBidder, constant)
    for idx in range(n // 2 - 1):
        agent_id = f"t2_{idx:03d}"
        agents.append(AgentSpec(agent_id, b, AdditiveValuation({})))
        factories[agent_id] = partial(XosSniperBidder, plan)

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


STAGED = {
    "altruistic": gen_altruistic_negative,
    "original": gen_original_negative,
    "modified": gen_modified_negative,
}


def named_run(name: str, agents: int) -> ScriptedRun:
    """The run whose ``name`` is ``name``, or ValueError if no generator above
    writes that name.  ``agents`` is the agent count of the instance the name
    came with: a name whose run has another count is refused before anything
    is built, so a name read from a document cannot make a larger game."""
    staged = re.fullmatch(r"([a-z]+)_negative_k([1-9]\d*)", name)
    xos = re.fullmatch(r"xos_hard_n([1-9]\d*)_k([1-9]\d*)", name)
    if staged and staged[1] in STAGED and sylvester(int(staged[2]))[-1] - 1 == agents:
        return STAGED[staged[1]](int(staged[2]))
    if xos and int(xos[1]) == agents:
        return gen_xos_hard(int(xos[1]), int(xos[2]))
    raise ValueError(f"no builtin run {name} has {agents} agents")


def gen_random_submodular(
    seed: int,
    n: int,
    m: int,
    universe: int = 6,
    entitlements: str = "equal",
) -> Instance:
    """Seeded instance with weighted-coverage (hence submodular) valuations."""
    if n < 1:
        raise ValueError("need n >= 1 agents")
    if m < 0:
        raise ValueError("need m >= 0 items")
    if universe < 1:
        raise ValueError("need universe >= 1 elements")
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
