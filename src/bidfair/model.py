"""Allocation instances, allocations, and instance transformations.

Entitlements, budgets, bids and values are exact rationals throughout;
comparisons that drive game mechanics (ties, deactivation) are exact.
Items are opaque string ids; whenever a canonical order over items is
needed it is the sort order of the ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .valuations import ValuationOracle, TruncatedValuation

Allocation = dict[str, frozenset[str]]


@dataclass(frozen=True)
class AgentSpec:
    id: str
    entitlement: Fraction
    valuation: ValuationOracle


@dataclass(frozen=True)
class Instance:
    """A set of items plus agents with entitlements summing to exactly 1."""

    items: tuple[str, ...]
    agents: tuple[AgentSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(sorted(self.items)))
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate item ids")
        # the id tuple and the id -> spec index: plain attributes, not fields,
        # so equality, repr and hashing see only the items and the agents
        by_id = {a.id: a for a in self.agents}
        if len(by_id) != len(self.agents):
            raise ValueError("duplicate agent ids")
        object.__setattr__(self, "_ids", tuple(by_id))
        object.__setattr__(self, "_by_id", by_id)
        if not self.agents:
            raise ValueError("instance needs at least one agent")
        for a in self.agents:
            if not (0 < a.entitlement <= 1):
                raise ValueError(f"entitlement of {a.id} must lie in (0, 1]")
        total = sum(a.entitlement for a in self.agents)
        if total != 1:
            raise ValueError(f"entitlements sum to {total}, expected exactly 1")

    @property
    def item_set(self) -> frozenset[str]:
        return frozenset(self.items)

    @property
    def agent_ids(self) -> tuple[str, ...]:
        return self._ids

    def agent(self, agent_id: str) -> AgentSpec:
        spec = self._by_id.get(agent_id)
        if spec is None:
            raise KeyError(f"no agent {agent_id!r}")
        return spec

    def entitlement(self, agent_id: str) -> Fraction:
        return self.agent(agent_id).entitlement

    def valuation(self, agent_id: str) -> ValuationOracle:
        return self.agent(agent_id).valuation

    def has_equal_entitlements(self) -> bool:
        return len({a.entitlement for a in self.agents}) == 1


def make_instance(
    items: Iterable[str],
    agents: Iterable[tuple[str, Fraction | int, ValuationOracle]],
) -> Instance:
    return Instance(
        items=tuple(items),
        agents=tuple(AgentSpec(i, Fraction(b), v) for i, b, v in agents),
    )


def validate_allocation(instance: Instance, allocation: Mapping[str, frozenset[str]]) -> None:
    """Check bundles are pairwise disjoint subsets of the instance items."""
    seen: set[str] = set()
    for agent_id, bundle in allocation.items():
        instance.agent(agent_id)
        extra = bundle - instance.item_set
        if extra:
            raise ValueError(f"bundle of {agent_id} contains unknown items {sorted(extra)}")
        overlap = seen & bundle
        if overlap:
            raise ValueError(f"items allocated twice: {sorted(overlap)}")
        seen |= bundle


@dataclass(frozen=True)
class FractionalPartition:
    """Nonnegative bundle weights totalling 1, used as a share certificate."""

    entries: tuple[tuple[frozenset[str], Fraction], ...]

    def __post_init__(self) -> None:
        for bundle, weight in self.entries:
            if weight < 0:
                raise ValueError("weights must be nonnegative")
        if sum((w for _, w in self.entries), Fraction(0)) != 1:
            raise ValueError("weights must total exactly 1")

    def coverage(self, item: str) -> Fraction:
        return sum((w for bundle, w in self.entries if item in bundle), Fraction(0))


@dataclass(frozen=True)
class GameState:
    """Snapshot of a bidding game at a round boundary."""

    round: int
    remaining: frozenset[str]
    budgets: Mapping[str, Fraction]
    bundles: Mapping[str, frozenset[str]]
    active: Mapping[str, bool]


def reduce_instance(instance: Instance, removed_agent: str, removed_item: str) -> Instance:
    """Drop one agent and one item, rescaling the surviving entitlements.

    The removed agent must have entitlement strictly below 1; every other
    entitlement is multiplied by exactly 1/(1 - b) so the sum returns to 1.
    """
    spec = instance.agent(removed_agent)
    if spec.entitlement >= 1:
        raise ValueError("cannot remove an agent holding the full entitlement")
    if removed_item not in instance.item_set:
        raise KeyError(f"no item {removed_item!r}")
    scale = 1 / (1 - spec.entitlement)
    return Instance(
        items=tuple(e for e in instance.items if e != removed_item),
        agents=tuple(
            AgentSpec(a.id, a.entitlement * scale, a.valuation)
            for a in instance.agents
            if a.id != removed_agent
        ),
    )


def residual_instance(
    instance: Instance,
    state: GameState,
    truncations: Mapping[str, Fraction] | None = None,
) -> tuple[Instance, Fraction]:
    """Renormalize a mid-game state into a standalone instance.

    Active agents keep their remaining budgets, rescaled by 1/gamma where
    gamma is the total remaining budget of active agents, so entitlements
    again sum to 1.  Items are the not-yet-allocated ones.  ``truncations``
    optionally caps named agents' valuations (min with the given level) in
    the returned instance.

    Returns the residual instance together with gamma.
    """
    truncations = truncations or {}
    active_ids = [a.id for a in instance.agents if state.active.get(a.id, False)]
    gamma = sum((state.budgets[i] for i in active_ids), Fraction(0))
    if gamma <= 0:
        raise ValueError("no active agent holds budget; residual instance undefined")
    agents = []
    for a in instance.agents:
        if a.id not in active_ids:
            continue
        valuation = a.valuation
        if a.id in truncations:
            valuation = TruncatedValuation(valuation, truncations[a.id])
        agents.append(AgentSpec(a.id, state.budgets[a.id] / gamma, valuation))
    residual = Instance(items=tuple(sorted(state.remaining)), agents=tuple(agents))
    return residual, gamma
