"""Exact share computation: maximin share and anyprice share, with witnesses.

Both computations are exhaustive and exact, guarded by a size limit on the
item count (default 12, settable only through the BIDFAIR_SIZE_GUARD
environment variable).  They are oracles for verifying game guarantees at
desk scale, not production approximation algorithms.

Both start from the values of all 2^m bundles.  Bundle ``mask`` is built from
its lowest-bit predecessor, bundle ``mask ^ low`` with ``low`` the lowest set
bit of mask, plus one item, and the oracle is queried in mask order.  The
values are ranked on integer keys over the table's common denominator
(``valuations.integer_keys``), so no Fraction is hashed; the share is returned
as a Fraction.

The anyprice share of an agent with entitlement b is the largest value z for
which bundle weights {lambda_T} exist with total weight 1, support restricted
to bundles of value at least z, and per-item coverage at most b.  It is found
by binary search over the distinct bundle values.  Each probe z solves a
packing LP: maximise sum lambda_T subject to per-item coverage at most b,
over the inclusion-minimal bundles at z (value at least z, no proper subset
of value at least z).  Shrinking a support bundle to a minimal one only lowers
coverage, so z is feasible iff the optimum is at least 1, and the witness is
the optimal lambda scaled to total weight 1.  All rows are <= rows with a
positive right-hand side, so the exact simplex starts from the slack basis.

The maximin share is the best worst-bundle value over partitions of the items
into n (possibly empty) bundles; the witness is an optimal partition.  The
search places the items in order, each into a used bundle or the first empty
one, and compares integer ranks (indices into the sorted distinct values), not
Fractions.  It starts from its first leaf and replaces its incumbent only on a
strict improvement, so it returns the first best partition in search order.
Below a node, bundle k ends up between block_k and block_k | unplaced, so its
rank is at most reach(block_k | unplaced), the highest rank of any subset of
that set.  A node whose min_k reach(block_k | unplaced) is at most the
incumbent is cut: its leaves could at best tie, never replace, so value and
witness are those of the full search, on every table.

One subset closure serves both shares: for every mask, the highest rank of
any proper subset (the APS columns) and of any subset (the MMS bound), built
with one pass per item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .model import FractionalPartition
from .simplex import solve_lp
from .valuations import ValuationOracle, guarded_items, integer_keys


@dataclass(frozen=True)
class ShareResult:
    value: Fraction
    witness: tuple[frozenset[str], ...] | FractionalPartition


def _mask_to_bundle(mask: int, items: Sequence[str]) -> frozenset[str]:
    return frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def _bundles(items: Sequence[str]) -> list[frozenset[str]]:
    """All 2^m subsets, indexed by bitmask over the items.

    Bundle ``mask`` is bundle ``mask ^ low`` plus one item, where ``low`` is
    the lowest set bit of mask, so each bundle costs one union, not O(m).
    """
    singles = [frozenset((e,)) for e in items]
    bundles = [frozenset()]
    for mask in range(1, 1 << len(items)):
        low = mask & -mask
        bundles.append(bundles[mask ^ low] | singles[low.bit_length() - 1])
    return bundles


def value_table(v: ValuationOracle, items: Sequence[str]) -> list[Fraction]:
    """Values of all 2^m subsets, indexed by bitmask over the sorted items."""
    return [v.value(bundle) for bundle in _bundles(items)]


def _ranked_table(v: ValuationOracle, items: Sequence[str]) -> tuple[list[Fraction], list[int]]:
    """The sorted distinct bundle values, and each mask's index into them."""
    keys, common = integer_keys(value_table(v, items))
    distinct = sorted(set(keys))
    rank = {key: r for r, key in enumerate(distinct)}
    return [Fraction(key, common) for key in distinct], [rank[key] for key in keys]


def mms_exact(v: ValuationOracle, n: int, items: Iterable[str]) -> ShareResult:
    """Maximin share over partitions into n bundles (empty bundles allowed)."""
    if n < 1:
        raise ValueError("need at least one bundle")
    items = guarded_items(sorted(items), "exact share computation")
    m = len(items)
    candidates, ranks = _ranked_table(v, items)
    _, reach = _closure(ranks, m)
    full = (1 << m) - 1
    # start at the search's first leaf, every item in the first bundle, so the
    # witness is a partition however low the values are
    best_blocks: tuple[int, ...] = (full,) + (0,) * (n - 1)
    best = min(ranks[b] for b in best_blocks)
    blocks = [0] * n

    def search(i: int, used: int) -> None:
        nonlocal best, best_blocks
        if i == m:
            worst = min(map(ranks.__getitem__, blocks))
            if worst > best:
                best = worst
                best_blocks = tuple(blocks)
            return
        # below this node bundle k ends up between b and b | rest, the unplaced
        # items i.. added, and no set in between ranks above reach[b | rest]
        rest = full >> i << i
        if min(reach[b | rest] for b in blocks) <= best:
            return
        for idx in range(min(used + 1, n)):
            blocks[idx] |= 1 << i
            search(i + 1, max(used, idx + 1))
            blocks[idx] &= ~(1 << i)

    search(0, 0)
    witness = tuple(_mask_to_bundle(b, items) for b in best_blocks)
    return ShareResult(candidates[best], witness)


def _closure(ranks: Sequence[int], m: int) -> tuple[list[int], list[int]]:
    """For each mask, the highest rank of any proper subset (``below``, -1 for
    the empty mask) and of any subset, the mask itself included (``reach``).

    >>> _closure([0, 2, 1, 1], 2)
    ([-1, 0, 0, 2], [0, 2, 1, 2])
    """
    reach = list(ranks)
    below = [-1] * len(ranks)
    # one pass per item: each mask holding the item takes the larger of its
    # own entry and reach of the mask without it, first into reach itself,
    # then into below from the finished reach
    for closed in (reach, below):
        for i in range(m):
            bit = 1 << i
            for mask in range(len(ranks)):
                if mask & bit and reach[mask ^ bit] > closed[mask]:
                    closed[mask] = reach[mask ^ bit]
    return below, reach


def _packing_witness(
    z_rank: int,
    ranks: Sequence[int],
    below: Sequence[int],
    items: Sequence[str],
    entitlement: Fraction,
) -> FractionalPartition | None:
    """Bundle weights of total 1 reaching rank z_rank, or None if there are none.

    Maximises the total weight over the inclusion-minimal bundles at z subject
    to per-item coverage at most b.  The probe z always exceeds v(empty), so
    every column is a nonempty bundle and the optimum is finite.
    """
    masks = [mask for mask in range(len(ranks)) if ranks[mask] >= z_rank > below[mask]]
    m = len(items)
    a_ub = [[(mask >> j) & 1 for mask in masks] for j in range(m)]
    result = solve_lp([1] * len(masks), a_ub=a_ub, b_ub=[entitlement] * m)
    if result.objective < 1:
        return None
    return FractionalPartition(
        tuple(
            (_mask_to_bundle(mask, items), weight / result.objective)
            for mask, weight in zip(masks, result.x)
            if weight > 0
        )
    )


def aps_exact(v: ValuationOracle, entitlement: Fraction | int, items: Iterable[str]) -> ShareResult:
    """Anyprice share by binary search over the distinct achievable bundle values."""
    b = Fraction(entitlement)
    if not (0 < b <= 1):
        raise ValueError("entitlement must lie in (0, 1]")
    items = guarded_items(sorted(items), "exact share computation")
    candidates, ranks = _ranked_table(v, items)
    below, _ = _closure(ranks, len(items))

    # every z <= v(empty) is witnessed by putting all weight on the empty bundle
    lo = ranks[0]
    best = FractionalPartition(((frozenset(), Fraction(1)),))
    hi = len(candidates) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        witness = _packing_witness(mid, ranks, below, items, b)
        if witness is None:
            hi = mid - 1
        else:
            lo = mid
            best = witness
    return ShareResult(candidates[lo], best)


def aps_unit_demand(values: Iterable[Fraction | int], entitlement: Fraction | int) -> Fraction:
    """Closed form for unit-demand agents: the ceil(1/b)-th most valuable item.

    >>> aps_unit_demand([5, 4, 3, 2], Fraction(1, 3))
    Fraction(3, 1)
    >>> aps_unit_demand([5, 4], Fraction(1, 3))
    Fraction(0, 1)
    """
    b = Fraction(entitlement)
    if not (0 < b <= 1):
        raise ValueError("entitlement must lie in (0, 1]")
    ranked = sorted((Fraction(x) for x in values), reverse=True)
    k = math.ceil(1 / b)
    if len(ranked) < k:
        return Fraction(0)
    return ranked[k - 1]


def verify_mms_partition(
    partition: Sequence[frozenset[str]],
    v: ValuationOracle,
    items: Iterable[str],
    z: Fraction | int,
) -> bool:
    """True iff the bundles partition the items and each is worth at least z."""
    z = Fraction(z)
    items = frozenset(items)
    seen: set[str] = set()
    for bundle in partition:
        if bundle & seen:
            return False
        seen |= bundle
    if seen != items:
        return False
    return all(v.value(bundle) >= z for bundle in partition)


def verify_fractional_partition(
    partition: FractionalPartition,
    v: ValuationOracle,
    entitlement: Fraction | int,
    z: Fraction | int,
) -> bool:
    """True iff the weights total 1, support bundles reach z, coverage stays within b."""
    b = Fraction(entitlement)
    z = Fraction(z)
    total = Fraction(0)
    coverage: dict[str, Fraction] = {}
    for bundle, weight in partition.entries:
        if weight < 0:
            return False
        total += weight
        if weight > 0:
            if v.value(bundle) < z:
                return False
            for e in bundle:
                coverage[e] = coverage.get(e, Fraction(0)) + weight
    if total != 1:
        return False
    return all(c <= b for c in coverage.values())


def best_affordable(
    v: ValuationOracle,
    items: Sequence[str],
    prices: Mapping[str, Fraction],
    budget: Fraction | int,
) -> Fraction:
    """Best bundle value purchasable under given item prices and a budget."""
    budget = Fraction(budget)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    items = guarded_items(sorted(items), "exact share computation")
    keys, _ = integer_keys([budget] + [prices[e] for e in items])
    limit, scaled_prices = keys[0], keys[1:]
    # each mask costs its lowest-bit predecessor's cost plus one price, the
    # predecessor _bundles builds it from
    bundles = _bundles(items)
    costs = [0]
    for mask in range(1, len(bundles)):
        low = mask & -mask
        costs.append(costs[mask ^ low] + scaled_prices[low.bit_length() - 1])
    # the empty bundle costs nothing, so it is always affordable
    return max(v.value(bundle) for bundle, cost in zip(bundles, costs) if cost <= limit)
