"""Exact share computation: maximin share and anyprice share, with witnesses.

Both computations are exhaustive and exact, guarded by a size limit on the
item count (default 12, settable only through the BIDFAIR_SIZE_GUARD
environment variable).  They are oracles for verifying game guarantees at
desk scale, not production approximation algorithms.

Both start from the values of all 2^m bundles, which the oracle's table query
``mask_keys`` gives as integer keys over one common denominator.  On the base
path each bundle ``mask`` is built from its lowest-bit predecessor, bundle
``mask ^ low`` with ``low`` the lowest set bit of mask, plus one item, and the
oracle is queried in mask order; a coverage oracle computes the keys by mask
instead.  The values are ranked on those keys, so no Fraction is hashed; the
share is returned as a Fraction.

The anyprice share of an agent with entitlement b is the least, over item
prices p >= 0 summing to 1, of the best value a budget b can buy (Babaioff,
Ezra and Feige, EC 2021).  Equivalently it is the largest value z for which
bundle weights {lambda_T} exist with total weight 1, support restricted to
bundles of value at least z, and per-item coverage at most b.  A probe z
solves a packing LP at capacity 1: maximise sum mu_T subject to per-item
coverage at most 1, over the inclusion-minimal bundles at z (value at least z,
no proper subset of value at least z).  The weights are lambda = b * mu, so
the rows are all ints and the LP is the one at capacity b with every variable,
slacks included, divided by b: the exact simplex takes the same pivots and
returns the same duals.  Shrinking a support bundle to a minimal one only
lowers coverage, so z is reached iff b times the optimum is at least 1, and
the witness is the optimal mu scaled to total weight 1.  All rows are <= rows
with right-hand side 1, so the simplex starts from the slack basis.

The search descends on prices, and each probe is the LP's answer to the one
before.  Any prices give an upper bound, so the first probe is the best bundle
affordable under prices proportional to the singletons' nonnegative values
(uniform when those are all zero).  If a probe z reaches 1, z is both reached
and an upper bound: it is the anyprice share, and its LP gives the witness.
Otherwise the LP's duals y price every column at sum_{j in T} y_j >= 1 with
b * sum y < 1, so under the prices y / sum y every bundle of value at least z
contains a column and costs more than b.  The best bundle affordable under
those prices is then strictly below z and still an upper bound: it is the next
probe.  The probes fall strictly, so the search ends, either on the LP at the
share itself, the one a search over all values would end on, or at v(empty),
which the empty bundle reaches alone.

Between probes the prices are int vectors k, standing for k / sum k: the
``integer_keys`` of the singletons' values or of the duals.  With b = p/q a
bundle is affordable iff its int cost is at most p * sum k // q, and the costs
of all 2^m bundles are built by doubling, one list pass per item.  The prices
of the last cut (or the first prices, if no probe fails) come back with the
share as Fractions: under them the best affordable value is the share, an
upper certificate to match the witness.

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
witness are those of the full search, on every table.  Since reach only grows
with the set, the minimum is reach(unplaced) itself while some block is empty,
so the search takes the minimum over blocks only once all n are used.

One subset closure serves both shares: for every mask, the highest rank of
any proper subset (the APS columns) and of any subset (the MMS bound), built
with one pass per item.  The ranked table and its closure are kept for the
last oracle object and item tuple only, so ``mms_exact`` right after
``aps_exact`` on one oracle ranks nothing again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .model import FractionalPartition
from .simplex import solve_lp
from .valuations import ValuationOracle, _bundles, guarded_items, integer_keys


@dataclass(frozen=True)
class ShareResult:
    value: Fraction
    witness: tuple[frozenset[str], ...] | FractionalPartition
    # aps_exact only: item prices summing to 1 under which the best affordable
    # value is the share
    prices: dict[str, Fraction] | None = None


def _mask_to_bundle(mask: int, items: Sequence[str]) -> frozenset[str]:
    return frozenset(items[i] for i in range(len(items)) if mask >> i & 1)


def value_table(v: ValuationOracle, items: Sequence[str]) -> tuple[list[int], int]:
    """Values of all 2^m subsets, indexed by bitmask over the sorted items, as
    integer keys and their common denominator (``v.mask_keys``).  Only the
    base path queries the oracle in mask order."""
    return v.mask_keys(items)


def _ranked_table(v: ValuationOracle, items: Sequence[str]) -> tuple[list[Fraction], list[int]]:
    """The sorted distinct bundle values, and each mask's index into them."""
    keys, common = value_table(v, items)
    distinct = sorted(set(keys))
    rank = {key: r for r, key in enumerate(distinct)}
    return [Fraction(key, common) for key in distinct], [rank[key] for key in keys]


_last_table: tuple = (None, (), ())


def _table(v: ValuationOracle, items: tuple[str, ...]) -> tuple[list[Fraction], list[int], list[int], list[int]]:
    """The ranked table of v over items and its closure: the sorted distinct
    values, each mask's rank, ``below`` and ``reach``.

    Only the last table is kept, keyed on the oracle object and the item
    tuple; callers pass items that ``guarded_items`` has already admitted.
    """
    global _last_table
    oracle, key, table = _last_table
    if oracle is not v or key != items:
        candidates, ranks = _ranked_table(v, items)
        table = (candidates, ranks, *_closure(ranks, len(items)))
        _last_table = (v, items, table)
    return table


def mms_exact(v: ValuationOracle, n: int, items: Iterable[str]) -> ShareResult:
    """Maximin share over partitions into n bundles (empty bundles allowed)."""
    if n < 1:
        raise ValueError("need at least one bundle")
    items = guarded_items(sorted(items), "exact share computation")
    m = len(items)
    candidates, ranks, _, reach = _table(v, items)
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
        # items i.. added, and no set in between ranks above reach[b | rest];
        # reach only grows with the set, so while a block is empty the least
        # of these is reach[rest] itself
        rest = full >> i << i
        if used < n:
            if reach[rest] <= best:
                return
        elif min(reach[b | rest] for b in blocks) <= best:
            return
        bit = 1 << i
        for idx in range(used):
            blocks[idx] |= bit
            search(i + 1, used)
            blocks[idx] ^= bit
        if used < n:
            blocks[used] = bit
            search(i + 1, used + 1)
            blocks[used] = 0

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


def _affordable(prices: Sequence[int], limit: int) -> list[int]:
    """The masks over the items of int ``prices`` whose cost is at most
    ``limit``, in mask order.

    The costs of all 2^m masks are built by doubling: after item j the list
    holds the masks below 2^(j+1), and the masks holding item j are the ones
    before them plus its price.  The empty mask costs nothing, so it is
    affordable under any nonnegative limit.

    >>> _affordable([3, 2], 3)
    [0, 1, 2]
    """
    costs = [0]
    for price in prices:
        costs += [cost + price for cost in costs]
    return [mask for mask, cost in enumerate(costs) if cost <= limit]


def aps_exact(v: ValuationOracle, entitlement: Fraction | int, items: Iterable[str]) -> ShareResult:
    """Anyprice share, its witness weights, and prices that bound it from above.

    Each probe z, from the first down, is the best rank affordable under the
    current prices, so z is at least the share.  Its packing LP at capacity 1
    either has b times its optimum at least 1, and then z is the share and the
    LP's weights the witness, or its duals, as int keys, are the next prices,
    under which no bundle of rank z or more is affordable.
    """
    b = Fraction(entitlement)
    if not (0 < b <= 1):
        raise ValueError("entitlement must lie in (0, 1]")
    items = guarded_items(sorted(items), "exact share computation")
    m = len(items)
    candidates, ranks, below, _ = _table(v, items)

    # prices are int vectors, each proportional to the prices it stands for;
    # with b = p/q, a mask is affordable iff its cost is at most p*sum // q
    p, q = b.numerator, b.denominator
    prices, _ = integer_keys([max(candidates[ranks[1 << j]], 0) for j in range(m)])
    if not any(prices):
        prices = [1] * m
    z = max(map(ranks.__getitem__, _affordable(prices, p * sum(prices) // q)))
    # every z <= v(empty) is witnessed by putting all weight on the empty bundle
    witness = FractionalPartition(((frozenset(), Fraction(1)),))
    while z > ranks[0]:
        # z exceeds v(empty), so every column is a nonempty bundle and the
        # optimum is finite and positive
        masks = [mask for mask in range(len(ranks)) if ranks[mask] >= z > below[mask]]
        a_ub = [[(mask >> j) & 1 for mask in masks] for j in range(m)]
        result = solve_lp([1] * len(masks), a_ub=a_ub, b_ub=[1] * m)
        if b * result.objective >= 1:
            witness = FractionalPartition(
                tuple(
                    (_mask_to_bundle(mask, items), weight / result.objective)
                    for mask, weight in zip(masks, result.x)
                    if weight > 0
                )
            )
            break
        prices, _ = integer_keys(result.duals)
        z = max(map(ranks.__getitem__, _affordable(prices, p * sum(prices) // q)))
    total = sum(prices)
    return ShareResult(candidates[z], witness, {e: Fraction(y, total) for e, y in zip(items, prices)})


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
    bundles = _bundles(items)
    keys, _ = integer_keys([budget, *(prices[e] for e in items)])
    return max(v.value(bundles[mask]) for mask in _affordable(keys[1:], keys[0]))
