"""Set-function valuation oracles.

Strategies interact with valuations only through value queries
(``value(bundle) -> Fraction``).  Share computations interact through value
queries or one table query (``mask_keys(items)``, the values of all 2^m
bundles as ints over one denominator).  The structured classes below exist so
that instances can be described compactly and serialized, but code that
simulates agents must treat them as opaque oracles.

All values are exact rationals.  Every oracle counts the value queries it
has answered (``query_count``, cache hits included) and, of those, the ones
its cache could not answer (``miss_count``, each one evaluation of the set
function).  A table query counts one query per bundle, and one evaluation
per bundle too where it computes the table directly, as weighted coverage does.
The counters are not thread safe and are meant for single-run accounting.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping, Sequence, TypeVar

Bundle = frozenset[str]
K = TypeVar("K")


class SizeGuardExceeded(ValueError):
    """Raised when an exhaustive check is asked to enumerate too many sets."""


class SizeGuardSettingError(ValueError):
    """BIDFAIR_SIZE_GUARD holds something other than a nonnegative integer."""


def default_size_guard() -> int:
    """The item limit of the exhaustive computations: BIDFAIR_SIZE_GUARD, or 12."""
    text = os.environ.get("BIDFAIR_SIZE_GUARD", "12")
    if not text.strip().isdecimal():
        raise SizeGuardSettingError(
            f"BIDFAIR_SIZE_GUARD must be a nonnegative integer, not {text!r}"
        )
    return int(text)


def guarded_items(items: Iterable[str], what: str = "exhaustive check") -> tuple[str, ...]:
    """``items`` as a tuple, or SizeGuardExceeded when there are more than
    ``default_size_guard()`` of them."""
    items = tuple(items)
    guard = default_size_guard()
    if len(items) > guard:
        raise SizeGuardExceeded(f"{what} over {len(items)} items exceeds guard of {guard}")
    return items


def integer_keys(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Each value times ``common``, the lcm of the denominators, and ``common``.

    The keys are ints that order, compare and add as the values do, and
    ``Fraction(key, common)`` is the value again.

    >>> integer_keys([Fraction(1, 3), Fraction(-2, 5), Fraction(7)])
    ([5, -6, 105], 15)
    """
    ratios = [x.as_integer_ratio() for x in values]
    common = math.lcm(*{d for _, d in ratios})
    return [n * (common // d) for n, d in ratios], common


def _scale(values: Mapping[K, Fraction]) -> tuple[dict[K, int], int]:
    """Each value times the common denominator, by key, and that denominator."""
    keys, common = integer_keys(list(values.values()))
    return dict(zip(values, keys)), common


def _as_bundle(items: Iterable[str]) -> Bundle:
    return items if isinstance(items, frozenset) else frozenset(items)


def _bundles(items: Sequence[str]) -> list[Bundle]:
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


class ValuationOracle:
    """Base class: a normalized, monotone set function answering value queries."""

    def __init__(self) -> None:
        self.query_count = 0
        self.miss_count = 0
        self._cache: dict[Bundle, Fraction] = {}

    def value(self, bundle: Iterable[str]) -> Fraction:
        """Answer a value query.  Every query counts in ``query_count``; only
        those the cache cannot answer count in ``miss_count``."""
        key = _as_bundle(bundle)
        self.query_count += 1
        hit = self._cache.get(key)
        if hit is None:
            self.miss_count += 1
            hit = self._value(key)
            self._cache[key] = hit
        return hit

    def _value(self, bundle: Bundle) -> Fraction:
        raise NotImplementedError

    def mask_keys(self, items: Sequence[str]) -> tuple[list[int], int]:
        """The values of all 2^m bundles of ``items`` as ``integer_keys``:
        entry ``mask`` is the bundle holding ``items[j]`` for each set bit j.

        Here every bundle is a value query, asked in mask order, each built
        from its lowest-bit predecessor (``_bundles``).  A subclass may compute
        the table directly; it then counts one query and one evaluation per
        bundle and leaves the cache alone.
        """
        return integer_keys([self.value(bundle) for bundle in _bundles(items)])


class AdditiveValuation(ValuationOracle):
    """v(S) = sum of per-item values.

    The values are scaled once, at the first evaluation, to integers over
    their common denominator, so a query sums ints and builds a single
    Fraction.
    """

    def __init__(self, values: Mapping[str, Fraction | int]) -> None:
        super().__init__()
        self.item_values = {e: Fraction(x) for e, x in values.items()}

    @cached_property
    def _scaled(self) -> tuple[dict[str, int], int]:
        return _scale(self.item_values)

    def _value(self, bundle: Bundle) -> Fraction:
        scaled, common = self._scaled
        return Fraction(sum([scaled.get(e, 0) for e in bundle]), common)


class UnitDemandValuation(ValuationOracle):
    """v(S) = best single item in S."""

    def __init__(self, values: Mapping[str, Fraction | int]) -> None:
        super().__init__()
        self.item_values = {e: Fraction(x) for e, x in values.items()}

    def _value(self, bundle: Bundle) -> Fraction:
        vals = [self.item_values.get(e, Fraction(0)) for e in bundle]
        return max(vals, default=Fraction(0))


class XOSValuation(ValuationOracle):
    """Pointwise maximum of finitely many additive clauses.

    v(S) = max(0, max over clauses c of the sum of c's weights on S).  Each
    item is indexed to the (clause, weight) terms it appears in, so a query
    costs one addition per term that the bundle's items carry, not one per
    clause and item: a clause that meets no item of S sums to 0 and can
    only tie the floor of 0.
    """

    def __init__(self, clauses: Sequence[Mapping[str, Fraction | int]]) -> None:
        super().__init__()
        if not clauses:
            raise ValueError("need at least one additive clause")
        self.clauses = [{e: Fraction(x) for e, x in c.items()} for c in clauses]
        self._terms: dict[str, list[tuple[int, Fraction]]] = {}
        for i, clause in enumerate(self.clauses):
            for e, weight in clause.items():
                self._terms.setdefault(e, []).append((i, weight))

    def _value(self, bundle: Bundle) -> Fraction:
        totals: dict[int, Fraction] = {}
        for e in bundle:
            for i, weight in self._terms.get(e, ()):
                total = totals.get(i)
                totals[i] = weight if total is None else total + weight
        best = Fraction(0)
        for total in totals.values():
            if total > best:
                best = total
        return best


class RowSubstitutesValuation(ValuationOracle):
    """Items arranged in rows of mutual substitutes.

    Items within a row are copies of one another: holding any item of row i
    contributes the row weight w_i exactly once.  Rows combine additively,
    so v(S) = sum of weights of rows that S touches.  Always submodular.

    The weights are scaled once, at the first evaluation, to integers over
    their common denominator, so a query sums ints and builds a single
    Fraction.
    """

    def __init__(self, rows: Sequence[Sequence[str]], weights: Sequence[Fraction | int]) -> None:
        super().__init__()
        if len(rows) != len(weights):
            raise ValueError("one weight per row")
        self.rows = [tuple(r) for r in rows]
        self.weights = [Fraction(w) for w in weights]
        self._row_of = {e: i for i, row in enumerate(self.rows) for e in row}

    @cached_property
    def _scaled(self) -> tuple[dict[int, int], int]:
        return _scale(dict(enumerate(self.weights)))

    def _value(self, bundle: Bundle) -> Fraction:
        scaled, common = self._scaled
        touched = {self._row_of[e] for e in bundle if e in self._row_of}
        return Fraction(sum([scaled[i] for i in touched]), common)


class WeightedCoverageValuation(ValuationOracle):
    """v(S) = total weight of the ground elements covered by S (submodular).

    The weights are scaled once, at the first evaluation, to integers over
    their common denominator, so a query sums ints and builds a single
    Fraction.  The table query works by mask in ints: each item's cover is a
    bitmask over the elements, and each bundle adds the scaled weights of the
    elements its last item newly covers.

    >>> v = WeightedCoverageValuation({"u": Fraction(1, 3), "w": Fraction(2, 5)}, {"a": ["u", "w"]})
    >>> v.value({"a"})
    Fraction(11, 15)
    >>> v.mask_keys(["a", "b"])
    ([0, 11, 0, 11], 15)
    """

    def __init__(
        self,
        element_weights: Mapping[str, Fraction | int],
        covers: Mapping[str, Iterable[str]],
    ) -> None:
        super().__init__()
        self.element_weights = {u: Fraction(w) for u, w in element_weights.items()}
        self.covers = {e: frozenset(us) for e, us in covers.items()}
        unknown = set().union(*self.covers.values()) - set(self.element_weights) if self.covers else set()
        if unknown:
            raise ValueError(f"items cover unknown elements: {sorted(unknown)}")

    @cached_property
    def _scaled(self) -> tuple[dict[str, int], int]:
        return _scale(self.element_weights)

    def _value(self, bundle: Bundle) -> Fraction:
        scaled, common = self._scaled
        covered: set[str] = set()
        for e in bundle:
            covered.update(self.covers.get(e, ()))
        return Fraction(sum(scaled[u] for u in covered), common)

    def mask_keys(self, items: Sequence[str]) -> tuple[list[int], int]:
        scaled, common = self._scaled
        weights = list(scaled.values())
        bit = {u: 1 << i for i, u in enumerate(scaled)}
        covers = [sum(bit[u] for u in self.covers.get(e, ())) for e in items]
        size = 1 << len(items)
        covered = [0] * size
        keys = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            before = covered[mask ^ low]
            covered[mask] = after = before | covers[low.bit_length() - 1]
            key = keys[mask ^ low]
            new = after ^ before
            while new:
                first = new & -new
                key += weights[first.bit_length() - 1]
                new ^= first
            keys[mask] = key
        self.query_count += size
        self.miss_count += size
        return keys, common


class TableValuation(ValuationOracle):
    """Explicit table over all subsets of a tiny item set.  Test fixtures only."""

    def __init__(self, items: Sequence[str], table: Mapping[frozenset, Fraction | int]) -> None:
        super().__init__()
        self.items = tuple(sorted(items))
        self.table = {frozenset(k): Fraction(x) for k, x in table.items()}

    def _value(self, bundle: Bundle) -> Fraction:
        try:
            return self.table[bundle]
        except KeyError:
            raise KeyError(f"table valuation has no entry for {sorted(bundle)}") from None


class TruncatedValuation(ValuationOracle):
    """min(v(S), t): caps an inner oracle at a ceiling t >= 0.

    Preserves normalization and monotonicity, and preserves submodularity
    when v is submodular.

    >>> v = AdditiveValuation({"a": 3, "b": 2})
    >>> TruncatedValuation(v, 4).value({"a", "b"})
    Fraction(4, 1)
    """

    def __init__(self, inner: ValuationOracle, ceiling: Fraction | int) -> None:
        super().__init__()
        ceiling = Fraction(ceiling)
        if ceiling < 0:
            raise ValueError("truncation level must be nonnegative")
        self.inner = inner
        self.ceiling = ceiling

    def _value(self, bundle: Bundle) -> Fraction:
        return min(self.inner.value(bundle), self.ceiling)


class ScaledValuation(ValuationOracle):
    """c * v(S) for a positive rational c."""

    def __init__(self, inner: ValuationOracle, factor: Fraction | int) -> None:
        super().__init__()
        factor = Fraction(factor)
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        self.inner = inner
        self.factor = factor

    def _value(self, bundle: Bundle) -> Fraction:
        return self.factor * self.inner.value(bundle)


def marginal(v: ValuationOracle, item: str, base: Iterable[str]) -> Fraction:
    """Marginal value v(base + item) - v(base).  Requires item not in base."""
    base = _as_bundle(base)
    if item in base:
        raise ValueError(f"item {item!r} already in base bundle")
    return v.value(base | {item}) - v.value(base)


def is_monotone_normalized(v: ValuationOracle, items: Sequence[str]) -> bool:
    """Exhaustively check v(empty) == 0 and v(S) <= v(S + e) for all S, e."""
    items = guarded_items(items)
    if v.value(frozenset()) != 0:
        return False
    for size in range(len(items)):
        for sub in combinations(items, size):
            base = frozenset(sub)
            base_val = v.value(base)
            for e in items:
                if e not in base and v.value(base | {e}) < base_val:
                    return False
    return True


def is_submodular(v: ValuationOracle, items: Sequence[str]) -> bool:
    """Exhaustively check diminishing marginals: for all S subset of T and e
    outside T, v(e | S) >= v(e | T)."""
    items = guarded_items(items)
    universe = frozenset(items)
    subsets = [frozenset(c) for size in range(len(items) + 1) for c in combinations(items, size)]
    for t_set in subsets:
        for e in universe - t_set:
            marg_t = marginal(v, e, t_set)
            # checking against maximal proper predecessors suffices by induction
            for drop in t_set:
                s_set = t_set - {drop}
                if marginal(v, e, s_set) < marg_t:
                    return False
    return True
