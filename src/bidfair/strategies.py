"""Bidding strategies for the budgeted bidding game.

The share-proportional strategies receive the share value (exact or guessed)
as an input rather than computing it, so the same code serves both direct
play with oracle shares and the guess-refinement allocator.  Strategies see
the game only through public state and their own value oracle.

The marginal-value strategies rank the items still in play by marginal
value over the bundle they hold each time that bundle changes, and between
their wins take the best still-remaining item from that ranking.  A ranking
over one held bundle costs a value query per remaining item, plus one.  The
latest ranking of each (oracle, held bundle) is shared by every bidder and
game on that oracle while it covers their remaining items, and replaced when
a game needs a wider one: the allocator's games, which differ in one agent's
guess, rank most bundles once in all.  The ranking is exact for every
valuation, and it truncates at a ceiling in ints, so a bidder that truncates
its valuation queries its own oracle, whose cache outlives the game.  Gains
are int pairs; a bid is capped at the budget by one rule, ``_capped``.  A
cursor over a ranking moves to the first ranked item still in play in one
call, ``first_remaining``, which the sniper of ``negatives`` shares.

A bidder is built for every game, and most games are short, so set-up works
in ints too: ``ProportionalBidder`` checks its share and rho and derives its
bounds from their int pairs, wrapping no ``Fraction`` twice, and
``ScriptedBidder`` clamps its script at 0 by each bid's numerator.
"""

from __future__ import annotations

import random
import weakref
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import neg
from typing import NamedTuple, Sequence

from .engine import PublicState, Strategy, StrategyError
from .valuations import ValuationOracle, integer_keys

RhoLike = Fraction | int | None

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def default_rho(entitlement: Fraction) -> Fraction:
    """Guarantee-optimal aggressiveness for a budget-share entitlement: 1/(3-2b)."""
    p, q = entitlement.as_integer_ratio()
    return Fraction(q, 3 * q - 2 * p)


def first_remaining(items: Sequence[str], start: int, remaining: Sequence[str]) -> int:
    """The index of the first of ``items[start:]`` in ``remaining``, which is
    in ascending order, or ``len(items)`` when none is: one call advances a
    cursor over items that only leave ``remaining``."""
    i, n = start, len(items)
    while i < n:
        item = items[i]
        j = bisect_left(remaining, item)
        if j < len(remaining) and remaining[j] == item:
            break
        i += 1
    return i


class _Ranked(NamedTuple):
    """The untruncated ranking of some remaining items over one held bundle."""

    items: tuple[str, ...]  # ``covered`` less the bundle, larger value first, ascending on ties
    keys: tuple[int, ...]  # v(held + item) * common, in that order
    base_key: int  # v(held) * common
    common: int
    covered: frozenset[str]  # the remaining items it was ranked over


_UNRANKED = _Ranked((), (), 0, 1, frozenset())

# oracle -> held bundle -> its latest ranking.  Weak in the oracle, so its
# rankings go with it; each entry holds no more than the values it was built
# from, all in the oracle's cache.
_RANKINGS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _at_least(keys: Sequence[int], key: int) -> int:
    """How many of ``keys``, which descend, are at least ``key``."""
    return bisect_right(keys, -key, key=neg)


def _ranked(valuation: ValuationOracle, remaining: Sequence[str], held: frozenset[str]) -> _Ranked:
    items = [e for e in remaining if e not in held]
    values = [valuation.value(held | {e}) for e in items]
    values.append(valuation.value(held))
    keys, common = integer_keys(values)
    base_key = keys.pop()
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    items, keys = tuple(items[j] for j in order), tuple(keys[j] for j in order)
    return _Ranked(items, keys, base_key, common, frozenset(remaining))


def _capped(n: int, d: int, budget: Fraction) -> Fraction:
    """The bid n/d (d > 0), or ``budget`` itself when n/d is above it."""
    p, q = budget.as_integer_ratio()
    return budget if n * q > p * d else Fraction(n, d)


class _MarginalRanking:
    """The items ranked by marginal value over one held bundle.

    A ranking covers at least the items remaining when the bundle changed,
    less the bundle: items of larger gain come first, and equal gains keep
    ascending item order.  Gains over a fixed bundle never change and items
    only leave the game, so until the bundle changes the best item is the
    first ranked one still remaining, found by a cursor that only moves
    forward.  This holds for every valuation: it needs no submodularity.

    The untruncated ranking, one value query per remaining item plus one, is
    kept per (oracle, held bundle) and shared by every ``_MarginalRanking``
    on that oracle, in this game and later ones, while its items cover the
    remaining ones; otherwise a ranking over the remaining items replaces
    it, and a ``_MarginalRanking`` still reading the old one keeps it.

    With a ``ceiling`` the ranking is that of min(v, ceiling), with no
    truncated oracle queried.  Clamping keeps the order, so the items whose
    value reaches the ceiling form a prefix of the shared order; they tie at
    the ceiling, and re-sorting that prefix by item gives the truncated
    order, ties included.  ``base`` and ``gain`` are (numerator, positive
    denominator) pairs; ``gain`` is a new tuple only when the cursor moves or
    the bundle changes.
    """

    def __init__(self, valuation: ValuationOracle, ceiling: Fraction | None = None) -> None:
        self.valuation = valuation
        self._ceiling = None if ceiling is None else ceiling.as_integer_ratio()
        # ``setdefault`` would make a weak reference with a callback on every
        # call; ``get`` reuses the oracle's plain one
        table = _RANKINGS.get(valuation)
        if table is None:
            table = _RANKINGS[valuation] = {}
        self._table: dict[frozenset[str], _Ranked] = table
        self._held: frozenset[str] | None = None
        self.base = (0, 1)  # v(held), truncated at the ceiling
        self._ranked = _UNRANKED
        self._items: Sequence[str] = ()  # the ranked items, in truncated order
        self._reaching = 0  # how many of them reach the ceiling
        self._cursor = 0
        self.gain = (0, 1)  # the gain at the cursor: 0 when no item remains

    def advance(self, held: frozenset[str], remaining: Sequence[str]) -> str | None:
        """Item of maximal marginal value over ``held``, earliest in
        ascending order on ties, or None when no item remains; its gain is
        ``gain`` after the call.  ``remaining`` must be in ascending order,
        as the engine gives it."""
        if held is not self._held and held != self._held:
            self._rank(held, remaining)
        items = self._items
        i = first_remaining(items, self._cursor, remaining)
        if i != self._cursor:
            self._move(i)
        return items[i] if i < len(items) else None

    def pick(self, held: frozenset[str], remaining: Sequence[str]) -> list[str]:
        """The best item over ``held``, or the first remaining item when the
        best one adds nothing: the pick of every marginal-value strategy."""
        item = self.advance(held, remaining)
        return [remaining[0] if self.gain[0] == 0 else item]

    def _move(self, i: int) -> None:
        self._cursor = i
        ranked = self._ranked
        if i < len(ranked.keys):
            # the truncated value of held + the item, less the base
            n, d = self._ceiling if i < self._reaching else (ranked.keys[i], ranked.common)
            p, q = self.base
            self.gain = (n - p, d) if d == q else (n * q - p * d, d * q)
        else:
            self.gain = (0, 1)

    def _rank(self, held: frozenset[str], remaining: Sequence[str]) -> None:
        ranked = self._table.get(held)
        if ranked is None or not ranked.covered.issuperset(remaining):
            ranked = self._table[held] = _ranked(self.valuation, remaining, held)
        items, reaching, base = ranked.items, 0, (ranked.base_key, ranked.common)
        if self._ceiling is not None:
            n, d = self._ceiling
            cap = -(-n * ranked.common // d)  # the least key at or above the ceiling
            reaching = _at_least(ranked.keys, cap)
            if reaching > 1:
                items = tuple(sorted(items[:reaching])) + items[reaching:]
            if ranked.base_key >= cap:
                base = self._ceiling
        self._held = held
        self._ranked = ranked
        self.base = base
        self._items = items
        self._reaching = reaching
        self._move(0)


class ProportionalBidder(Strategy):
    """Two-phase share-proportional bidding for a submodular valuation.

    The valuation is truncated at the share value: the ranking clamps its
    int keys at the share, so the agent's own oracle answers every query.
    While some unallocated item is *large* (truncated value above
    2*rho*share) the agent bids her entire remaining budget and, on a win,
    grabs the most valuable item, exhausting her budget.  The ranking over
    the empty bundle tells the phase: its best remaining item is the one of
    largest singleton value.  Once no large item remains she bids

        (1 / 2 rho) * (b / share) * (highest remaining marginal value),

    capped at her remaining budget, and on a win takes an item of maximal
    marginal value.  Renormalizing the post-large-phase state into a fresh
    instance (budgets scaled by 1/gamma into entitlements, bids scaled back
    by gamma) leaves these bid amounts unchanged - the two scalings cancel -
    so the strategy applies the same formula throughout.  The bid depends
    only on the gain and the budget, so it is reused while both stand.  The
    gain, the coefficient and the bounds stay int pairs until ``_capped``.

    ``budget_capped_early`` records whether the budget cap ever bound a
    formula bid while the agent's held value was still below rho*share; the
    bid-formula invariants imply this never happens, and tests assert it.
    """

    def __init__(
        self,
        valuation: ValuationOracle,
        entitlement: Fraction | int,
        share: Fraction | int,
        rho: RhoLike = None,
    ) -> None:
        self.entitlement = entitlement if type(entitlement) is Fraction else Fraction(entitlement)
        self.share = share if type(share) is Fraction else Fraction(share)
        p, q = self.entitlement.as_integer_ratio()
        n, d = self.share.as_integer_ratio()
        if n < 0:
            raise ValueError("share must be nonnegative")
        if rho is None:
            rho = default_rho(self.entitlement)
        self.rho = rho if type(rho) is Fraction else Fraction(rho)
        r, s = self.rho.as_integer_ratio()
        if r <= 0:
            raise ValueError("rho must be positive")
        self.valuation = valuation
        self.budget_capped_early = False
        self._zero_share = n == 0
        self._ranking = _MarginalRanking(valuation, None if n == 0 else self.share)
        # 2*rho*share while a large item may remain; None once none can, as when
        # the share is 0 or 2*rho >= 1 (a truncated value is at most the share)
        self._large_bound = (2 * r * n, s * d) if n > 0 and 2 * r < s else None
        self._rho_share = (r * n, s * d)
        if n > 0:  # 1/(2 rho) * b / share
            self._coefficient = (s * p * d, 2 * r * q * n)
        # the last (gain, budget, bid): the bid is a function of the other two
        self._last: tuple[tuple[int, int] | None, Fraction | None, Fraction] = (None, None, _ZERO)

    def _in_large_phase(self, remaining: Sequence[str]) -> bool:
        """Whether a large item remains; call only while ``_large_bound`` is set."""
        # base + gain is the truncated value of the best remaining single item
        ranking = self._ranking
        ranking.advance(frozenset(), remaining)
        (p, q), (g, h), (n, d) = ranking.base, ranking.gain, self._large_bound
        if (p * h + g * q) * d > n * q * h:
            return True
        self._large_bound = None  # items only leave the game: the phase is over
        return False

    def bid(self, state: PublicState) -> Fraction:
        if self._zero_share:
            return _ZERO
        budget = state.budgets[self.agent_id]
        if self._large_bound is not None and self._in_large_phase(state.remaining):
            return budget
        ranking = self._ranking
        ranking.advance(state.bundles[self.agent_id], state.remaining)
        gain = ranking.gain
        last_gain, last_budget, last_bid = self._last
        if gain is last_gain and budget is last_budget:
            return last_bid
        (g, h), (c, e) = gain, self._coefficient
        bid = _capped(c * g, e * h, budget)
        if bid is budget:
            (p, q), (n, d) = ranking.base, self._rho_share
            if p * d < n * q:  # the held value is below rho*share
                self.budget_capped_early = True
        self._last = (gain, budget, bid)
        return bid

    def pick(self, state: PublicState) -> Sequence[str]:
        if self._large_bound is not None and self._in_large_phase(state.remaining):
            # the most valuable single item: the ranking over the empty bundle
            item = self._ranking.advance(frozenset(), state.remaining)
            return [item]
        return self._ranking.pick(state.bundles[self.agent_id], state.remaining)


class AltruisticProportionalBidder(ProportionalBidder):
    """Marginal-value bidding for the spend-capped game variant.

    This is ``ProportionalBidder`` at rho = 1/2: the agent bids
    (b / share) * (highest remaining marginal value of her valuation truncated
    at the share), capped at her remaining budget, and takes a maximal
    marginal item on a win, breaking ties by canonical item order.  No item
    is large, since a truncated value never exceeds 2 * rho * share.
    """

    def __init__(
        self,
        valuation: ValuationOracle,
        entitlement: Fraction | int,
        share: Fraction | int,
    ) -> None:
        super().__init__(valuation, entitlement, share, _HALF)


class UnitDemandFullBudgetBidder(Strategy):
    """Bid the whole budget until the first win, take the best item, then stop."""

    def __init__(self, valuation: ValuationOracle) -> None:
        self.valuation = valuation
        self._ranking = _MarginalRanking(valuation)

    def bid(self, state: PublicState) -> Fraction:
        # a win pays the whole budget, so after it this bid is 0
        return state.budgets[self.agent_id]

    def pick(self, state: PublicState) -> Sequence[str]:
        return [self._ranking.advance(frozenset(), state.remaining)]


class ScriptedBidder(Strategy):
    """Replays fixed per-round bids and (optionally) per-round picks.

    Bids beyond the script default to zero and are clamped to the remaining
    budget.  A scripted pick that is no longer available is an error; without
    a pick script the canonically first available item is taken.
    """

    def __init__(
        self,
        bids: Sequence[Fraction | int],
        picks: Sequence[Sequence[str] | str | None] | None = None,
    ) -> None:
        # each bid clamped at 0 by its numerator's sign, as an int pair for ``_capped``
        pairs = ((b if type(b) is Fraction else Fraction(b)).as_integer_ratio() for b in bids)
        self._bids = [(n, d) if n > 0 else (0, 1) for n, d in pairs]
        self.picks = list(picks) if picks is not None else None

    def bid(self, state: PublicState) -> Fraction:
        r = state.round - 1
        if r >= len(self._bids):
            return _ZERO
        return _capped(*self._bids[r], state.budgets[self.agent_id])

    def pick(self, state: PublicState) -> Sequence[str]:
        r = state.round - 1
        scripted = self.picks[r] if self.picks is not None and r < len(self.picks) else None
        if scripted is None:
            return [state.remaining[0]]
        items = [scripted] if isinstance(scripted, str) else list(scripted)
        missing = [e for e in items if e not in state.remaining]
        if missing:
            raise StrategyError(f"scripted pick of unavailable items {missing}")
        return items


class ConstantBidder(Strategy):
    """Bids a constant amount (clamped to budget); picks canonically first item."""

    def __init__(self, amount: Fraction | int) -> None:
        self.amount = amount if type(amount) is Fraction else Fraction(amount)
        self._pair = self.amount.as_integer_ratio()
        # the last (budget, bid): a budget changes only on a win
        self._last: tuple[Fraction | None, Fraction] = (None, self.amount)

    def bid(self, state: PublicState) -> Fraction:
        budget = state.budgets[self.agent_id]
        last_budget, bid = self._last
        if budget is not last_budget:
            (n, d), (p, q) = self._pair, budget.as_integer_ratio()
            bid = budget if n * q > p * d else self.amount  # the amount, capped at the budget
            self._last = (budget, bid)
        return bid

    def pick(self, state: PublicState) -> Sequence[str]:
        return [state.remaining[0]]


class ZeroBidder(ConstantBidder):
    """Always bids zero; picks the canonically first item when forced to win."""

    def __init__(self) -> None:
        super().__init__(0)


class GreedyMarginalBidder(Strategy):
    """Bids its own highest marginal value, capped at budget; picks that item."""

    def __init__(self, valuation: ValuationOracle) -> None:
        self.valuation = valuation
        self._ranking = _MarginalRanking(valuation)

    def bid(self, state: PublicState) -> Fraction:
        self._ranking.advance(state.bundles[self.agent_id], state.remaining)
        return _capped(*self._ranking.gain, state.budgets[self.agent_id])

    def pick(self, state: PublicState) -> Sequence[str]:
        return self._ranking.pick(state.bundles[self.agent_id], state.remaining)


class RandomBidder(Strategy):
    """Seeded random bids (a random sixteenth of the budget) and random picks."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def bid(self, state: PublicState) -> Fraction:
        p, q = state.budgets[self.agent_id].as_integer_ratio()
        return Fraction(self.rng.randint(0, 16) * p, 16 * q)

    def pick(self, state: PublicState) -> Sequence[str]:
        return [self.rng.choice(state.remaining)]

