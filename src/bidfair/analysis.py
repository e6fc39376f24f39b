"""Guarantee reports, transcript diagnostics, and the one-in-e-bound certificate LP.

The inequality system certifies the spend-capped game's guarantee: if an
agent playing the marginal-value strategy could end below a 1/z fraction of
her share, the observable structure of the run (how many items each opponent
took, what they paid) must satisfy four linear constraints over nonnegative
variables x1..x4, y, q.  ``check_feasible`` decides the system exactly; an
infeasibility certificate is a nonnegative combination of the rows whose
variable coefficients are all nonnegative while its constant is negative
(or zero with positive weight on the strict row) - an explicit contradiction.

The system speaks of one game only: infeasibility at (z, n) bounds a game of
n agents whose spend cap is 1/z, not a game under another cap.  At n = 2 the
system is infeasible at z = 13/5, yet a game of two agents under the cap
10/27 can end below 5/13 of the agent's MMS: she spends past 10/27 of her
budget on one item and leaves.

The transcript diagnostics compute the run quantities that drive the share
guarantees: the certified lower bound L0 on the agent's value for everything,
its surviving part Lf after opponents' wins, her held value, and the total
marginal value opponents removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .engine import Transcript, _Ledger
from .model import Allocation, FractionalPartition, Instance
from .simplex import solve_lp
from .valuations import ValuationOracle

VARIABLES = ("x1", "x2", "x3", "x4", "y", "q")

# row multipliers 9/5, 1, 1/5, 1/2 certify infeasibility at z = 27/10
CANONICAL_MULTIPLIERS = (Fraction(9, 5), Fraction(1), Fraction(1, 5), Fraction(1, 2))


@dataclass(frozen=True)
class TheoremSystem:
    """Four constraints over x1..x4, y, q >= 0, in canonical <= form.

    Row 2 (opponents must have paid enough into every share bundle) is a
    strict inequality: a failing run leaves the agent strictly short.
    """

    z: Fraction
    inv_n: Fraction  # 1/n, with 0 standing for the n -> infinity sentinel
    rows: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    strict: tuple[bool, ...]


def build_theorem_system(z: Fraction | int | str, n: int | None) -> TheoremSystem:
    """Instantiate the system at a substituted target z and agent count n.

    The payment-deficiency row is only valid for z above 5/2, so smaller
    targets are rejected.  ``n=None`` sets 1/n = 0.
    """
    z = Fraction(z)
    if z <= Fraction(5, 2):
        raise ValueError("the system is only valid for z > 5/2")
    if n is not None and n < 1:
        raise ValueError("n must be positive")
    inv_n = Fraction(0) if n is None else Fraction(1, n)
    s = z - Fraction(5, 2)
    rows = (
        (Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(-2), Fraction(-3, 2), Fraction(-4, 3), Fraction(-5, 4), Fraction(-6, 5), Fraction(1)),
        (Fraction(2), Fraction(0), Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
        (-2 * s, -3 * s, -4 * s, -5 * s, Fraction(-6, 5), Fraction(-1)),
    )
    rhs = (1 - inv_n, 1 - z, Fraction(1), -3 * s)
    return TheoremSystem(z=z, inv_n=inv_n, rows=rows, rhs=rhs, strict=(False, True, False, False))


def combine_rows(system: TheoremSystem, multipliers: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], Fraction]:
    """Nonnegative combination of the rows: (coefficient vector, constant)."""
    coeffs = tuple(
        sum((m * row[j] for m, row in zip(multipliers, system.rows)), Fraction(0))
        for j in range(len(VARIABLES))
    )
    constant = sum((m * b for m, b in zip(multipliers, system.rhs)), Fraction(0))
    return coeffs, constant


def certificate_valid(system: TheoremSystem, multipliers: Sequence[Fraction]) -> bool:
    """A valid certificate combines to nonnegative coefficients with either a
    negative constant, or a zero constant and positive weight on a strict row."""
    if len(multipliers) != len(system.rows) or any(m < 0 for m in multipliers):
        return False
    coeffs, constant = combine_rows(system, multipliers)
    if any(c < 0 for c in coeffs):
        return False
    if constant < 0:
        return True
    strict_weight = sum(
        (m for m, is_strict in zip(multipliers, system.strict) if is_strict), Fraction(0)
    )
    return constant == 0 and strict_weight > 0


@dataclass
class FeasibilityOutcome:
    feasible: bool
    witness: dict[str, Fraction] | None = None
    certificate: tuple[Fraction, ...] | None = None


def check_feasible(system: TheoremSystem) -> FeasibilityOutcome:
    """Exact feasibility of the system; infeasibility comes with a certificate.

    Strict rows are handled by maximizing a shared slack: the system is
    feasible iff some point satisfies every weak row with positive slack on
    each strict row.  When infeasible, the canonical multipliers are returned
    whenever they certify the instance; otherwise the solver's own dual
    multipliers are.
    """
    n_rows = len(system.rows)
    a_ub = [list(row) + [Fraction(1) if system.strict[i] else Fraction(0)]
            for i, row in enumerate(system.rows)]
    a_ub.append([Fraction(0)] * len(VARIABLES) + [Fraction(1)])  # slack cap
    b_ub = list(system.rhs) + [Fraction(1)]
    objective = [Fraction(0)] * len(VARIABLES) + [Fraction(1)]
    result = solve_lp(objective, a_ub=a_ub, b_ub=b_ub)

    if result.status == "optimal" and result.objective > 0:
        witness = dict(zip(VARIABLES, result.x[: len(VARIABLES)]))
        return FeasibilityOutcome(feasible=True, witness=witness)

    if result.status == "infeasible":
        multipliers = tuple(result.farkas[:n_rows])
    else:
        multipliers = tuple(result.duals[:n_rows])
    if certificate_valid(system, CANONICAL_MULTIPLIERS):
        multipliers = CANONICAL_MULTIPLIERS
    if not certificate_valid(system, multipliers):
        raise AssertionError("internal error: infeasibility certificate does not verify")
    return FeasibilityOutcome(feasible=False, certificate=multipliers)


@dataclass(frozen=True)
class RunDiagnostics:
    """Quantities extracted from one agent's view of a finished run."""

    settle_round: int  # earliest round after which rivals are done or items gone
    window_items: frozenset[str]  # items on the table when the window opened
    held: frozenset[str]  # items the agent won inside the window, up to settling
    taken_by_others: frozenset[str]  # items rivals won inside the window
    certified_total: Fraction  # L0: weighted value of the certificate bundles
    surviving_total: Fraction  # Lf: same, after removing rivals' items, atop held
    held_value: Fraction
    removed_marginals: Fraction  # sum over rivals' items of marginal value atop held


def lower_bound_diagnostics(
    transcript: Transcript,
    instance: Instance,
    agent: str,
    partition: FractionalPartition,
    oracle: ValuationOracle | None = None,
    start_round: int = 0,
    entitlement: Fraction | None = None,
) -> RunDiagnostics:
    """Compute L0, Lf, held value and removed marginal mass for one agent.

    ``start_round`` analyzes the game from a later round boundary (the rounds
    before it are ignored), with ``entitlement`` and ``partition`` describing
    the renormalized instance at that boundary.  The partition must be a
    valid weight system for the entitlement.
    """
    v = oracle if oracle is not None else instance.valuation(agent)
    b = entitlement if entitlement is not None else instance.entitlement(agent)
    # the weight on each of the instance's items, summed in one pass
    total, coverage = Fraction(0), dict.fromkeys(instance.items, Fraction(0))
    for bundle, weight in partition.entries:
        total += weight
        for e in bundle:
            if e in coverage:
                coverage[e] += weight
    if total != 1 or any(c > b for c in coverage.values()):
        raise ValueError("partition is not a valid weight system for this entitlement")

    # one forward replay: the opening state at start_round, then the window
    # round by round until rivals are done or the items are gone
    rounds = transcript.rounds
    ledger = _Ledger(instance, transcript.config)
    for rnd in rounds[:start_round]:
        ledger.apply(rnd)
    opening = ledger.snapshot()
    held: set[str] = set()
    taken: set[str] = set()
    settle = None
    for r in range(start_round, len(rounds) + 1):
        others_active = len(ledger.active) > (agent in ledger.active)
        if not others_active or not ledger.remaining:
            settle = r
            break
        if r < len(rounds):
            rnd = rounds[r]
            if rnd.winner == agent:
                held.update(rnd.items)
            else:
                taken.update(rnd.items)
            ledger.apply(rnd)
    if settle is None:
        raise ValueError("transcript never settles; was the game run to completion?")

    held_f = frozenset(held) | opening.bundles[agent]
    taken_f = frozenset(taken)

    held_value = v.value(held_f)
    certified = Fraction(0)
    surviving = Fraction(0)
    for bundle, weight in partition.entries:
        if weight == 0:
            continue
        certified += weight * v.value(bundle)
        surviving += weight * (v.value((bundle - taken_f) | held_f) - held_value)
    removed = sum(
        (v.value(held_f | {e}) - held_value for e in sorted(taken_f)), Fraction(0)
    )
    return RunDiagnostics(
        settle_round=settle,
        window_items=opening.remaining,
        held=held_f,
        taken_by_others=taken_f,
        certified_total=certified,
        surviving_total=surviving,
        held_value=held_value,
        removed_marginals=removed,
    )


@dataclass(frozen=True)
class AgentGuarantee:
    agent: str
    share: Fraction
    bundle_value: Fraction
    target: Fraction
    ratio: Fraction | None
    passed: bool


@dataclass(frozen=True)
class GuaranteeReport:
    entries: tuple[AgentGuarantee, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)


def guarantee_report(
    instance: Instance,
    allocation: Allocation | Mapping[str, frozenset[str]],
    shares: Mapping[str, Fraction],
    targets: Mapping[str, Fraction],
) -> GuaranteeReport:
    """Exact pass/fail of bundle_value >= target * share per agent.

    Agents with a nonpositive share pass vacuously.  The test is one
    cross-multiplication of the three values' int pairs.
    """
    entries = []
    for agent_id in sorted(shares):
        share, target = shares[agent_id], targets[agent_id]
        share = share if type(share) is Fraction else Fraction(share)
        target = target if type(target) is Fraction else Fraction(target)
        value = instance.valuation(agent_id).value(allocation.get(agent_id, frozenset()))
        n, d = share.as_integer_ratio()
        if n > 0:
            (v, w), (t, u) = value.as_integer_ratio(), target.as_integer_ratio()
            ratio, passed = Fraction(v * d, w * n), v * u * d >= t * n * w
        else:
            ratio, passed = None, True
        entries.append(AgentGuarantee(agent_id, share, value, target, ratio, passed))
    return GuaranteeReport(tuple(entries))
