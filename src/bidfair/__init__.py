"""Fair allocation of indivisible goods through a budgeted bidding game.

Exact share computation (maximin and anyprice shares with witnesses), the
bidding strategies that guarantee constant fractions of those shares, a
replayable game engine, a guess-refinement allocator, and the adversarial
instance constructions that pin the guarantees down.
"""

from .model import (
    AgentSpec,
    Allocation,
    FractionalPartition,
    GameState,
    Instance,
    make_instance,
    reduce_instance,
    residual_instance,
    validate_allocation,
)
from .valuations import (
    AdditiveValuation,
    RowSubstitutesValuation,
    ScaledValuation,
    SizeGuardExceeded,
    TableValuation,
    TruncatedValuation,
    UnitDemandValuation,
    ValuationOracle,
    WeightedCoverageValuation,
    XOSValuation,
    is_monotone_normalized,
    is_submodular,
    marginal,
)
from .shares import (
    ShareResult,
    aps_exact,
    aps_unit_demand,
    best_affordable,
    mms_exact,
    verify_fractional_partition,
    verify_mms_partition,
)
from .engine import (
    GameConfig,
    PublicState,
    Round,
    RuleViolation,
    Strategy,
    StrategyError,
    TieBreak,
    Transcript,
    check_transcript,
    run_game,
    state_after,
    verify_transcript,
)
from .strategies import (
    AltruisticProportionalBidder,
    ConstantBidder,
    GreedyMarginalBidder,
    ProportionalBidder,
    RandomBidder,
    ScriptedBidder,
    UnitDemandFullBudgetBidder,
    ZeroBidder,
    default_rho,
)
from .wrapper import (
    ContractViolation,
    RefinementOutcome,
    call_budget,
    conditional_allocate,
    default_epsilon,
    guarantee_rho,
    unconditional_allocate,
    value_spread_bound,
)
from .analysis import (
    CANONICAL_MULTIPLIERS,
    FeasibilityOutcome,
    GuaranteeReport,
    RunDiagnostics,
    TheoremSystem,
    build_theorem_system,
    certificate_valid,
    check_feasible,
    combine_rows,
    guarantee_report,
    lower_bound_diagnostics,
)
from .negatives import (
    ScriptedRun,
    altruistic_negative_ratio,
    gen_altruistic_negative,
    gen_modified_negative,
    gen_original_negative,
    gen_random_submodular,
    gen_xos_hard,
    standard_negative_ratio,
    sylvester,
)

__version__ = "0.1.0"
