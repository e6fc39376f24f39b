"""Command-line front end.

Subcommands:
  gen     write an instance file (builtin constructions or a random corpus draw)
  shares  exact share values and witnesses for the agents of an instance
  play    run one bidding game and emit a re-verifiable run report
  alloc   guess-refinement allocation with per-agent guarantees
  verify  re-check a run report offline
  lpcert  build and decide the guarantee-bound inequality system, whose
          infeasibility at (z, n) bounds a game of n agents with spend cap 1/z

Exit codes: 0 success / pass, 1 guarantee or verification failure,
2 input error, 3 internal error or contract violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Callable

from . import negatives, serialize
from .analysis import (
    build_theorem_system,
    check_feasible,
    combine_rows,
    guarantee_report,
)
from .engine import GameConfig, RuleViolation, TieBreak, Transcript, check_transcript, run_game
from .model import AgentSpec, Instance
from .shares import ShareResult, aps_exact, aps_unit_demand, mms_exact
from .strategies import (
    AltruisticProportionalBidder,
    ConstantBidder,
    GreedyMarginalBidder,
    ProportionalBidder,
    RandomBidder,
    UnitDemandFullBudgetBidder,
    ZeroBidder,
)
from .valuations import SizeGuardExceeded, SizeGuardSettingError, UnitDemandValuation
from .wrapper import (
    ContractViolation,
    default_epsilon,
    guarantee_rho,
    unconditional_allocate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_CONTRACT = 3


class InputError(Exception):
    pass


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(str(exc)) from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_instance(path: str) -> Instance:
    return serialize.instance_from_dict(serialize.loads(_read_text(path)))


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"{what} must be an integer, not {text!r}") from exc


# ---------------------------------------------------------------- gen

def _checked(function, *args, **kwargs):
    """``function(*args, **kwargs)``; a ValueError it raises is an input error."""
    try:
        return function(*args, **kwargs)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


NEGATIVE_KINDS = {f"{kind}-negative": gen for kind, gen in negatives.STAGED.items()}


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "random":
        instance = _checked(
            negatives.gen_random_submodular,
            seed=args.seed, n=args.agents, m=args.items,
            universe=args.universe, entitlements=args.entitlements,
        )
    elif args.kind == "xos-hard":
        instance = _checked(negatives.gen_xos_hard, args.agents, args.k).instance
    elif args.kind in NEGATIVE_KINDS:
        instance = _checked(NEGATIVE_KINDS[args.kind], args.k).instance
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown kind {args.kind}")
    _write_text(args.output, serialize.dumps(serialize.instance_to_dict(instance)))
    return EXIT_OK


# ---------------------------------------------------------------- shares

def _exact_share(kind: str, instance: Instance, spec: AgentSpec) -> ShareResult:
    """The agent's exact APS at its entitlement (``kind`` "aps") or its MMS over n blocks."""
    if kind == "aps":
        return aps_exact(spec.valuation, spec.entitlement, instance.items)
    return mms_exact(spec.valuation, len(instance.agents), instance.items)


def cmd_shares(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    if args.agent and args.agent not in instance.agent_ids:
        raise InputError(f"no agent {args.agent!r} in this instance")
    agents = [args.agent] if args.agent else list(instance.agent_ids)
    entries = []
    for agent_id in agents:
        spec = instance.agent(agent_id)
        entry: dict = {"agent": agent_id, "entitlement": spec.entitlement}
        if args.share in ("mms", "both"):
            res = _exact_share("mms", instance, spec)
            entry["mms"] = res.value
            entry["mms_witness"] = [sorted(b) for b in res.witness]
        if args.share in ("aps", "both"):
            res = _exact_share("aps", instance, spec)
            entry["aps"] = res.value
            entry["aps_witness"] = serialize.partition_to_dict(res.witness)
            if isinstance(spec.valuation, UnitDemandValuation):
                entry["aps_closed_form"] = aps_unit_demand(
                    [spec.valuation.item_values.get(e, Fraction(0)) for e in instance.items],
                    spec.entitlement,
                )
        entries.append(entry)
    _write_text(args.output, serialize.dumps({"format": "bidfair/shares", "version": 1, "shares": entries}))
    return EXIT_OK


def _unmet(entries: list[dict]) -> list[str]:
    """The agents whose guarantee entries record a failure."""
    return [entry["agent"] for entry in entries if entry.get("passed") is False]


# ---------------------------------------------------------------- play

# each strategy's parameters: any other key is an input error
_STRATEGY_PARAMS = {
    "proportional": ("share", "rho"),
    "altruistic": ("share",),
    "unit_demand": (),
    "greedy": (),
    "random": ("seed",),
    "constant": ("amount",),
    "zero": (),
}


def _parse_strategy_spec(
    spec_text: str,
    instance: Instance,
    agent_id: str,
    exact_share: Callable[[str, str], Fraction],
):
    name, _, params_text = spec_text.partition(":")
    if name not in _STRATEGY_PARAMS:
        raise InputError(f"unknown strategy {name!r}")
    params: dict[str, str] = {}
    if params_text:
        for piece in params_text.split(","):
            key, _, value = piece.partition("=")
            if not value:
                raise InputError(f"bad strategy parameter {piece!r}")
            if key in params:
                raise InputError(f"repeated parameter {key!r} for strategy {name!r}")
            params[key] = value
    for key in params:
        if key not in _STRATEGY_PARAMS[name]:
            raise InputError(f"unknown parameter {key!r} for strategy {name!r}")
    spec = instance.agent(agent_id)

    def share_value(text: str) -> Fraction:
        if text in ("aps", "mms"):
            return exact_share(text, agent_id)
        return serialize.parse_rational(text)

    if name == "proportional":
        share = share_value(params.get("share", "aps"))
        rho = serialize.parse_rational(params["rho"]) if "rho" in params else None
        return _checked(ProportionalBidder, spec.valuation, spec.entitlement, share, rho)
    if name == "altruistic":
        share = share_value(params.get("share", "mms"))
        return _checked(AltruisticProportionalBidder, spec.valuation, spec.entitlement, share)
    if name == "unit_demand":
        return UnitDemandFullBudgetBidder(spec.valuation)
    if name == "greedy":
        return GreedyMarginalBidder(spec.valuation)
    if name == "random":
        return RandomBidder(_parse_int(params.get("seed", "0"), "random seed"))
    if name == "constant":
        return ConstantBidder(serialize.parse_rational(params.get("amount", "0")))
    return ZeroBidder()  # "zero", the one name left


def _game_config_from_args(args: argparse.Namespace) -> GameConfig:
    rho = serialize.parse_rational(args.rho) if args.rho else None
    tie = _checked(
        TieBreak,
        policy=args.tiebreak,
        seed=args.seed if args.tiebreak == "seeded" else None,
        target=args.target if args.tiebreak == "adversarial" else None,
    )
    return _checked(GameConfig, mode=args.mode, rho=rho, strict_threshold=not args.lenient_threshold, tie=tie)


def _check_tie_target(config: GameConfig, instance: Instance) -> None:
    """A tie-break's target must be an agent of the instance, in ``play``'s
    arguments and in a report alike."""
    if config.tie.target is not None and config.tie.target not in instance.agent_ids:
        raise InputError(f"no agent {config.tie.target!r} in this instance")


def _builtin_report(run: negatives.ScriptedRun) -> tuple[Transcript, dict]:
    """The transcript and extras of a ``play --builtin`` report of ``run``."""
    allocation, transcript = run.execute()
    value = run.instance.valuation(run.agent).value(allocation[run.agent])
    ok = value <= run.expected_value if run.value_is_upper_bound else value == run.expected_value
    return transcript, {
        "builtin": run.name,
        "agent": run.agent,
        "agent_value": value,
        "expected_value": run.expected_value,
        "share": run.share_value,
        "share_kind": run.share_kind,
        "reproduced": ok,
    }


def _builtin_run(args: argparse.Namespace) -> int:
    if args.builtin == "xos-hard":
        run = _checked(negatives.gen_xos_hard, args.agents, args.k)
    else:
        run = _checked(NEGATIVE_KINDS[args.builtin], args.k)
    transcript, extra = _builtin_report(run)
    _write_text(args.output, serialize.dumps(serialize.report_to_dict(run.instance, transcript, extra=extra)))
    return EXIT_OK if extra["reproduced"] else EXIT_FAIL


def _play_entries(instance: Instance, allocation, shares: dict, kind: str, target: Fraction) -> list[dict]:
    """``play``'s guarantee entries: is each bundle worth ``target`` times the agent's share?"""
    report = guarantee_report(instance, allocation, shares, {a: target for a in shares})
    return [
        {
            "agent": e.agent,
            "share": e.share,
            "share_kind": kind,
            "bundle_value": e.bundle_value,
            "target_rho": e.target,
            "ratio": e.ratio,
            "passed": e.passed,
        }
        for e in report.entries
    ]


def cmd_play(args: argparse.Namespace) -> int:
    if args.builtin:
        return _builtin_run(args)
    if not args.instance:
        raise InputError("an instance file (or --builtin) is required")
    instance = _load_instance(args.instance)
    config = _game_config_from_args(args)
    _check_tie_target(config, instance)
    assigned = {}
    for text in args.strategy or ():
        agent_id, _, spec_text = text.partition("=")
        if not spec_text:
            raise InputError(f"bad --strategy {text!r}, expected AGENT=SPEC")
        if agent_id not in instance.agent_ids:
            raise InputError(f"no agent {agent_id!r} in this instance")
        assigned[agent_id] = spec_text

    @functools.cache
    def exact_share(kind: str, agent_id: str) -> Fraction:
        """``_exact_share``'s value, computed at most once per (kind, agent) in this run."""
        return _exact_share(kind, instance, instance.agent(agent_id)).value

    strategies = {}
    for agent_id in instance.agent_ids:
        spec_text = assigned.get(agent_id, args.default_strategy)
        strategies[agent_id] = _parse_strategy_spec(spec_text, instance, agent_id, exact_share)
    allocation, transcript = run_game(instance, strategies, config)

    guarantees = None
    if args.report_shares:
        shares = {a: exact_share(args.report_shares, a) for a in instance.agent_ids}
        target = serialize.parse_rational(args.target_rho) if args.target_rho else Fraction(0)
        guarantees = _play_entries(instance, allocation, shares, args.report_shares, target)
    _write_text(args.output, serialize.dumps(serialize.report_to_dict(instance, transcript, guarantees)))
    return EXIT_FAIL if _unmet(guarantees or []) else EXIT_OK


# ---------------------------------------------------------------- alloc

def _alloc_run(instance: Instance, mode: str, epsilon: Fraction, check_exact: bool, on_iteration=None):
    """The transcript, entries and extras of an ``alloc`` report; with exact
    shares, each entry says if the bundle is worth (1 - epsilon) * rho * share."""
    exact = None
    if check_exact:
        exact = {spec.id: _exact_share(mode, instance, spec).value for spec in instance.agents}
    outcome = _checked(
        unconditional_allocate, instance, epsilon, mode=mode, exact_shares=exact, on_iteration=on_iteration
    )
    entries = []
    for spec in instance.agents:
        rho = guarantee_rho(mode, spec.entitlement)
        value = spec.valuation.value(outcome.allocation[spec.id])
        entry = {
            "agent": spec.id,
            "guess": outcome.guesses[spec.id],
            "bundle_value": value,
            "rho": rho,
        }
        if exact is not None:
            entry["share"] = exact[spec.id]
            entry["passed"] = value >= (1 - epsilon) * rho * exact[spec.id]
        entries.append(entry)
    extra = {
        "mode": mode,
        "epsilon": epsilon,
        "conditional_calls": outcome.calls,
    }
    return outcome.transcript, entries, extra


def cmd_alloc(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    epsilon = serialize.parse_rational(args.epsilon) if args.epsilon else default_epsilon(args.mode, instance)
    transcript, guarantees, extra = _alloc_run(instance, args.mode, epsilon, args.check_exact)
    doc = serialize.report_to_dict(instance, transcript, guarantees, extra)
    _write_text(args.output, serialize.dumps(doc))
    return EXIT_CONTRACT if _unmet(guarantees) else EXIT_OK


# ---------------------------------------------------------------- verify

class _Rejected(Exception):
    """Why a report does not verify (exit 1): a field its rebuild differs in, or a recorded failure."""


def _share_kind(doc: dict, field: str) -> str:
    """``doc[field]``, which names a share as ``_exact_share`` takes it."""
    if doc[field] not in ("aps", "mms"):
        raise serialize.ParseError(f"{field!r} must be \"aps\" or \"mms\", not {doc[field]!r}")
    return doc[field]


def _compare(recorded: dict, rebuilt: dict, whose: str = "") -> None:
    """Reject at the first field of ``rebuilt`` whose recorded value differs ("2/2" equals 1)."""
    for field, want in rebuilt.items():
        if want is None or isinstance(want, Fraction):
            got = recorded[field]
            got = None if got is None else serialize.parse_rational(got)
        else:
            got = serialize._typed(recorded, field, type(want))
        if got != want:
            what = "guarantee flag" if field == "passed" else "recorded " + field.replace("_", " ")
            raise _Rejected(f"{what}{whose} is wrong")


def _rebuild_builtin(doc: dict, instance: Instance, transcript, recorded: list[dict]) -> list[dict]:
    """No entries; the named run, built again, must give the report's instance, transcript and extras."""
    try:
        run = negatives.named_run(serialize._typed(doc, "builtin", str), len(instance.agents))
    except ValueError as exc:
        raise _Rejected(str(exc)) from exc
    if serialize.instance_to_dict(run.instance) != serialize.instance_to_dict(instance):
        raise _Rejected("recorded instance is wrong")
    rerun, extra = _builtin_report(run)
    if rerun != transcript:
        raise _Rejected("recorded transcript is wrong")
    if not serialize._typed(doc, "reproduced", bool):
        raise _Rejected(f"builtin run {run.name} not reproduced")
    _compare(doc, extra)
    return []


def _rebuild_play(doc: dict, instance: Instance, transcript, recorded: list[dict]) -> list[dict]:
    """Each ``play`` entry, rebuilt at its own share kind and target.

    ``play`` writes the entries only with ``--report-shares``, and then one
    per agent in id order, so a list present must name exactly those agents.
    """
    if "guarantees" in doc and [entry["agent"] for entry in recorded] != sorted(instance.agent_ids):
        raise _Rejected("recorded guarantees must hold one entry per agent, in id order")
    rebuilt = []
    for entry in recorded:
        kind = _share_kind(entry, "share_kind")
        spec = instance.agent(entry["agent"])
        shares = {spec.id: _exact_share(kind, instance, spec).value}
        target = serialize.parse_rational(entry["target_rho"])
        rebuilt += _play_entries(instance, transcript.allocation, shares, kind, target)
    return rebuilt


def _rebuild_alloc(doc: dict, instance: Instance, transcript, recorded: list[dict]) -> list[dict]:
    """``alloc`` re-run at the recorded mode and epsilon, stopped one game past the recorded count."""
    mode, epsilon = _share_kind(doc, "mode"), serialize.parse_rational(doc["epsilon"])
    calls = serialize._typed(doc, "conditional_calls", int)

    def stop_past_record(call: int, *_) -> None:
        if call > calls:
            raise _Rejected("recorded conditional calls is wrong")

    check_exact = any("share" in entry for entry in recorded)  # alloc --check-exact
    rerun, rebuilt, extra = _alloc_run(instance, mode, epsilon, check_exact, stop_past_record)
    if rerun != transcript:
        raise _Rejected("recorded transcript is wrong")
    _compare(doc, extra)
    return rebuilt


def cmd_verify(args: argparse.Namespace) -> int:
    doc = serialize.loads(_read_text(args.report))
    instance, transcript, recorded = serialize.report_from_dict(doc)
    _check_tie_target(transcript.config, instance)
    try:
        check_transcript(transcript, instance)
    except RuleViolation as exc:
        sys.stderr.write(f"transcript does not verify: {exc}\n")
        return EXIT_FAIL
    rebuild = _rebuild_builtin if "builtin" in doc else _rebuild_alloc if "mode" in doc else _rebuild_play
    try:
        rebuilt = rebuild(doc, instance, transcript, recorded)
        for entry, want in zip(recorded, rebuilt):
            _compare(entry, want, f" for {want['agent']}")
            extra = sorted(entry.keys() - want.keys())
            if extra:
                raise _Rejected(f"recorded {extra[0]} for {want['agent']} is not in the rebuilt entry")
        if len(recorded) != len(rebuilt):
            raise _Rejected(f"recorded guarantees cover {len(recorded)} agents, not {len(rebuilt)}")
        unmet = _unmet(rebuilt)
        if unmet:
            raise _Rejected(f"guarantee for {unmet[0]} not met")
    except (_Rejected, ContractViolation) as exc:  # the re-run of alloc may break its contract
        sys.stderr.write(f"{exc}\n")
        return EXIT_FAIL
    except (KeyError, TypeError, serialize.ParseError) as exc:
        raise InputError(f"bad guarantee entry: {exc}") from exc
    sys.stdout.write("report verified\n")
    return EXIT_OK


# ---------------------------------------------------------------- lpcert

def cmd_lpcert(args: argparse.Namespace) -> int:
    n = None if args.n == "inf" else _parse_int(args.n, "--n")
    system = _checked(build_theorem_system, serialize.parse_rational(args.z), n)
    outcome = check_feasible(system)
    doc: dict = {
        "format": serialize.FORMAT_LPCERT,
        "version": serialize.VERSION,
        "z": system.z,
        "n": args.n,
        "rows": system.rows,
        "rhs": system.rhs,
        "strict": system.strict,
        "feasible": outcome.feasible,
    }
    if outcome.feasible:
        doc["witness"] = outcome.witness
    else:
        coeffs, constant = combine_rows(system, outcome.certificate)
        doc["certificate"] = outcome.certificate
        doc["combined_coefficients"] = coeffs
        doc["combined_constant"] = constant
    _write_text(args.output, serialize.dumps(doc))
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bidfair")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write an instance file")
    p_gen.add_argument("kind", choices=["random", "xos-hard"] + sorted(NEGATIVE_KINDS))
    p_gen.add_argument("--k", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--agents", type=int, default=3)
    p_gen.add_argument("--items", type=int, default=6)
    p_gen.add_argument("--universe", type=int, default=6)
    p_gen.add_argument("--entitlements", choices=["equal", "random"], default="equal")
    p_gen.add_argument("-o", "--output", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_shares = sub.add_parser("shares", help="exact share values with witnesses")
    p_shares.add_argument("instance")
    p_shares.add_argument("--agent")
    p_shares.add_argument("--share", choices=["aps", "mms", "both"], default="both")
    p_shares.add_argument("-o", "--output", default="-")
    p_shares.set_defaults(func=cmd_shares)

    p_play = sub.add_parser("play", help="run one bidding game")
    p_play.add_argument("instance", nargs="?")
    p_play.add_argument("--builtin", choices=["xos-hard"] + sorted(NEGATIVE_KINDS))
    p_play.add_argument("--k", type=int, default=1)
    p_play.add_argument("--agents", type=int, default=16, help="agent count for --builtin xos-hard")
    p_play.add_argument("--mode", choices=["standard", "altruistic", "multi_pick"], default="standard")
    p_play.add_argument("--rho", help="spend fraction for altruistic mode, as p/q")
    p_play.add_argument("--lenient-threshold", action="store_true",
                        help="deactivate on reaching (not passing) the spend cap")
    p_play.add_argument("--tiebreak", choices=["lexicographic", "seeded", "adversarial"],
                        default="lexicographic")
    p_play.add_argument("--seed", type=int, default=0)
    p_play.add_argument("--target", help="victim agent for adversarial tie-breaking")
    p_play.add_argument("--strategy", action="append", metavar="AGENT=SPEC")
    p_play.add_argument("--default-strategy", default="greedy")
    p_play.add_argument("--report-shares", choices=["aps", "mms"])
    p_play.add_argument("--target-rho", help="pass threshold as a fraction of the share")
    p_play.add_argument("-o", "--output", default="-")
    p_play.set_defaults(func=cmd_play)

    p_alloc = sub.add_parser("alloc", help="guess-refinement allocation")
    p_alloc.add_argument("instance")
    p_alloc.add_argument("--epsilon", help="guess decrement rate as p/q (default mode-specific)")
    p_alloc.add_argument("--mode", choices=["aps", "mms"], default="aps")
    p_alloc.add_argument("--check-exact", action="store_true",
                         help="verify the outcome against exact shares (size-guarded)")
    p_alloc.add_argument("-o", "--output", default="-")
    p_alloc.set_defaults(func=cmd_alloc)

    p_verify = sub.add_parser("verify", help="re-check a run report")
    p_verify.add_argument("report")
    p_verify.set_defaults(func=cmd_verify)

    lpcert_what = (
        "decide the guarantee-bound inequality system; infeasibility at (z, n) "
        "bounds a game of n agents whose spend cap is 1/z"
    )
    p_lp = sub.add_parser("lpcert", help=lpcert_what, description=lpcert_what)
    p_lp.add_argument("--z", required=True, help="substituted target, as p/q; the game it speaks of caps spend at 1/z")
    p_lp.add_argument("--n", default="inf", help="agent count, or 'inf'")
    p_lp.add_argument("-o", "--output", default="-")
    p_lp.set_defaults(func=cmd_lpcert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, serialize.ParseError, SizeGuardExceeded, SizeGuardSettingError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except ContractViolation as exc:  # from alloc; verify reports its own as a failure
        sys.stderr.write(f"contract violation: {exc}\n")
        return EXIT_CONTRACT
    except Exception as exc:  # anything else is a bug, never a guarantee failure
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {exc}\n")
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
