"""The benchmark's workloads: seeded inputs, one measured pass each, exact checks.

Inputs come from ``generate(seed, size)``, and a run measures the same inputs
on every pass.  Every pass builds them afresh (so oracle caches start cold),
runs the workload closed loop (one caller, each step issued after the last
returns), times each step with ``PassResult.lap`` and checks every output
exactly.  Calls go through module attributes (``shares.aps_exact``, not an
imported name) so that the tracer's patches apply.

* ``certify``  - exact APS and MMS with witness checks for every agent of the
  relabeled corpus, then the adversary profiles of the standard and spend-capped
  games.  An op is one agent's shares.
* ``refine``   - ``unconditional_allocate`` on two mid-size instances, one per
  game mode.  An op is one conditional game.
* ``xos_hard`` - play, verify, serialize, re-read, re-verify and diagnose the
  cross-column XOS construction.  An op is one game round.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from bidfair import analysis, engine, model, negatives, serialize, shares, strategies, valuations, wrapper

# Every 30 consecutive corpus indices hold each (n, m, entitlements)
# combination of the spec exactly once (30 = 2 * 3 * 5); certify takes two
# such periods, 180 agents, so its 90th percentile has 18 samples beyond it.
CERTIFY_INSTANCES = 60
CORPUS_SEED_BASE = 10_000
PROFILES = 20
MMS_RHO = Fraction(10, 27)


def reference_seconds() -> float:
    """Time a fixed computation of the kind bidfair spends its time on:
    rational arithmetic, dict and frozenset hashing, in pure Python, 1-2 ms
    on a 2-vCPU Xeon VM.  It is not part of the program, so no change to
    bidfair moves it; it moves only with the speed of the host."""
    start = perf_counter()
    total, counts, seen = Fraction(0), {}, set()
    for i in range(1, 200):
        total += Fraction(1, i) * Fraction(i % 7 + 1, 3)
        counts[i % 50] = counts.get(i % 50, 0) + i
        seen.add(frozenset((i % 13, i % 17)))
    return perf_counter() - start


@dataclass
class PassResult:
    reference: bool = True  # time the reference computation around every step
    ops: int = 0  # units behind ops_per_kref
    steps: list[float] = field(default_factory=list)  # seconds of every step, in pass order
    is_op: list[bool] = field(default_factory=list)  # which steps are ops
    refs: list[float] = field(default_factory=list)  # reference seconds before step 0 and after each step
    attempted: int = 0
    failed: int = 0
    notes: dict[str, int] = field(default_factory=dict)
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def start(self) -> float:
        """Open the pass's first step."""
        if self.reference:
            self.refs.append(reference_seconds())
        return perf_counter()

    def lap(self, since: float, op: bool = False) -> float:
        """Close the step that began at ``since`` (an op or another step of
        the pass) and open the next.  Laps tile the pass, leaving out only the
        reference computations between steps."""
        now = perf_counter()
        self.steps.append(now - since)
        self.is_op.append(op)
        if self.reference:
            self.refs.append(reference_seconds())
            now = perf_counter()
        return now

    @property
    def latencies(self) -> list[float]:
        return [t for t, op in zip(self.steps, self.is_op) if op]

    def costs(self) -> list[float]:
        """Every step's time in references: divided by the mean of the
        reference times measured just before and just after it."""
        return [t / ((a + b) / 2) for t, a, b in zip(self.steps, self.refs, self.refs[1:])]

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def record(self, text: str) -> None:
        """Feed canonical exact output into the pass digest."""
        self._digest.update(text.encode())
        self._digest.update(b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


# ---------------------------------------------------------------- certify


def corpus_spec(idx: int) -> tuple[int, int, str]:
    """Instance shape of corpus index idx: the acceptance suite's spec."""
    return (2, 3, 4)[idx % 3], 4 + idx % 5, "equal" if idx % 2 == 0 else "random"


def _relabel(inst: model.Instance, rng: random.Random) -> model.Instance:
    """The same instance with its items renamed by a random permutation and
    its agents reordered: every share stays the same, only the order in which
    the oracles and the LP meet bundles changes."""
    names = list(inst.items)
    rng.shuffle(names)
    rename = dict(zip(inst.items, names))
    agents = [
        model.AgentSpec(
            a.id,
            a.entitlement,
            valuations.WeightedCoverageValuation(
                a.valuation.element_weights, {rename[e]: us for e, us in a.valuation.covers.items()}
            ),
        )
        for a in inst.agents
    ]
    rng.shuffle(agents)
    return model.Instance(items=inst.items, agents=tuple(agents))


def gen_certify(seed: int, instances: int):
    """The corpus's first instances, each relabeled by the seed.  Fresh
    corpus slices would differ in cost by about a fifth between seeds (one
    agent's shares take 2 ms to 400 ms); relabelings of one slice differ by
    a few percent, so a run measures the program rather than the draw."""
    rng = random.Random(f"certify-{seed}")
    corpus = []
    for idx in range(instances):
        n, m, kind = corpus_spec(idx)
        inst = negatives.gen_random_submodular(
            CORPUS_SEED_BASE + idx, n, m, universe=5 + idx % 3, entitlements=kind
        )
        corpus.append((idx, _relabel(inst, rng)))
    return corpus


def _tie_for(idx, profile, p_id, inst):
    style = profile % 4
    if style == 0:
        return engine.TieBreak(policy="lexicographic")
    if style == 1:
        return engine.TieBreak(policy="adversarial", target=p_id)
    if style == 2:
        return engine.TieBreak(policy="seeded", seed=9_000 + 31 * idx + profile)
    rng = random.Random(5_000 + 17 * idx + profile)
    prefs = []
    for _ in inst.items:
        order = list(inst.agent_ids)
        rng.shuffle(order)
        prefs.append(tuple(order))
    return engine.TieBreak(policy="scripted", prefs=tuple(prefs))


def _opponents(idx, profile, p_id, inst):
    """Fresh adversaries for every agent but p, as in the acceptance suite."""
    rng = random.Random(1_000_000 + 997 * idx + profile)
    found = {}
    for pos, spec in enumerate(inst.agents):
        if spec.id == p_id:
            continue
        kind = (pos + profile) % 4
        if kind == 0:
            found[spec.id] = strategies.RandomBidder(rng.randint(0, 10**6))
        elif kind == 1:
            found[spec.id] = strategies.GreedyMarginalBidder(spec.valuation)
        elif kind == 2:
            found[spec.id] = strategies.ScriptedBidder(
                [Fraction(rng.randint(0, 16), 16) for _ in inst.items]
            )
        else:
            found[spec.id] = strategies.ConstantBidder(
                Fraction(rng.randint(0, 8), 8) * spec.entitlement
            )
    return found


def _play(idx, profile, inst, p_id, bidder, config, target, share, out):
    players = _opponents(idx, profile, p_id, inst)
    players[p_id] = bidder
    allocation, _ = engine.run_game(inst, players, config)
    report = analysis.guarantee_report(inst, allocation, {p_id: share}, {p_id: target})
    out.check(report.all_passed)
    out.record(f"game {idx} {profile} {config.mode} {p_id} {report.entries[0].bundle_value}")


def run_certify(corpus, reference: bool = True) -> PassResult:
    out = PassResult(reference=reference)
    clock = out.start()
    for idx, inst in corpus:
        n = len(inst.agents)
        equal = inst.has_equal_entitlements()
        aps, mms = {}, {}
        for spec in inst.agents:
            a = shares.aps_exact(spec.valuation, spec.entitlement, inst.items)
            s = shares.mms_exact(spec.valuation, n, inst.items)
            clock = out.lap(clock, op=True)
            out.ops += 1
            ok = shares.verify_fractional_partition(a.witness, spec.valuation, spec.entitlement, a.value)
            ok = ok and shares.verify_mms_partition(s.witness, spec.valuation, inst.items, s.value)
            # APS >= MMS is a theorem for equal entitlements only
            out.check(ok and (not equal or a.value >= s.value))
            out.record(f"shares {idx} {spec.id} {a.value} {s.value}")
            aps[spec.id], mms[spec.id] = a.value, s.value
            clock = out.lap(clock)
        for profile in range(PROFILES):
            p_id = inst.agent_ids[profile % n]
            spec = inst.agent(p_id)
            rho = strategies.default_rho(spec.entitlement)
            standard = engine.GameConfig(mode="standard", tie=_tie_for(idx, profile, p_id, inst))
            bidder = strategies.ProportionalBidder(spec.valuation, spec.entitlement, aps[p_id])
            _play(idx, profile, inst, p_id, bidder, standard, rho, aps[p_id], out)
            if equal:
                capped = engine.GameConfig(
                    mode="altruistic", rho=MMS_RHO, tie=_tie_for(idx, profile, p_id, inst)
                )
                bidder = strategies.AltruisticProportionalBidder(spec.valuation, spec.entitlement, mms[p_id])
                _play(idx, profile, inst, p_id, bidder, capped, MMS_RHO, mms[p_id], out)
        clock = out.lap(clock)
    out.notes["agents"] = out.ops
    out.notes["games"] = out.attempted - out.ops
    return out


# ---------------------------------------------------------------- refine


def _additive_instance(rng: random.Random, n: int, m: int) -> model.Instance:
    """Random entitlements and additive values: the standard (APS) game."""
    items = [f"e{j:02d}" for j in range(m)]
    weights = [rng.randint(1, 6) for _ in range(n)]
    agents = tuple(
        model.AgentSpec(
            f"a{i}",
            Fraction(weights[i], sum(weights)),
            valuations.AdditiveValuation({e: rng.randint(1, 20) for e in items}),
        )
        for i in range(n)
    )
    return model.Instance(items=tuple(items), agents=agents)


def _coverage_instance(rng: random.Random, n: int, m: int) -> model.Instance:
    """Equal entitlements and coverage over 3m elements, 1-4 per item: the
    spend-capped (MMS) game.  A small universe would saturate after one game."""
    items = [f"e{j:02d}" for j in range(m)]
    elements = [f"u{t:03d}" for t in range(3 * m)]
    agents = []
    for i in range(n):
        weights = {u: rng.randint(1, 8) for u in elements}
        covers = {e: rng.sample(elements, rng.randint(1, 4)) for e in items}
        agents.append(
            model.AgentSpec(f"a{i}", Fraction(1, n), valuations.WeightedCoverageValuation(weights, covers))
        )
    return model.Instance(items=tuple(items), agents=tuple(agents))


def gen_refine(seed: int, sizes):
    (aps_n, aps_m), (mms_n, mms_m) = sizes
    return [
        ("aps", _additive_instance(random.Random(f"refine-aps-{seed}"), aps_n, aps_m)),
        ("mms", _coverage_instance(random.Random(f"refine-mms-{seed}"), mms_n, mms_m)),
    ]


def run_refine(instances, reference: bool = True) -> PassResult:
    out = PassResult(reference=reference)
    games = 0
    clock = [out.start()]

    def game_done(*_):
        clock[0] = out.lap(clock[0], op=True)

    for mode, inst in instances:
        epsilon = wrapper.default_epsilon(mode, inst)
        try:
            outcome = wrapper.unconditional_allocate(inst, epsilon, mode=mode, on_iteration=game_done)
        except wrapper.ContractViolation as exc:
            out.check(False)
            out.record(f"{mode} contract violation: {exc}")
            continue
        games += outcome.calls
        budget = wrapper.call_budget(len(inst.agents), epsilon, wrapper.value_spread_bound(inst))
        held = [i for i in inst.agent_ids if i not in outcome.frozen]
        report = analysis.guarantee_report(
            inst,
            outcome.allocation,
            {i: outcome.guesses[i] for i in held},
            {i: wrapper.guarantee_rho(mode, inst.entitlement(i)) for i in held},
        )
        guarantees = [
            {
                "agent": e.agent,
                "guess": serialize.rational_str(e.share),
                "value": serialize.rational_str(e.bundle_value),
                "rho": serialize.rational_str(e.target),
                "passed": e.passed,
            }
            for e in report.entries
        ]
        text = serialize.dumps(
            serialize.report_to_dict(
                inst,
                outcome.transcript,
                guarantees,
                {"mode": mode, "calls": outcome.calls, "frozen": list(outcome.frozen)},
            )
        )
        out.check(
            engine.verify_transcript(outcome.transcript, inst)
            and report.all_passed
            and outcome.calls <= budget
        )
        out.record(text)
        clock[0] = out.lap(clock[0])
    out.ops = games
    out.notes["allocations"] = len(instances)
    out.notes["games"] = games
    return out


# ---------------------------------------------------------------- xos_hard


def gen_xos_hard(seed: int, size):
    # The construction is fixed by (n, k): the seed selects nothing here.
    n, k = size
    return negatives.gen_xos_hard(n, k)


def run_xos_hard(run, reference: bool = True) -> PassResult:
    out = PassResult(reference=reference)
    inst, p_id = run.instance, run.agent
    players = {a: make() for a, make in run.strategy_factories.items()}
    victim = players[p_id]
    clock = out.start()
    rounds_begun = False

    def clocked_bid(state):
        # p bids first in every round it is active: each call opens a round
        nonlocal clock, rounds_begun
        clock = out.lap(clock, op=rounds_begun)
        rounds_begun = True
        return type(victim).bid(victim, state)

    victim.bid = clocked_bid
    allocation, transcript = engine.run_game(inst, players, run.config)
    clock = out.lap(clock, op=True)
    out.ops = len(transcript.rounds)
    value = inst.valuation(p_id).value(allocation[p_id])
    out.check(value <= run.expected_value)
    out.check(engine.verify_transcript(transcript, inst))
    clock = out.lap(clock)

    text = serialize.dumps(serialize.report_to_dict(inst, transcript))
    clock = out.lap(clock)
    reread, reread_transcript, _ = serialize.report_from_dict(serialize.loads(text))
    out.check(reread.items == inst.items and reread_transcript.rounds == transcript.rounds)
    out.check(engine.verify_transcript(reread_transcript, reread))
    clock = out.lap(clock)

    columns = inst.valuation(p_id).clauses
    witness = model.FractionalPartition(
        tuple((frozenset(c), Fraction(1, len(columns))) for c in columns)
    )
    diag = analysis.lower_bound_diagnostics(transcript, inst, p_id, witness)
    out.check(diag.certified_total == run.share_value)
    out.record(text)
    out.record(
        f"{value} {diag.settle_round} {diag.certified_total} {diag.surviving_total} "
        f"{diag.held_value} {diag.removed_marginals}"
    )
    out.lap(clock)
    out.notes["rounds"] = out.ops
    out.notes["report_bytes"] = len(text.encode())
    return out


@dataclass(frozen=True)
class Workload:
    generate: object
    run: object
    sizes: dict  # "default" and "smoke" arguments for generate
    op: str  # what one op is, for the printed table


WORKLOADS = {
    "certify": Workload(gen_certify, run_certify, {"default": CERTIFY_INSTANCES, "smoke": 2}, "share"),
    "refine": Workload(
        gen_refine, run_refine, {"default": ((6, 24), (8, 32)), "smoke": ((3, 6), (3, 6))}, "game"
    ),
    "xos_hard": Workload(gen_xos_hard, run_xos_hard, {"default": (128, 4), "smoke": (16, 2)}, "round"),
}
