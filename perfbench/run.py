"""bidfair benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload certify --seed 1 --seconds 35 --trace 1

Run from the root of a checkout; the program is imported from ``src/``.  The
untraced run (``--trace 0``) reports the end-to-end metrics.  The traced run
first measures untraced passes for half the time, then installs the layer
tracer and measures traced passes for the other half; it reports the
per-layer metrics, the tracing overhead and the span coverage.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything before it
is for people.  Each run is also recorded, with its environment, under
``.bench_out/`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
MIN_PASSES = 3
SETUP_REPEATS = 15

STRATEGY_CLASSES = (
    "AltruisticProportionalBidder",
    "ConstantBidder",
    "GreedyMarginalBidder",
    "ProportionalBidder",
    "RandomBidder",
    "ScriptedBidder",
    "XosSniperBidder",
)

# metric name -> unit, in BENCHMARK.json's order
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_kref": "1/kref",
    "op_ref_p50": "ref",
    "op_ref_p90": "ref",
}
PER_LAYER = {
    "valuations.queries": "count",
    "valuations.value_s": "s",
    "shares.value_table_calls": "count",
    "shares.value_table_s": "s",
    "shares.aps_calls": "count",
    "shares.aps_self_s": "s",
    "shares.mms_calls": "count",
    "shares.mms_self_s": "s",
    "shares.verify_s": "s",
    "simplex.solves": "count",
    "simplex.columns": "count",
    "simplex.rows": "count",
    "simplex.solve_s": "s",
    "simplex.infeasible_frac": "ratio",
    "engine.games": "count",
    "engine.rounds": "count",
    "engine.run_game_self_s": "s",
    "engine.verify_calls": "count",
    "engine.verify_s": "s",
    "engine.state_after_calls": "count",
    "engine.state_after_s": "s",
    "engine.clamped_bids": "count",
    **{
        f"strategies.{cls}.{method}{suffix}": unit
        for cls in STRATEGY_CLASSES
        for method in ("bid", "pick")
        for suffix, unit in (("_calls", "count"), ("_s", "s"))
    },
    "wrapper.conditional_calls": "count",
    "wrapper.allocate_self_s": "s",
    "analysis.diagnostics_calls": "count",
    "analysis.diagnostics_self_s": "s",
    "analysis.guarantee_s": "s",
    "serialize.write_s": "s",
    "serialize.write_bytes": "bytes",
    "serialize.read_s": "s",
    "serialize.read_bytes": "bytes",
    "negatives.gen_s": "s",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
    "trace.untraced_s": "s",
}


def environment() -> dict:
    try:
        import gmpy2  # noqa: F401

        backend = "gmpy2.mpq"
    except ImportError:
        backend = "fractions.Fraction"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "backend": backend}


@dataclass
class Pass:
    gen_s: float
    run_s: float
    result: object  # workloads.PassResult
    gen_layers: tuple = ({}, {})  # tracer (self_ns, counts) of input generation
    run_layers: tuple = ({}, {})  # tracer (self_ns, counts) of the measured pass


def measure(workload, seed, size, seconds, min_passes, tracer=None, between=None, reference=False) -> list[Pass]:
    """Measured passes for at least ``seconds``.  Every pass builds the seed's
    inputs afresh, so oracle caches start cold and every pass does the same
    work.  ``reference`` times the reference computation around every step;
    ``between`` runs after each pass, outside the pass times."""
    passes: list[Pass] = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        gc.collect()
        if tracer:
            tracer.reset()
        t0 = perf_counter()
        inputs = workload.generate(seed, size)
        t1 = perf_counter()
        gen_layers = tracer.snapshot() if tracer else ({}, {})
        if tracer:
            tracer.reset()
        t2 = perf_counter()
        result = workload.run(inputs, reference=reference)
        t3 = perf_counter()
        run_layers = tracer.snapshot() if tracer else ({}, {})
        passes.append(Pass(t1 - t0, t3 - t2, result, gen_layers, run_layers))
        if between:
            between()
    return passes


SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
workload = workloads.WORKLOADS[{name!r}]
workload.generate({seed}, workload.sizes[{size!r}])
print(time.perf_counter() - start)
"""


def setup_sample(name: str, seed: int, size: str, src: Path) -> float:
    """One fresh interpreter's time to import bidfair and generate the seed's
    inputs: the set-up a user of the library pays once."""
    code = SETUP_CODE.format(src=str(src), bench=str(BENCH_DIR), name=name, seed=seed, size=size)
    child = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    return float(child.stdout)


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def same_steps(passes: list[Pass]) -> bool:
    return len({tuple(p.result.is_op) for p in passes}) == 1


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    """Costs in references: each step's time divided by the reference
    computation timed just before and after it, median over the passes (which
    all do the same work).  The shared host this runs on slows everything by
    up to half for seconds at a time; the reference slows with it, so the
    ratio holds where times do not.  Passes that took different steps are a
    failed check; then only the first counts."""
    if not same_steps(passes):
        passes = passes[:1]
    first = passes[0].result
    cost = [statistics.median(xs) for xs in zip(*(p.result.costs() for p in passes))]
    ops = [c for c, op in zip(cost, first.is_op) if op]
    return {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_kref": 1000 * first.ops / sum(cost),
        "op_ref_p50": percentile(ops, 50),
        "op_ref_p90": percentile(ops, 90),
    }


def per_layer(traced: list[Pass], untraced: list[Pass]) -> tuple[dict[str, float], bool]:
    """Per-layer metrics of the traced passes: counts of the first pass (they
    must repeat on every pass) and median self times."""
    counts = traced[0].run_layers[1]
    steady = all(p.run_layers[1] == counts for p in traced)

    def seconds(name: str, layers="run_layers") -> float:
        return statistics.median(getattr(p, layers)[0].get(name, 0) for p in traced) / 1e9

    def count(name: str) -> int:
        return counts.get(name, 0)

    solves = count("simplex.solve")
    out = {
        "valuations.queries": count("valuations.value"),
        "valuations.value_s": seconds("valuations.value"),
        "shares.value_table_calls": count("shares.value_table"),
        "shares.value_table_s": seconds("shares.value_table"),
        "shares.aps_calls": count("shares.aps"),
        "shares.aps_self_s": seconds("shares.aps"),
        "shares.mms_calls": count("shares.mms"),
        "shares.mms_self_s": seconds("shares.mms"),
        "shares.verify_s": seconds("shares.verify"),
        "simplex.solves": solves,
        "simplex.columns": count("simplex.columns"),
        "simplex.rows": count("simplex.rows"),
        "simplex.solve_s": seconds("simplex.solve"),
        "simplex.infeasible_frac": count("simplex.infeasible") / solves if solves else 0.0,
        "engine.games": count("engine.run_game"),
        "engine.rounds": count("engine.rounds"),
        "engine.run_game_self_s": seconds("engine.run_game"),
        "engine.verify_calls": count("engine.verify"),
        "engine.verify_s": seconds("engine.verify"),
        "engine.state_after_calls": count("engine.state_after"),
        "engine.state_after_s": seconds("engine.state_after"),
        "engine.clamped_bids": count("engine.clamped_bids"),
    }
    for cls in STRATEGY_CLASSES:
        for method in ("bid", "pick"):
            key = f"strategies.{cls}.{method}"
            out[f"{key}_calls"] = count(key)
            out[f"{key}_s"] = seconds(key)
    traced_s = statistics.median(p.run_s for p in traced)
    untraced_s = statistics.median(p.run_s for p in untraced)
    covered = [sum(p.run_layers[0].values()) / 1e9 for p in traced]
    out.update(
        {
            "wrapper.conditional_calls": count("wrapper.conditional"),
            "wrapper.allocate_self_s": seconds("wrapper.allocate"),
            "analysis.diagnostics_calls": count("analysis.diagnostics"),
            "analysis.diagnostics_self_s": seconds("analysis.diagnostics"),
            "analysis.guarantee_s": seconds("analysis.guarantee"),
            "serialize.write_s": seconds("serialize.write"),
            "serialize.write_bytes": count("serialize.write_bytes"),
            "serialize.read_s": seconds("serialize.read"),
            "serialize.read_bytes": count("serialize.read_bytes"),
            "negatives.gen_s": seconds("negatives.gen", "gen_layers"),
            "trace.run_s": traced_s,
            "trace.untraced_run_s": untraced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.coverage": statistics.median(c / p.run_s for c, p in zip(covered, traced)),
            "trace.untraced_s": statistics.median(p.run_s - c for c, p in zip(covered, traced)),
        }
    )
    return out, steady


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(BENCH_DIR / "digests.json") as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("certify", "refine", "xos_hard"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "smoke"), default="default")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out", help="where run records go")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "bidfair" / "__init__.py").is_file():
        print(f"error: no bidfair package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports every bidfair module it drives

    workload = workloads.WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    t0 = perf_counter()
    workload.run(workload.generate(args.seed, workload.sizes["smoke"]))
    warmup_s = perf_counter() - t0

    if args.trace:
        import tracer as tracer_mod

        # both halves run the same inputs, so the overhead compares like with like
        untraced = measure(workload, args.seed, size, args.seconds / 2, 1)
        tracer = tracer_mod.Tracer()
        tracer.install()
        try:
            passes = measure(workload, args.seed, size, args.seconds / 2, 2, tracer)
        finally:
            tracer.uninstall()
        metrics, steady = per_layer(passes, untraced)
        units = PER_LAYER
        passes_all = untraced + passes
    else:
        # set-up samples are spread over the run, one after each pass
        setup = []

        def sample_setup():
            setup.append(setup_sample(args.workload, args.seed, args.size, src))

        passes = passes_all = measure(
            workload, args.seed, size, args.seconds, MIN_PASSES, between=sample_setup, reference=True
        )
        while len(setup) < SETUP_REPEATS:
            sample_setup()
        metrics = end_to_end(passes, setup)
        steady = same_steps(passes)
        units = END_TO_END

    attempted = sum(p.result.attempted for p in passes_all)
    failed = sum(p.result.failed for p in passes_all)
    digest = passes_all[0].result.digest
    # every pass ran the same inputs, so its outputs, steps and counts must repeat
    attempted += 1
    failed += not (steady and all(p.result.digest == digest for p in passes_all))
    expected = recorded_digest(args.workload, args.seed) if args.size == "default" else None
    if expected is not None:
        attempted += 1
        failed += digest != expected

    env = environment()
    first = passes_all[0].result
    total_s = sum(p.run_s for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"passes {len(passes)}  measured {total_s:.4f} s  warm-up {warmup_s:.4f} s  first pass {json.dumps(first.notes)}")
    print(f"digest of the outputs {digest}  recorded {expected or 'none'}")
    print(f"fail_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} checks)")
    op = workload.op
    aliases = {"ops_per_kref": f"{op}s_per_kref", "op_ref_p50": f"{op}_ref_p50", "op_ref_p90": f"{op}_ref_p90"}
    if not args.trace:
        refs = [r for p in passes for r in p.result.refs]
        ops = first.ops
        print(f"op = one {op}; {len(first.latencies)} ops a pass, each the median of {len(passes)} passes")
        print(f"1 ref = the reference computation's time at the moment: median {1000 * statistics.median(refs):.4f} ms here")
        wall = statistics.median(p.run_s - sum(p.result.refs) for p in passes)
        allocs = first.notes.get("allocations", 0)
        print(f"wall clock of the median pass, not steady on a shared host: run_s {wall:.6g} s, "
              f"{op}s_per_s {ops / wall:.6g} 1/s" + (f", allocs_per_s {allocs / wall:.6g} 1/s" if allocs else ""))
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"{name:44s} {shown} {units[name]}{alias}")
    print("wait times: none; nothing in bidfair waits on a queue, a lock or another process")

    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    with open(args.out / f"{stem}.json", "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "size": args.size, "env": env,
                   "digest": digest, "result": record}, f, indent=1, sort_keys=True)
    if args.trace:
        tracer.write_spans(args.out / f"{stem}.spans.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
