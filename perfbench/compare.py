"""Compare two sets of benchmark run records, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``perfbench/run.py`` writes (``--out``,
``.bench_out/`` by default), one per workload, seed and trace mode.  For every
workload and metric the script prints the base and new medians with their
quartiles and the change as a share of the base median.  An end-to-end metric
that got worse by more than its bound in BENCHMARK.json is marked WORSE.

Runs made with different rational backends (gmpy2.mpq against the Fraction
fallback) are not comparable, so the script refuses them.  Exit codes: 0 no
metric beyond its bound, 1 some metric beyond its bound, 2 refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> tuple[dict, set[str]]:
    """{(workload, trace): {metric: [values]}} and the backends seen."""
    values: dict = defaultdict(lambda: defaultdict(list))
    backends = set()
    for path in sorted(directory.glob("*-default-seed*-trace*.json")):
        record = json.loads(path.read_text())
        backends.add(record["env"]["backend"])
        trace = "trace1" if path.stem.endswith("trace1") else "trace0"
        for name, metric in record["result"]["metrics"].items():
            values[(record["workload"], trace)][name].append(metric["value"])
    return values, backends


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_backends = load(Path(argv[0]))
    new, new_backends = load(Path(argv[1]))
    backends = base_backends | new_backends
    if len(backends) > 1:
        print(f"refused: runs use different rational backends {sorted(backends)}", file=sys.stderr)
        return 2
    if not base or not new:
        print("refused: a directory holds no default-size run records", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    backend = backends.pop()
    worse = False
    for key in sorted(set(base) & set(new)):
        print(f"== {key[0]} ({key[1]}), backend {backend}")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = base[key][name], new[key][name]
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm if bm else 0.0
            flag = ""
            if name in bounds:
                bound, better = bounds[name]
                loss = change if better == "lower" else -change
                if loss > bound:
                    flag, worse = "  WORSE", True
            print(f"{name:44s} {spread(b):>34s} -> {spread(n):>34s} {change:+.3%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
