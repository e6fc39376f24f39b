"""Layer spans for the traced benchmark run, recorded from outside the program.

The tracer wraps the public entry points of each bidfair module in the
namespaces where callers look them up (``bidfair.shares.feasible_point``, not
``bidfair.simplex.feasible_point``), plus ``ValuationOracle.value`` and the
``bid``/``pick`` methods of every ``Strategy`` subclass.  Nothing under
``src/`` changes.

Every wrapped call is a span (name, start, end, parent).  A span's self time
is its duration minus the time its child spans cover, so the self times of
all spans in a pass add up to the part of the pass that some layer covers.
Self times and counts are aggregated as calls return; the span records
themselves are kept in memory, up to ``SPAN_LIMIT``, and written out when the
run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

SPAN_LIMIT = 100_000


def _simplex_shape(counts, args, kwargs, result):
    # feasible_point(n_vars, a_ub, b_ub, a_eq, b_eq) and
    # solve_lp(objective, a_ub, b_ub, a_eq, b_eq) share the row arguments
    first = args[0]
    counts["simplex.columns"] += first if isinstance(first, int) else len(first)
    a_ub = args[1] if len(args) > 1 else kwargs.get("a_ub", ())
    a_eq = args[3] if len(args) > 3 else kwargs.get("a_eq", ())
    counts["simplex.rows"] += len(a_ub) + len(a_eq)
    counts["simplex.infeasible"] += result.status == "infeasible"


def _game_size(counts, args, kwargs, result):
    transcript = result[1]
    counts["engine.rounds"] += len(transcript.rounds)
    counts["engine.clamped_bids"] += len(transcript.violations)


def _written_bytes(counts, args, kwargs, result):
    counts["serialize.write_bytes"] += len(result.encode())


def _read_bytes(counts, args, kwargs, result):
    counts["serialize.read_bytes"] += len(args[0].encode())


# (defining module, function, span name, patch the defining module too, counter).
# simplex's entry points are patched only where other modules look them up:
# inside simplex, feasible_point calls solve_lp, which must not nest a second
# solve span.
FUNCTIONS = (
    ("bidfair.shares", "value_table", "shares.value_table", True, None),
    ("bidfair.shares", "aps_exact", "shares.aps", True, None),
    ("bidfair.shares", "mms_exact", "shares.mms", True, None),
    ("bidfair.shares", "verify_fractional_partition", "shares.verify", True, None),
    ("bidfair.shares", "verify_mms_partition", "shares.verify", True, None),
    ("bidfair.simplex", "feasible_point", "simplex.solve", False, _simplex_shape),
    ("bidfair.simplex", "solve_lp", "simplex.solve", False, _simplex_shape),
    ("bidfair.engine", "run_game", "engine.run_game", True, _game_size),
    ("bidfair.engine", "verify_transcript", "engine.verify", True, None),
    ("bidfair.engine", "state_after", "engine.state_after", True, None),
    ("bidfair.wrapper", "unconditional_allocate", "wrapper.allocate", True, None),
    ("bidfair.wrapper", "conditional_allocate", "wrapper.conditional", True, None),
    ("bidfair.analysis", "lower_bound_diagnostics", "analysis.diagnostics", True, None),
    ("bidfair.analysis", "guarantee_report", "analysis.guarantee", True, None),
    ("bidfair.serialize", "report_to_dict", "serialize.write", True, None),
    ("bidfair.serialize", "dumps", "serialize.write", True, _written_bytes),
    ("bidfair.serialize", "loads", "serialize.read", True, _read_bytes),
    ("bidfair.serialize", "report_from_dict", "serialize.read", True, None),
    ("bidfair.negatives", "gen_xos_hard", "negatives.gen", True, None),
    ("bidfair.negatives", "gen_random_submodular", "negatives.gen", True, None),
)


def _strategy_classes():
    engine = importlib.import_module("bidfair.engine")
    importlib.import_module("bidfair.strategies")
    importlib.import_module("bidfair.negatives")
    found, todo = [], list(engine.Strategy.__subclasses__())
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(found, key=lambda c: c.__name__)


class Tracer:
    """Installs span wrappers and aggregates self time and counts per span name."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._next_id = 0
        self._stack: list[list[int]] = []  # [start_ns, child_ns, span id]
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh aggregate (one per pass); span records are kept."""
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def snapshot(self) -> tuple[dict[str, int], dict[str, int]]:
        return dict(self.self_ns), dict(self.counts)

    def _wrap(self, fn, name, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [perf_counter_ns(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                tracer.self_ns[name] += duration - frame[1]
                tracer.counts[name] += 1
                if len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((span_id, name, frame[0], end, parent))
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "bidfair" or n.startswith("bidfair.")]
        for home, attr, name, patch_home, counter in FUNCTIONS:
            original = getattr(importlib.import_module(home), attr)
            traced = self._wrap(original, name, counter)
            for module in modules:
                if module.__name__ == home and not patch_home:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)
        valuations = importlib.import_module("bidfair.valuations")
        oracle = valuations.ValuationOracle
        self._set(oracle, "value", self._wrap(oracle.value, "valuations.value"))
        for cls in _strategy_classes():
            for method in ("bid", "pick"):
                if method in vars(cls):
                    self._set(cls, method, self._wrap(vars(cls)[method], f"strategies.{cls.__name__}.{method}"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write_spans(self, path) -> None:
        """One JSON line per span: id, name, start and end (ns), parent id (-1 at top)."""
        with open(path, "w") as out:
            for span in sorted(self.spans):
                out.write(json.dumps(span) + "\n")
