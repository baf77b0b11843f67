"""In-memory span tracing of the rcbc layers, installed from outside the package.

`Tracer.installed()` wraps every public function of the layer modules and
rebinds each wrapper wherever the original is bound in any loaded `rcbc`
module, so calls between modules (for example `cli` calling
`plan_retrieval`) are traced too.  Each call becomes one span: name, start,
end, parent, plus the call's arguments and its result or exception, which
`layer_metrics` reads after the run instead of during it.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("cli", "matrixio", "constructions", "search", "graphs", "core", "retrieval")
STRATEGIES = ("definitional", "column-union", "row-containment")
ORACLES = {
    "search.exact_min_weight": "exact_min_weight",
    "search.uniform_packing_max": "uniform_packing_max",
    "search.gap_base_max": "gap_base_max",
    "graphs.max_edges_with_girth": "graphs.max_edges_with_girth",
}
REGIMES = ("k1", "circulant", "k2-small", "max-k", "large-n", "gap")
CLI_COMMANDS = ("construct", "verify", "retrieve")
# Placement-size buckets for plan_retrieval, so per-call cost can be read
# against n.
N_BUCKETS = (("n1-15", 16), ("n16-63", 64), ("n64-up", math.inf))

NAME, START, END, PARENT, ARGS, KWARGS, OUTCOME = range(7)


class Tracer:
    """Collects spans in memory; `mark` splits them into phases."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phases: list[tuple[str, int]] = []  # (label, first span index)
        self.signatures: dict[str, inspect.Signature] = {}
        self._stack: list[int] = []

    def mark(self, label: str) -> None:
        self.phases.append((label, len(self.spans)))

    def phase_indices(self, label: str) -> list[int]:
        """Indices of the spans recorded in the phase named `label`."""
        bounds = [start for _, start in self.phases] + [len(self.spans)]
        for i, (name, start) in enumerate(self.phases):
            if name == label:
                return list(range(start, bounds[i + 1]))
        raise KeyError(label)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1, args, kwargs, None]
            spans.append(rec)
            stack.append(index)
            rec[START] = clock()
            try:
                rec[OUTCOME] = fn(*args, **kwargs)
                return rec[OUTCOME]
            except Exception as exc:
                rec[OUTCOME] = exc
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Trace the currently loaded rcbc modules until the block exits."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "rcbc"]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"rcbc.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    self.signatures[name] = inspect.signature(fn)
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def write(self, path: Path) -> None:
        """One JSON line per span: id, name, start/end (ns), parent, phase."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for label, _ in self.phases:
                for i in self.phase_indices(label):
                    name, start, end, parent = self.spans[i][:4]
                    row = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                           "parent": parent, "phase": label}
                    out.write(json.dumps(row) + "\n")


def _bind(tracer: Tracer, rec: list) -> dict:
    return tracer.signatures[rec[NAME]].bind(*rec[ARGS], **rec[KWARGS]).arguments


def _pairs(p) -> int:
    """Maximal demand / availability pairs the definitional check enumerates."""
    if p.n == 0:
        return 0
    return math.comb(p.n, min(p.k, p.n)) * math.comb(p.m, p.m - p.r)


def _enumerated(strategy: str, p) -> int:
    """Subsets a verify strategy enumerates on a passing code."""
    if strategy == "column-union":
        return sum(math.comb(p.n, c) for c in range(1, min(p.k, p.n) + 1))
    if strategy == "row-containment":
        return sum(math.comb(p.m, d) for d in range(p.r, min(p.r + p.k - 1, p.m) + 1))
    return _pairs(p)


def gap_window(n: int, k: int, m: int, r: int) -> bool:
    """Whether predicted_weight needs the gap base search for these parameters."""
    if k < 3 or m < r + k:
        return False
    total = (k - 1) * math.comb(m, r + k - 1)
    cap = ((k - 1) * math.comb(m, r + k - 2)) // (r + k - 1)
    return total - (m - r - k + 1) * cap <= n < total


def metric_names() -> list[str]:
    """Every per-layer metric `layer_metrics` reports, in report order."""
    return list(layer_metrics(Tracer(), []))


def layer_metrics(tracer: Tracer, indices: list[int]) -> dict[str, float]:
    """Per-layer counts and times over the spans with the given indices.

    A span's self time is its duration minus that of its direct children.
    """
    spans = [tracer.spans[i] for i in indices]
    local = {g: i for i, g in enumerate(indices)}
    dur = [rec[END] - rec[START] for rec in spans]
    self_ns = dur.copy()
    for i, rec in enumerate(spans):
        if rec[PARENT] in local:
            self_ns[local[rec[PARENT]]] -= dur[i]

    out: dict[str, float] = {f"layer.{layer}.self_ms": 0.0 for layer in LAYERS}
    out["trace.spans"] = len(spans)
    calls: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        out[f"layer.{rec[NAME].split('.')[0]}.self_ms"] += self_ns[i] / 1e6
        calls.setdefault(rec[NAME], []).append(i)

    def total_ms(name: str) -> float:
        return sum(dur[i] for i in calls.get(name, ())) / 1e6

    # retrieval.plan_retrieval, overall and per placement size
    plan = calls.get("retrieval.plan_retrieval", [])
    groups: dict[str, list[int]] = {"": plan}
    for label, _ in N_BUCKETS:
        groups[label] = []
    for i in plan:
        n = _bind(tracer, spans[i])["p"].n
        groups[next(label for label, top in N_BUCKETS if n < top)].append(i)
    for label, members in groups.items():
        prefix = "retrieval.plan_retrieval" + (f".{label}" if label else "")
        out[f"{prefix}.calls"] = len(members)
        out[f"{prefix}.us_per_call"] = (
            sum(dur[i] for i in members) / len(members) / 1e3 if members else 0.0
        )
        out[f"{prefix}.infeasible"] = sum(
            1 for i in members if hasattr(spans[i][OUTCOME], "hall_set")
        )

    sweep = calls.get("retrieval.exhaustive_service_check", [])
    pairs = sum(_pairs(_bind(tracer, spans[i])["p"]) for i in sweep)
    out["retrieval.exhaustive_service_check.calls"] = len(sweep)
    out["retrieval.exhaustive_service_check.pairs"] = pairs
    out["retrieval.exhaustive_service_check.ns_per_pair"] = (
        sum(dur[i] for i in sweep) / pairs if pairs else 0.0
    )

    for strategy in STRATEGIES:
        for key in ("calls", "ms", "enumerated"):
            out[f"core.verify.{strategy}.{key}"] = 0
    for i in calls.get("core.verify", []):
        report = spans[i][OUTCOME]
        if isinstance(report, Exception):
            continue
        prefix = f"core.verify.{report.strategy}"
        out[f"{prefix}.calls"] += 1
        out[f"{prefix}.ms"] += dur[i] / 1e6
        out[f"{prefix}.enumerated"] += _enumerated(
            report.strategy, _bind(tracer, spans[i])["p"]
        )

    for span_name, oracle in ORACLES.items():
        members = calls.get(span_name, [])
        results = [spans[i][OUTCOME] for i in members]
        results = [res for res in results if not isinstance(res, Exception)]
        nodes = sum(res.nodes for res in results)
        seconds = sum(dur[i] for i in members) / 1e9
        prefix = f"search.{oracle}"
        out[f"{prefix}.calls"] = len(members)
        out[f"{prefix}.nodes"] = nodes
        out[f"{prefix}.self_ms"] = sum(self_ns[i] for i in members) / 1e6
        out[f"{prefix}.nodes_per_s"] = nodes / seconds if seconds else 0.0
        out[f"{prefix}.exact"] = sum(1 for res in results if res.exact)

    # Each gap-window prediction, and each gap construction after it, looks
    # the base packing up in the module's cache; a search is a miss.
    lookups = 0
    for i in calls.get("constructions.predicted_weight", []):
        p = _bind(tracer, spans[i])["p"]
        lookups += gap_window(*p.as_tuple())
    regimes = {tag: 0 for tag in REGIMES}
    limited = uncovered = 0
    for i in calls.get("constructions.construct_optimal", []):
        outcome = spans[i][OUTCOME]
        if isinstance(outcome, tuple):
            regimes[outcome[1].regime] += 1
            lookups += outcome[1].regime == "gap"
        elif hasattr(outcome, "budget_limited"):
            limited += outcome.budget_limited
            uncovered += not outcome.budget_limited
    searches = out["search.gap_base_max.calls"]
    out["constructions.gap_window.dispatches"] = lookups
    out["constructions.gap_base.miss_ratio"] = searches / lookups if lookups else 0.0
    out["constructions.predicted_weight.ms"] = total_ms("constructions.predicted_weight")
    out["constructions.construct_optimal.self_ms"] = (
        sum(self_ns[i] for i in calls.get("constructions.construct_optimal", ())) / 1e6
    )
    for tag in REGIMES:
        out[f"constructions.regime.{tag}"] = regimes[tag]
    out["constructions.no_known.budget_limited"] = limited
    out["constructions.no_known.uncovered"] = uncovered

    parsed = calls.get("matrixio.parse_matrix", [])
    rendered = calls.get("matrixio.render_matrix", [])
    out["matrixio.parse_matrix.ms"] = total_ms("matrixio.parse_matrix")
    out["matrixio.parse_matrix.bytes"] = sum(
        len(_bind(tracer, spans[i])["text"]) for i in parsed
    )
    out["matrixio.render_matrix.ms"] = total_ms("matrixio.render_matrix")
    out["matrixio.render_matrix.bytes"] = sum(
        len(spans[i][OUTCOME]) for i in rendered if isinstance(spans[i][OUTCOME], str)
    )

    for command in CLI_COMMANDS:
        out[f"cli.{command}.self_ms"] = 0.0
    for i in calls.get("cli.main", []):
        argv = _bind(tracer, spans[i])["argv"]
        key = f"cli.{argv[0]}.self_ms"
        if key in out:
            out[key] += self_ns[i] / 1e6
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    suffixes = {
        "_ms": "ms", ".ms": "ms", ".us_per_call": "us", ".ns_per_pair": "ns",
        ".nodes_per_s": "1/s", ".bytes": "bytes", "_ratio": "ratio", "_pct": "%",
    }
    return next((unit for end, unit in suffixes.items() if name.endswith(end)), "count")
