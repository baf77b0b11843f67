"""Benchmark of the rcbc library and CLI, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload retrieve-stream --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): `retrieve-stream`, `search-proof`,
`construct-verify`.  The benchmark imports `rcbc` from `src/` next to this
directory and calls it in-process on one thread.

After five timed set-ups, it replays the workload's fixed round of work,
with one more timed set-up before each later round, until `--seconds` have
passed.  It checks the outputs of the first round and requires every later
round to reproduce them.  The last line of stdout is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.

The machine speed can drift by 20% or more over minutes on a shared host,
so times are taken where that drift shows least: each operation's time is
the fastest of its replays, one per round, and set-up time the median of
the faster half of the set-ups.  Objects alive before a round are frozen out of
the garbage collector's scans during it.  With `--trace 0` the metrics are
end to end, over the untraced rounds:

- `setup_s`: median set-up time (fresh import of rcbc plus the workload's
  program set-up, such as building the n=800 code);
- `wall_s`: time of one round's operations, each at its fastest replay;
- `peak_rss_mb`: the process's peak resident set size;
- `op_p50_ms`, `op_tail_ms`: median and tail latency of one operation,
  where an operation is a `plan_retrieval` call (retrieve-stream, tail p99),
  a search instance (search-proof, tail p90) or a CLI command
  (construct-verify, tail p90).

Operations per second (the operations in a round over `wall_s`) is printed
in the summary line, with the sample count.

The error rate is `failed / attempted`; it is printed, not a metric,
because it is 0 when the program is correct.

With `--trace 1`, untraced and traced rounds alternate.  The metrics are
per layer, over one traced set-up plus one traced round (median over the
traced rounds); `trace.overhead_pct` compares `wall_s`
over the traced rounds with `wall_s` over the untraced ones.  Spans go to `perfbench/out/`.  `--size
smoke` runs a small version of each workload, for the benchmark's tests.

Exit status: 0 when every output checked correct, 1 when a check failed,
2 when the rcbc sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from itertools import zip_longest
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5  # set-ups before the first round; one more before each later one

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


def nearest_rank(sorted_values: list, percent: float):
    return sorted_values[max(0, math.ceil(len(sorted_values) * percent / 100) - 1)]


def fastest_half(times: list) -> list:
    """The faster half, rounded up, of repeated timings of the same work.

    On a shared machine, identical CPU-bound work can take up to 1.6x longer
    during slow phases that come from outside the process.  Repeats of the
    same work that such a phase slowed least measure the program best.
    """
    return sorted(times)[: (len(times) + 1) // 2]


def fastest_replays(rounds: list) -> list[int]:
    """Each operation's fastest time over rounds that replay the same ones."""
    return list(map(min, zip(*(rnd.latencies_ns for rnd in rounds))))


def run(workload, seconds: float, trace: bool, seed: int) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, summary for people)."""
    setups = []

    def timed_setup() -> None:
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)

    for _ in range(SETUP_REPEATS):
        timed_setup()
    problems = workload.check_setup()

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.mark("setup")
        workload.setup(tracer)

    untraced, traced = [], []  # Rounds, without their outputs once checked
    first = verdicts = None
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        if first is not None:
            timed_setup()  # spread over the run, like the rounds
        label = None
        if tracer is not None and len(untraced) > len(traced):
            label = f"round{len(untraced) + len(traced)}"
            tracer.mark(label)
        # The collector then scans only what the round itself allocates.
        gc.collect()
        gc.freeze()
        rnd = workload.run_round(tracer if label else None)
        gc.unfreeze()
        if first is None:
            first, verdicts = rnd.outputs, workload.check(rnd.outputs)
        for out, ref, verdict in zip_longest(rnd.outputs, first, verdicts):
            bad = verdict if out == ref else "output differs from the first round's"
            if bad is not None:
                failed += 1
                if len(problems) < 10:
                    problems.append(bad)
        attempted += len(rnd.outputs)
        rnd.outputs = None
        rnd.label = label
        (traced if label else untraced).append(rnd)
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - begin
        if done >= (2 if trace else 1) and elapsed * (1 + 1 / done) > seconds:
            break

    best = fastest_replays(untraced)
    latencies = sorted(best)
    end_to_end = {
        "setup_s": statistics.median(fastest_half(setups)),
        "wall_s": sum(best) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": nearest_rank(latencies, workload.tail) / 1e6,
    }
    summary = {
        "per_second": len(latencies) / end_to_end["wall_s"],
        "rounds": len(untraced),
        "operations": f"{len(latencies)} {workload.operation}s",
        "tail": f"p{workload.tail}",
        "error_rate": failed / attempted,
        "problems": problems,
        "end_to_end": end_to_end,
    }
    metrics = {name: {"value": v, "unit": END_TO_END[name]} for name, v in end_to_end.items()}

    if tracer is not None:
        setup_spans = tracer.phase_indices("setup")
        per_round = [
            tracing.layer_metrics(tracer, setup_spans + tracer.phase_indices(rnd.label))
            for rnd in traced
        ]
        layer = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
        layer["trace.overhead_pct"] = 100 * (sum(fastest_replays(traced)) / sum(best) - 1)
        spans_file = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_file)
        summary["spans_file"] = str(spans_file.relative_to(HERE.parent))
        summary["per_layer"] = layer
        metrics = {
            name: {"value": v, "unit": tracing.unit_of(name)} for name, v in layer.items()
        }

    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, summary


def print_summary(name: str, seed: int, summary: dict) -> None:
    print(
        f"# {name} seed {seed}: {summary['operations']} per round, "
        f"{summary['rounds']} untraced rounds, op_tail_ms is {summary['tail']}, "
        f"error_rate {summary['error_rate']}, "
        f"{summary['per_second']:.6g} operations/s"
    )
    for metric, value in summary["end_to_end"].items():
        print(f"{metric:<44} {value:>16.6g} {END_TO_END[metric]}")
    if "per_layer" in summary:
        print(f"# per layer (spans in {summary['spans_file']})")
        for metric, value in summary["per_layer"].items():
            print(f"{metric:<44} {value:>16.6g} {tracing.unit_of(metric)}")
    for problem in summary["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "rcbc" / "__init__.py").is_file():
        print(f"error: rcbc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Set-up re-imports rcbc; time it from bytecode, as an installed package
    # loads, whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    work_dir = OUT / f"work-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, work_dir)
    try:
        result, summary = run(workload, args.seconds, bool(args.trace), args.seed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print_summary(args.workload, args.seed, summary)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
