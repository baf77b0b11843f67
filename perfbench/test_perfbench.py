"""Self-tests of the benchmark, on the smoke size of each workload.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = 7) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_names_the_workloads_the_benchmark_runs():
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = smoke(workload, trace=0)
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = smoke(workload, trace=1), smoke(workload, trace=1)
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [
        {n: m["value"] for n, m in res["metrics"].items() if m["unit"] == "count"}
        for res in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["trace.spans"] > 0


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def first_round(name: str, tmp_path: Path):
    workload = workloads.WORKLOADS[name](3, "smoke", tmp_path)
    workload.setup()
    outputs = workload.run_round().outputs
    assert workload.check(outputs) == [None] * len(outputs)
    return workload, outputs


def test_retrieve_check_rejects_wrong_plans_and_unconfirmed_hall_sets(tmp_path):
    workload, outputs = first_round("retrieve-stream", tmp_path)
    plan = next(i for i, out in enumerate(outputs) if out[0] != "infeasible")
    (f, s), *rest = outputs[plan]
    outputs[plan] = ((f, s % 10 + 1), *rest)
    outputs[plan + 1] = ("infeasible", workload.requests[plan + 1][1])
    verdicts = workload.check(outputs)
    assert verdicts[plan] is not None and verdicts[plan + 1] is not None


def test_search_check_rejects_wrong_values_and_witnesses(tmp_path):
    workload, outputs = first_round("search-proof", tmp_path)
    value, exact, bound, nodes, columns = outputs[0]
    outputs[0] = (value + 1, exact, bound, nodes, columns)
    outputs[2] = outputs[2][:4] + (outputs[2][4][:-1] + (outputs[2][4][0],),)
    verdicts = workload.check(outputs)
    assert verdicts[0] is not None and verdicts[2] is not None


def test_construct_check_rejects_wrong_weights_and_exit_codes(tmp_path):
    workload, outputs = first_round("construct-verify", tmp_path)
    built = next(i for i, out in enumerate(outputs) if out[0] == "construct" and out[2] == 0)
    text = outputs[built][5].replace("# weight: ", "# weight: 1", 1)
    outputs[built] = outputs[built][:5] + (text,)
    limited = next(i for i, out in enumerate(outputs) if out[0] == "construct" and out[2] != 0)
    outputs[limited] = outputs[limited][:2] + (0,) + outputs[limited][3:]
    verdicts = workload.check(outputs)
    assert verdicts[built] is not None and verdicts[limited] is not None


def test_run_fails_when_a_later_round_changes_its_output(tmp_path):
    workload = workloads.WORKLOADS["search-proof"](1, "smoke", tmp_path)
    rounds = iter([0, 1])
    original = workload.run_round

    def drifting(tracer=None):
        rnd = original(tracer)
        if next(rounds, 1):
            rnd.outputs[0] = ("error", "drift")
        return rnd

    workload.run_round = drifting
    result, _ = run.run(workload, seconds=0, trace=True, seed=1)  # two rounds
    assert result["correct"] is False and result["failed"] >= 1
