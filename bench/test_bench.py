"""Self-check of the benchmark at tiny sizes.

Every metric is printed with its unit, a corrupted output counts as a
failed op, traced counts repeat for a seed, compare mode reads two result
files, and the benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny(workload, *args, seed=5):
    proc = bench("--tiny", "--workload", workload, "--seed", str(seed),
                 "--seconds", "1", *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_printed(report, names):
    for name in names:
        assert any(line.split()[:1] == [name] and run.unit_of(name) in line.split()
                   for line in report), f"{name} not printed with its unit"


def assert_result_metrics(result, names):
    assert list(result["metrics"]) == list(names)
    for name in names:
        assert result["metrics"][name]["unit"] == run.unit_of(name)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.unit_of(name)) for name in run.RESULT_LAYER_METRICS]


@pytest.mark.parametrize("workload", ["roundtrip-large", "validate-quick"])
def test_end_to_end_metrics_printed(workload):
    report, result = tiny(workload, "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_result_metrics(result, [name for name, _, _ in run.END_TO_END])
    assert_printed(report, [name for name, _, _ in run.END_TO_END + run.REPORT_ONLY])
    assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])
    for name, _ in run.PROBES:
        assert any(line.split()[:1] == [name] for line in report)


def test_corrupted_output_counts_as_failed():
    report, result = tiny("codelength-small", "--trace", "0", "--corrupt-op", "0")
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1
    assert_result_metrics(result, [name for name, _, _ in run.END_TO_END])
    assert_printed(report, [name for name, _, _ in run.END_TO_END + run.REPORT_ONLY])
    ratio = next(line for line in report if line.split()[:1] == ["ops_failed_ratio"])
    assert float(ratio.split()[1]) == pytest.approx(1 / result["attempted"], rel=1e-5)
    assert any("FAILED op-0" in line and "total" in line for line in report)


def test_traced_counts_repeat_and_compare(tmp_path):
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    report, first = tiny("codelength-small", "--trace", "1", "--out", str(out_a))
    _, second = tiny("codelength-small", "--trace", "1", "--out", str(out_b))
    assert first["correct"] and second["correct"]
    assert_result_metrics(first, run.RESULT_LAYER_METRICS)
    assert_printed(report, run.LAYER_METRICS)
    counts = [name for name in run.RESULT_LAYER_METRICS if run.unit_of(name) == "count"]
    assert [first["metrics"][n]["value"] for n in counts] == \
        [second["metrics"][n]["value"] for n in counts]
    assert first["metrics"]["quadrature.integrand_evals"]["value"] > 0

    proc = bench("--compare", str(out_a), str(out_b))
    assert proc.returncode == 0, proc.stderr
    for name in run.LAYER_METRICS:
        assert any(f"codelength-small  {name} " in line and "B/A" not in line
                   for line in proc.stdout.splitlines()), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "codelength-small", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
