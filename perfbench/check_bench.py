"""The benchmark's own tests.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps it out of the package's default test collection: the
smoke runs start subprocesses and take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = ("dataset.knn.calls", "dataset.range_query.calls", "graph.edges",
                 "bench.report_reuse")


def _run_all(trace: int, cwd: Path = ROOT) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_runs():
    return [_run_all(1), _run_all(1)]


def test_smoke_prints_every_metric_with_its_unit(spec, traced_runs):
    plain = _run_all(0)
    assert set(plain) == {w["name"] for w in spec["workloads"]}
    for results, key in ((plain, "end_to_end"), (traced_runs[0], "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name, result in results.items():
            assert result["correct"], (name, result)
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert result["fail_frac"] == {"value": 0.0, "unit": "ratio"}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == want, name
            for m in result["metrics"].values():
                assert isinstance(m["value"], (int, float))


def test_count_metrics_repeat_across_traced_runs(traced_runs):
    first, second = traced_runs
    for name in first:
        for metric in COUNT_METRICS:
            assert first[name]["metrics"][metric] == second[name]["metrics"][metric]
        assert first[name]["digest"] == second[name]["digest"]
    assert first["bench-mc"]["metrics"]["bench.report_reuse"]["value"] == 2.0
    assert first["cli-sparse"]["metrics"]["dataset.knn.calls"]["value"] > 0


def _flip(values: list, i: int = 0) -> list:
    return [1 - v if j == i else v for j, v in enumerate(values)]


def test_flipped_flag_in_cli_output_is_a_failure(tmp_path):
    wl = workloads.CliSparse(5, tmp_path, smoke=True)
    wl.setup()
    wl.run()
    prefix = tmp_path / "fixed-k"
    csv_bytes = Path(f"{prefix}.scores.csv").read_bytes()
    doc = json.loads(Path(f"{prefix}.scores.json").read_text())
    assert wl.check_item("fixed-k", csv_bytes, json.dumps(doc).encode()).problems == []

    doc["points"]["oos_flag"] = _flip(doc["points"]["oos_flag"])
    item = wl.check_item("fixed-k", csv_bytes, json.dumps(doc).encode())
    assert any("oos flag" in p for p in item.problems)


def test_corrupted_library_report_is_a_failure(tmp_path):
    wl = workloads.LibDense(5, tmp_path, smoke=True)
    wl.setup()
    report = wl.run()
    items, digest = wl.check(report)
    assert [i.problems for i in items] == [[]]

    report.ios_flag[0] = not report.ios_flag[0]
    report.oos_rank[[0, 1]] = report.oos_rank[0]
    items, corrupted = wl.check(report)
    problems = items[0].problems
    assert any("ios flag" in p for p in problems)
    assert any("oos_rank" in p for p in problems)
    assert corrupted != digest


def test_oracle_catches_a_perturbed_density(tmp_path):
    wl = workloads.CliSparse(6, tmp_path, smoke=True)
    wl.setup()
    _, points, sample = wl.oracle()
    rho, oos = checks.brute_fixed_k(points, sample)
    full_rho = np.zeros(points.shape[0])
    full_oos = np.zeros(points.shape[0])
    full_rho[sample], full_oos[sample] = rho, oos
    assert checks.check_fixed_k(points, sample, full_rho, full_oos) == []
    full_rho[sample[0]] *= 1 + 1e-9
    assert checks.check_fixed_k(points, sample, full_rho, full_oos) != []


def test_bench_row_with_error_is_a_failure(tmp_path):
    wl = workloads.BenchMc(7, tmp_path, smoke=True)
    wl.setup()
    code = wl.run()
    raw = (tmp_path / "bench-out" / "raw.csv").read_text().splitlines()
    raw[1] = raw[1] + "boom"  # the error column is last
    (tmp_path / "bench-out" / "raw.csv").write_text("\n".join(raw) + "\n")
    items, _ = wl.check(code)
    assert [i.name for i in items if i.problems] == [items[0].name]


def test_exits_nonzero_without_the_program(tmp_path, spec):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*spec["command"], "--workload", spec["workloads"][0]["name"], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
        env={**os.environ, "PYTHONPATH": ""},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

