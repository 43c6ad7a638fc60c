"""Tests of the benchmark itself.

    python3 -m pytest -q benchmarks/selftest.py

They run every workload once at the smallest size the benchmark allows
(one unit, traced and untraced), so they take about a minute and a half.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_tampered_csv_digest_counts_as_wrong():
    result, lines = run.run_workload("grid-separation", run.DEFAULT_SEED, 0,
                                     False, min_units=1,
                                     pins={"csv_sha256": "0" * 64})
    assert not result["correct"]
    assert result["failed"] == 1
    assert any(line.startswith("wrong_frac = 1/") for line in lines)


def test_tampered_exact_value_counts_as_wrong():
    pins = run.default_pins("exact-bounds")
    pins["expansion"] = {"edge_expansion": "3/4"}
    result, _ = run.run_workload("exact-bounds", 7, 0, False, min_units=1,
                                 pins=pins)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (5, 1)


def test_bench_csv_check_counts_wrong_and_missing_runs():
    text = "\n".join(["solver,trial,queries,correct",
                      "descent,0,5,true", "warm-start,0,7,false"])
    check = run.Check()
    means = run.check_bench_csv(text, 2, check)
    assert (check.attempted, check.failed) == (4, 3)
    assert means["descent"] == 5


def test_path_system_check_rejects_a_non_edge():
    graph = {"n": 3, "edges": [[1, 2], [2, 3]]}
    rows = [{"u": u, "v": v, "p": [u] if u == v else
             list(range(u, v + 1)) if u < v else list(range(u, v - 1, -1))}
            for u in (1, 2, 3) for v in (1, 2, 3)]
    assert run.path_system_congestion({"n": 3, "paths": rows}, graph) == 7
    rows[2]["p"] = [1, 3]
    assert run.path_system_congestion({"n": 3, "paths": rows}, graph) is None


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "exact-bounds",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_printed_by_name(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seconds", "0",
                   "--trace", str(trace)], min_units=1)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.startswith(f"{m['name']} = ") for line in lines)
