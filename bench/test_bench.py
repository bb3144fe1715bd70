"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from harness import ROOT, WORKLOADS, load_reference, run_workload  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"strata": 4, "setup_repeats": 1}


def _tiny(name: str, trace: bool, **kwargs):
    return run_workload(name, 3, 0.01, trace, **TINY, **kwargs)


def test_workloads_match_the_contract():
    assert sorted(w["name"] for w in CONTRACT["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace, kind):
    result, details = _tiny(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert details["caches_cleared"], "no functools cache found to clear"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_reference_is_detected(name):
    reference = copy.deepcopy(load_reference(name))
    for stratum in reference["strata"][: TINY["strata"]]:
        for entry in stratum:
            entry["exit"] += 7
    result, details = _tiny(name, False, reference=reference)
    assert not result["correct"]
    assert details["failed_ratio"] == 1.0


def test_corrupted_barcode_digest_is_detected():
    reference = copy.deepcopy(load_reference("lemma-ses"))
    reference["strata"][0] = [dict(entry, barcodes="0" * 16) for entry in reference["strata"][0]]
    result, details = _tiny("lemma-ses", False, reference=reference)
    assert result["failed"] == 1 and details["failed_ratio"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_call_counts_repeat_exactly(name):
    first, _ = _tiny(name, True)
    second, _ = _tiny(name, True)
    counts = {k: v["value"] for k, v in first["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: v["value"] for k, v in second["metrics"].items() if v["unit"] == "count"}
    assert counts["cli.calls"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "lemma-ses", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
