"""Smoke runs of the benchmark: metric names and units, and failure counting."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def test_untraced_run_emits_every_end_to_end_metric_with_its_unit():
    result = _result(_run("--seed", "3", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric_with_its_unit():
    result = _result(_run("--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(SPEC["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["resampling.calls"] == 1 and metrics["resampling.synthetic_rows"] == 490
    assert metrics["dataset.rows"] == 470
    assert metrics["trace.covered_frac"] > 0.9  # module spans account for the traced wall


def test_a_tampered_reference_counts_as_a_failed_invocation(tmp_path):
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    reference["smoke"]["reports"][0]["confusion"]["tp"] += 1
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    result = _result(_run("--trace", "0", "--reference", str(tampered)))
    assert not result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
