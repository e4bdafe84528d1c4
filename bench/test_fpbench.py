"""Self-tests of the benchmark harness, at the tiny size.

Run with ``python -m pytest bench``.  Every workload must report every
metric BENCHMARK.json names, with its unit, and a corrupted program
output must show up as failed checks.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fpbench.runner import require_fpcount, run
from fpbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def fc():
    return require_fpcount(ROOT)[0]


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_metric(fc, workload, trace):
    patched = (fc.ensemble.increment, fc.cli.main, fc.CounterTable, fc.sweep_moments)
    result = run(fc, workload, seed=3, seconds=0, trace=bool(trace), size="tiny")["result"]
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] > 0
    want = _units("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    # tracing restores every attribute it wrapped
    assert (fc.ensemble.increment, fc.cli.main, fc.CounterTable, fc.sweep_moments) == patched


def test_flipped_table_slot_is_a_failure(fc, monkeypatch):
    to_bytes = fc.CounterTable.to_bytes

    def flip_first_slot(self):
        blob = bytearray(to_bytes(self))
        blob[24] ^= 1  # lowest bit of slot 0, just past the 24-byte header
        return bytes(blob)

    monkeypatch.setattr(fc.CounterTable, "to_bytes", flip_first_slot)
    result = run(fc, "table-ingest", seed=3, seconds=0, trace=False, size="tiny")["result"]
    assert result["failed"] > 0 and not result["correct"]


def test_perturbed_float_mean_is_a_failure(fc, monkeypatch):
    sweep = fc.sweep_moments

    def perturbed(params, checkpoints, mode=fc.MODE_FLOAT):
        records = sweep(params, checkpoints, mode)
        if mode == fc.MODE_FLOAT:
            records = [dataclasses.replace(r, mean=r.mean * (1 + 1e-6)) for r in records]
        return records

    monkeypatch.setattr(fc, "sweep_moments", perturbed)
    result = run(fc, "oracle-sweep", seed=3, seconds=0, trace=False, size="tiny")["result"]
    assert result["failed"] > 0 and not result["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
