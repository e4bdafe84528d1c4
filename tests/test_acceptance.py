"""End-to-end acceptance runs, one test per criterion.

Each test states its tolerance inline and asserts any runtime budget;
the stochastic criteria fix their seeds so reruns are exact repeats.
Criterion 4's fluctuation clause is evaluated across the checkpoint
span [2**10, 2**17] sampled at eight points per octave: the accuracy
curve oscillates with period one octave, so octave-aligned samples
alone pin its phase (their spread is ~0.0009 regardless of
implementation — confirmed in exact arithmetic) while the span shows
the full swing.
"""

import math
import random
import subprocess
import sys
import time

import pytest

from fpcount import (
    CounterParams,
    CounterTable,
    MODE_EXACT,
    MODE_FLOAT,
    estimate,
    run_ensemble,
    sweep_moments,
    variance_fn,
)
from fpcount.randbits import BitSource, ScriptedBitSource

EXACT_SWEEP_CONFIGS = [CounterParams.morris()] + [
    CounterParams.fp(d) for d in (0, 1, 2, 4, 6)
]


@pytest.fixture(scope="module")
def exact_sweep_256():
    """Shared exact sweep: all n <= 256 for morris and fp d in {0,1,2,4,6}."""
    start = time.perf_counter()
    sweeps = {
        params: sweep_moments(params, range(1, 257), MODE_EXACT)
        for params in EXACT_SWEEP_CONFIGS
    }
    return sweeps, time.perf_counter() - start


def test_criterion_01_exact_unbiasedness(exact_sweep_256):
    sweeps, elapsed = exact_sweep_256
    for params, records in sweeps.items():
        for rec in records:
            assert rec.mean == rec.n, (params, rec.n)
    assert elapsed < 10.0


def test_criterion_02_exact_variance_identity(exact_sweep_256):
    sweeps, _ = exact_sweep_256
    for params, records in sweeps.items():
        for rec in records:
            assert rec.variance == rec.mean_variance_fn, (params, rec.n)
    morris = sweeps[CounterParams.morris()]
    assert morris[1].variance == 1  # n = 2
    assert morris[2].variance == 3  # n = 3


def test_criterion_03_closed_forms_match_series():
    start = time.perf_counter()
    for d in range(9):
        params = CounterParams.fp(d)
        f_running = 0
        g_running = 0
        for k in range(1, 10**4 + 1):
            t = (k - 1) >> d
            f_running += 1 << t
            g_running += (1 << (2 * t)) - (1 << t)
            assert estimate(params, k) == f_running
            assert variance_fn(params, k) == g_running
    assert time.perf_counter() - start < 5.0


def test_criterion_04_asymptotic_accuracy_window():
    start = time.perf_counter()
    octaves = [1 << j for j in range(10, 18)]
    span = sorted({round(2 ** (10 + j / 8)) for j in range(57)} | set(octaves))
    records = sweep_moments(CounterParams.fp(4), span, MODE_FLOAT)
    acc = {rec.n: rec.accuracy for rec in records}
    lo = math.sqrt(1 / 47) - 0.005
    hi = math.sqrt(3 / 125) + 0.005
    for n in octaves:
        assert lo <= acc[n] <= hi, (n, acc[n])
    observed = [acc[n] for n in span]
    assert max(observed) - min(observed) >= 0.002
    assert time.perf_counter() - start < 30.0


def test_criterion_05_qary_accuracy_limit():
    start = time.perf_counter()
    rec = sweep_moments(CounterParams.qary(16), [10**5], MODE_FLOAT)[0]
    target = (2 ** (1 / 16) - 1) / 2
    assert abs(rec.accuracy**2 - target) <= 0.01 * target
    assert time.perf_counter() - start < 60.0


def test_criterion_06_ensemble_statistics():
    start = time.perf_counter()
    n = 10**5
    replicates = 1000
    for params in (CounterParams.fp(4), CounterParams.qary(16)):
        report = run_ensemble(params, n, replicates, seed=1, checkpoints=[n])
        stats = report.checkpoint_stats()[0]
        oracle_std = math.sqrt(sweep_moments(params, [n], MODE_FLOAT)[0].variance)
        assert abs(stats.mean - n) <= 4 * oracle_std / math.sqrt(replicates), params
        assert abs(stats.sample_std - oracle_std) <= 0.15 * oracle_std, params
        assert stats.outliers_2sigma <= 0.10 * replicates, params
    assert time.perf_counter() - start < 120.0


def test_criterion_07_trajectory_error_band():
    n = 10**5
    band = 2 * 0.59 * 2**-2  # two sigma of the quoted band constant
    report = run_ensemble(CounterParams.fp(4), n, 100, seed=1, checkpoints=[n])
    inside = sum(1 for est in report.estimates[0] if abs(est - n) / n <= band)
    assert inside >= 90


def test_criterion_08_bit_cost():
    # empirical per-call mean over 10**6 calls, within 1% of 2 - 2**(1-t)
    for t in (1, 2, 3, 8):
        src = BitSource(seed=100 + t)
        calls = 10**6
        for _ in range(calls):
            src.bernoulli_pow2(t)
        empirical = src.stream_position / calls
        expected = 2 - 2.0 ** (1 - t)
        assert abs(empirical - expected) <= 0.01 * expected, t
    # exhaustive: exactly one success among all 2**t equally likely scripts
    for t in range(1, 13):
        successes = sum(
            ScriptedBitSource(format(word, f"0{t}b")).bernoulli_pow2(t)
            for word in range(1 << t)
        )
        assert successes == 1, t


def test_criterion_09_cli_determinism():
    invocations = [
        ("ensemble", "--counter", "fp", "--d", "4", "--n", "4096",
         "--replicates", "32", "--seed", "5"),
        ("trajectory", "--counter", "qary", "--r", "16", "--n", "2048",
         "--seed", "3", "--output", "json"),
        ("oracle", "--counter", "morris", "--n", "64", "--mode", "exact"),
    ]
    for argv in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "fpcount", *argv], capture_output=True
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout, argv


def test_criterion_10_packing(with_slot):
    for width in (5, 6, 8, 12, 16):
        slots = 101  # prime: every slot alignment relative to bytes occurs
        table = CounterTable(slots, 4, width)
        model = [0] * slots
        rng = random.Random(1000 + width)
        for _ in range(2000):
            i = rng.randrange(slots)
            value = rng.randrange(1 << width)
            neighbors = (
                model[i - 1] if i > 0 else None,
                model[i + 1] if i + 1 < slots else None,
            )
            table = with_slot(table, i, value)
            model[i] = value
            assert table.get_state(i) == value, width
            if i > 0:
                assert table.get_state(i - 1) == neighbors[0], width
            if i + 1 < slots:
                assert table.get_state(i + 1) == neighbors[1], width
        assert [table.get_state(i) for i in range(slots)] == model
        clone = CounterTable.from_bytes(table.to_bytes())
        assert [clone.get_state(i) for i in range(slots)] == model
