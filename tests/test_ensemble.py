"""Monte Carlo harness.

The central claim: the vectorized ensemble engine reproduces, replicate
by replicate and bit for bit, what the scalar counter loop does with
the stream for child_seed(seed, i) — states, estimates, and the exact
number of consumed stream bits, for every family.  Everything else
(stats, merging, checkpoint helpers) is checked against plain numpy.
"""

import numpy as np
import pytest

from fpcount import (
    CounterParams,
    estimate_float,
    increment,
    linear_checkpoints,
    log_checkpoints,
    merge_reports,
    new_counter,
    run_ensemble,
    run_trajectory,
)
from fpcount.randbits import BitSource, child_seed

FP4 = CounterParams.fp(4)

ALL_FAMILIES = [
    CounterParams.morris(),
    CounterParams.fp(0),
    FP4,
    CounterParams.qary(1),
    CounterParams.qary(16),
]


class TestCheckpointHelpers:
    def test_log_checkpoints(self):
        assert log_checkpoints(100) == [1, 2, 4, 8, 16, 32, 64, 100]
        assert log_checkpoints(64)[-1] == 64
        assert log_checkpoints(1) == [1]
        with pytest.raises(ValueError):
            log_checkpoints(0)

    def test_linear_checkpoints(self):
        assert linear_checkpoints(1600) == [100 * i for i in range(1, 17)]
        assert linear_checkpoints(5)[-1] == 5
        assert linear_checkpoints(33, count=3) == [11, 22, 33]

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            run_trajectory(FP4, 10, 1, [3, 3])
        with pytest.raises(ValueError):
            run_trajectory(FP4, 10, 1, [0, 5])
        with pytest.raises(ValueError):
            run_trajectory(FP4, 10, 1, [5, 11])


class TestTrajectory:
    def test_deterministic_given_seed(self):
        a = run_trajectory(FP4, 512, 7, [1, 100, 512])
        b = run_trajectory(FP4, 512, 7, [1, 100, 512])
        assert a == b
        c = run_trajectory(FP4, 512, 8, [1, 100, 512])
        assert a != c

    def test_point_fields_consistent(self):
        points = run_trajectory(FP4, 300, 3, [1, 7, 300])
        assert [p.n for p in points] == [1, 7, 300]
        ks = [p.k for p in points]
        assert ks == sorted(ks)
        for p in points:
            assert p.estimate == estimate_float(FP4, p.k)
            assert p.rel_error == (p.estimate - p.n) / p.n

    def test_empty_checkpoints(self):
        assert run_trajectory(FP4, 10, 1, []) == []


class TestEngineEquivalence:
    @staticmethod
    def _assert_matches_scalar(params, n_max, cps, seed=42, reps=3):
        report = run_ensemble(params, n_max, reps, seed=seed, checkpoints=cps)
        for i in range(reps):
            src = BitSource(child_seed(seed, i))
            state = new_counter()
            ci = 0
            for m in range(1, n_max + 1):
                state = increment(state, params, src)
                if m == cps[ci]:
                    assert int(report.states[ci, i]) == state.k
                    assert int(report.bits[ci, i]) == src.stream_position
                    assert report.estimates[ci, i] == estimate_float(params, state.k)
                    ci += 1
                    if ci == len(cps):
                        break

    @pytest.mark.parametrize("params", ALL_FAMILIES, ids=str)
    def test_matches_scalar_counter_loop(self, params):
        self._assert_matches_scalar(params, 2500, [1, 2, 3, 5, 100, 1024, 2500])

    @pytest.mark.parametrize(
        "params", [CounterParams.fp(16), CounterParams.qary(2**20)], ids=str
    )
    def test_matches_scalar_past_default_ceiling(self, params):
        # both reach DEFAULT_CEILING = 65535 before n = 70000; the scalar
        # counter then stays put and draws no bits, and so must the engine
        self._assert_matches_scalar(params, 70000, [65535, 65536, 70000], seed=5)

    def test_column_equals_trajectory(self):
        cps = [1, 10, 200, 1500]
        report = run_ensemble(FP4, 1500, 4, seed=9, checkpoints=cps)
        for i in range(4):
            points = run_trajectory(FP4, 1500, child_seed(9, i), cps)
            assert [p.k for p in points] == list(report.states[:, i])
            assert [p.estimate for p in points] == list(report.estimates[:, i])

    def test_morris_and_fp0_identical(self):
        a = run_ensemble(CounterParams.morris(), 1000, 5, seed=4)
        b = run_ensemble(CounterParams.fp(0), 1000, 5, seed=4)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.bits, b.bits)
        assert np.array_equal(a.estimates, b.estimates)


class TestEnsembleReport:
    def test_default_checkpoints_are_log(self):
        report = run_ensemble(FP4, 100, 2, seed=1)
        assert list(report.checkpoints) == log_checkpoints(100)

    def test_replicates_property_and_shapes(self):
        report = run_ensemble(FP4, 64, 6, seed=2)
        assert report.replicates == 6
        assert report.states.shape == report.estimates.shape == report.bits.shape
        assert report.states.shape == (len(report.checkpoints), 6)

    def test_needs_two_replicates(self):
        with pytest.raises(ValueError):
            run_ensemble(FP4, 10, 1, seed=1)

    def test_stats_against_numpy(self):
        report = run_ensemble(FP4, 2048, 40, seed=11, checkpoints=[512, 2048])
        for i, stats in enumerate(report.checkpoint_stats()):
            e = report.estimates[i]
            assert stats.replicates == 40
            assert stats.mean == pytest.approx(e.mean(), rel=1e-15)
            assert stats.sample_std == pytest.approx(e.std(ddof=1), rel=1e-15)
            expected_outliers = int(
                np.count_nonzero(np.abs(e - e.mean()) > 2 * e.std(ddof=1))
            )
            assert stats.outliers_2sigma == expected_outliers
            assert stats.mean_bits == pytest.approx(report.bits[i].mean(), rel=1e-15)


class TestMerge:
    def test_split_runs_reproduce_single_pass(self):
        cps = [16, 256, 1024]
        whole = run_ensemble(FP4, 1024, 8, seed=21, checkpoints=cps)
        left = run_ensemble(FP4, 1024, 4, seed=21, checkpoints=cps)
        right = run_ensemble(
            FP4, 1024, 4, seed=21, checkpoints=cps, first_replicate=4
        )
        merged = merge_reports(left, right)
        assert np.array_equal(merged.states, whole.states)
        assert np.array_equal(merged.bits, whole.bits)
        assert np.array_equal(merged.estimates, whole.estimates)
        assert merged.checkpoint_stats() == whole.checkpoint_stats()

    def test_mismatches_rejected(self):
        a = run_ensemble(FP4, 64, 2, seed=1, checkpoints=[64])
        b = run_ensemble(FP4, 64, 2, seed=1, checkpoints=[32, 64])
        with pytest.raises(ValueError):
            merge_reports(a, b)
        c = run_ensemble(CounterParams.fp(2), 64, 2, seed=1, checkpoints=[64])
        with pytest.raises(ValueError):
            merge_reports(a, c)
