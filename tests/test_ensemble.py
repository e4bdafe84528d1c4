"""Monte Carlo harness.

The central claim: the ensemble engine reproduces, replicate by
replicate and bit for bit, what the scalar counter loop does with the
stream for child_seed(seed, i) — states, estimates, and the exact
number of consumed stream bits, for every family and at 1, 2, 3 and
32 seeds: morris and fp in level batches, and qary in windows that walk
their candidates or step their rows, at every seed count.  Everything
else (stats, merging, checkpoint helpers) is checked against plain
numpy.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcount import (
    CounterParams,
    estimate,
    estimate_float,
    increment,
    linear_checkpoints,
    log_checkpoints,
    merge_reports,
    new_counter,
    run_ensemble,
    run_trajectory,
    transition_prob,
    variance_fn,
)
from fpcount._engine import _DRAWS, _WALK, _WINDOW, _qary_windows, _thresholds, simulate
from fpcount.chain import Family
from fpcount.counters import DEFAULT_CEILING
from fpcount.randbits import SPAN_WORDS, BitSource, child_seed, stream_skip

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
        with pytest.raises(ValueError, match="update count 10.5 is not an integer"):
            log_checkpoints(10.5)

    def test_linear_checkpoints(self):
        assert linear_checkpoints(1600) == [100 * i for i in range(1, 17)]
        assert linear_checkpoints(5)[-1] == 5
        assert linear_checkpoints(33, count=3) == [11, 22, 33]
        # past 2**53 the float i/count points round, but the last is n_max
        assert linear_checkpoints(2**60 + 1, 4)[-2:] == [3 * 2**58, 2**60 + 1]
        with pytest.raises(ValueError, match="update count 10.5 is not an integer"):
            linear_checkpoints(10.5)

    def test_linear_checkpoints_past_the_double_range(self):
        # a point n_max * i / count past the largest double is refused with
        # a ValueError naming the update count, not an OverflowError
        for n_max in (10**400, 2**1025, 2**1024 * 16 // 15):
            with pytest.raises(ValueError, match=f"^update count {n_max} is too large"):
                linear_checkpoints(n_max)
        # up to there every point is a double, rounded as below it
        assert linear_checkpoints(2**1024) == [2**1020 * i for i in range(1, 17)]

    def test_linear_checkpoints_names_its_count(self):
        # `count` bounds the number returned, so it is an integer >= 1, and
        # the message names it apart from the update count n_max
        with pytest.raises(ValueError) as exc:
            linear_checkpoints(100, 0)
        assert str(exc.value) == "checkpoint count 0 is outside 1..inf"
        with pytest.raises(ValueError, match="checkpoint count -4 is outside 1..inf"):
            linear_checkpoints(33, -4)
        with pytest.raises(ValueError, match="checkpoint count 2.5 is not an integer"):
            linear_checkpoints(33, 2.5)

    def test_checkpoint_validation(self):
        # the library sorts and deduplicates; it refuses non-integers and
        # counts outside 1..n_max, naming the one value it refuses
        assert run_trajectory(FP4, 10, 1, [5, 3, 5]) == run_trajectory(FP4, 10, 1, [3, 5])
        with pytest.raises(ValueError, match="update count 0 is outside 1..10"):
            run_trajectory(FP4, 10, 1, [0, 5])
        with pytest.raises(ValueError, match="update count 11 is outside 1..10"):
            run_trajectory(FP4, 10, 1, [5, 11])
        with pytest.raises(ValueError, match="update count 2.5 is not an integer"):
            run_trajectory(FP4, 10, 1, [2.5])
        with pytest.raises(ValueError, match="update count '3' is not an integer"):
            run_trajectory(FP4, 10, 1, ["3"])
        with pytest.raises(ValueError, match="update count 10.5 is not an integer"):
            run_trajectory(FP4, 10.5, 1, [5])
        with pytest.raises(ValueError, match="update count 10.5 is not an integer"):
            run_ensemble(FP4, 10.5, 2, 1)
        with pytest.raises(ValueError, match="update count 0 is outside"):
            run_trajectory(FP4, 0, 1, [])


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

    @pytest.mark.parametrize("params", [FP4, CounterParams.qary(16)], ids=str)
    @pytest.mark.parametrize("seed, same", [(-1, 2**64 - 1), (2**64 + 5, 5)])
    def test_seeds_taken_mod_2_64(self, params, seed, same):
        cps = [1, 30, 700]
        points = run_trajectory(params, 700, seed, cps)
        assert points == run_trajectory(params, 700, same, cps)
        assert points != run_trajectory(params, 700, same - 1, cps)
        a = run_ensemble(params, 700, 3, seed=seed, checkpoints=cps)
        b = run_ensemble(params, 700, 3, seed=same, checkpoints=cps)
        for field in ("states", "bits", "estimates"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


class TestEngineEquivalence:
    @staticmethod
    def _scalar_points(params, n_max, cps, seed):
        # (state, stream position) of the scalar loop at each checkpoint
        src, state, out = BitSource(seed), new_counter(), []
        for m in range(1, n_max + 1):
            state = increment(state, params, src)
            if m == cps[len(out)]:
                out.append((state.k, src.stream_position))
                if len(out) == len(cps):
                    break
        return out

    def _assert_matches_scalar(self, params, n_max, cps, seed=42):
        # one kernel per family at every seed count; at 32 seeds the
        # early qary windows step their rows and the later ones walk
        seeds = [child_seed(seed, i) for i in range(32)]
        want = [self._scalar_points(params, n_max, cps, s) for s in seeds]
        for reps in (1, 2, 3, 32):
            states, bits, estimates = simulate(
                params, n_max, np.array(seeds[:reps], dtype=np.uint64), cps
            )
            for i in range(reps):
                assert list(zip(states[:, i].tolist(), bits[:, i].tolist())) == want[i]
                assert estimates[:, i].tolist() == [
                    estimate_float(params, k) for k, _ in want[i]
                ]

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

    @settings(max_examples=60, deadline=None)
    @given(
        r=st.sampled_from([1, 2, 16, 2**20]),
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**64 - 1),
        draws=st.sampled_from([53, 1000, _DRAWS]),
        window=st.sampled_from([1, 7, _WINDOW]),
        walk=st.sampled_from([0, _WALK, 2**64]),
        data=st.data(),
    )
    def test_qary_kernel_matches_scalar(self, r, n, seed, draws, window, walk, data):
        # 1 to 40 seeds, fewer at large n.  A _WALK of 0 steps every
        # window's rows, and 2**64 walks every window's candidates;
        # qary(2**20), and the first states of every qary, have a candidate
        # in most draws.  Small chunks and windows put their edges among
        # the advances
        params = CounterParams.qary(r)
        reps = data.draw(st.integers(1, max(1, min(40, 20000 // n))))
        seeds = [child_seed(seed, i) for i in range(reps)]
        cps = sorted(data.draw(st.sets(st.integers(1, n), min_size=1, max_size=8)) | {n})
        states = np.zeros((len(cps), reps), dtype=np.uint64)
        bits = np.zeros_like(states)
        with (
            mock.patch("fpcount._engine._DRAWS", draws),
            mock.patch("fpcount._engine._WINDOW", window),
            mock.patch("fpcount._engine._WALK", walk),
        ):
            _qary_windows(params, np.array(seeds, dtype=np.uint64), cps, states, bits)
        for i, s in enumerate(seeds):
            want = self._scalar_points(params, n, cps, s)
            assert list(zip(states[:, i].tolist(), bits[:, i].tolist())) == want

    @pytest.mark.parametrize("r", [1, 16, 2**20])
    def test_qary_table_is_the_scalar_probability(self, r):
        # grown in uneven steps past the ceiling, whose entry is 0 so that a
        # saturated counter stays put; each growth at least doubles it
        params = CounterParams.qary(r)
        q = []
        for top in (0, 1, 2, 700, 700, 40000, DEFAULT_CEILING - 1, 2**20):
            size = len(q)
            table = _thresholds(params, q, top)
            grown = min(max(top, 2 * size), DEFAULT_CEILING) + 1 if top >= size else size
            assert table.tolist() == q and len(q) == grown
        want = [transition_prob(params, k) for k in range(DEFAULT_CEILING)] + [0.0]
        assert q == want

    @pytest.mark.parametrize("params", ALL_FAMILIES, ids=str)
    def test_many_replicates_run_in_bounded_slices(self, params):
        # past SPAN_WORDS // 2 replicates the kernels run a slice at a
        # time, so every scan span holds 2 blocks of each replicate and
        # SPAN_WORDS blocks in all; columns either side of the slice
        # boundary match the scalar loop
        size = SPAN_WORDS // 2 + 3
        seeds = np.array([child_seed(8, i) for i in range(size)], dtype=np.uint64)
        cps = [1, 30, 60]
        spans = []

        def spy(seeds, *args):
            spans.append((seeds.size, args[-1]))
            return stream_skip(seeds, *args)

        with mock.patch("fpcount._engine.stream_skip", spy):
            states, bits, _ = simulate(params, 60, seeds, cps)
        assert all(2 <= blocks and rows * blocks <= SPAN_WORDS for rows, blocks in spans)
        if params.family is not Family.QARY:
            assert max(rows for rows, _ in spans) == SPAN_WORDS // 2
        for i in (0, size // 2, SPAN_WORDS // 2 - 1, SPAN_WORDS // 2, size - 1):
            want = self._scalar_points(params, 60, cps, int(seeds[i]))
            assert list(zip(states[:, i].tolist(), bits[:, i].tolist())) == want

    # sha256 of simulate's states and then bits, as <u8 bytes, at log
    # checkpoints for seeds child_seed(1, i): the shapes the benchmark runs,
    # past the sizes the scalar loop checks, pinned as the engine made them
    # before its scan kernel became one level per call
    DIGESTS = {
        ("morris", 1, 32768): "942904b288aa877616e813f43ae0ae71ba3b6d0e506236fcb2f6f81a1bbdc759",
        ("morris", 32, 2048): "0454a335efeb700de46b1727ac45f96881bd94469d76f063288a917d3297d645",
        ("morris", 1000, 4096): "d965caa0e846d38c04c34fc5c8ef4d3bbd8d6e296a8ad22557ad472a0371f346",
        ("fp4", 1, 32768): "c1d6cb5e28801e83308db017bef902dc8407a5369a862b0ccc07ef0cc2185bbf",
        ("fp4", 32, 2048): "c1bf4f7624f19db3cedaec98afb2c802ebfa1372167c0b1181b467df94bc87fb",
        ("fp4", 1000, 4096): "a260ad0a87fe85a4040b20980deef4d09da49e164f31dc18850dc18af97644b8",
        ("fp8", 1, 32768): "5a2fa80fd88307a10bbf4f481b5506dfba45f8d4bd8a54e18c28ac89a43ee8b8",
        ("fp8", 32, 2048): "147cfef405006a9bdfae4b36cce0f941c15b11644b24ed8cb8534d7449a12718",
        ("fp8", 1000, 4096): "f2fc0ac57c24cd80f88daec4db127955747e6fb72bb83bd53d4118b84046f058",
        # recorded before the per-seed qary kernel walked only its candidates
        ("qary16", 1, 32768): "eba1f87b7f3bb2f0f1c847479c24905062cca8d2199bb950911807184a41a57d",
        ("qary16", 4, 100000): "c28de5f0a619aa6af486b47f9a680b16133b351f48611b0ca18f4dd76367f8b2",
        ("qary16", 32, 2048): "79b98f7ff3d0a7539dc5b2489520a23b637bd35b56bb9cc443dc3987e7a85d48",
        ("qary16", 1000, 4096): "49fe0e45bdb0c51aa306fae522bf9d36b15bc8e0b733055ae021ac581fe65afa",
    }

    @pytest.mark.parametrize("key", DIGESTS, ids=lambda key: "-".join(map(str, key)))
    def test_digests_at_benchmark_shapes(self, key):
        name, reps, n = key
        params = {
            "morris": CounterParams.morris(),
            "fp4": FP4,
            "fp8": CounterParams.fp(8),
            "qary16": CounterParams.qary(16),
        }[name]
        seeds = np.array([child_seed(1, i) for i in range(reps)], dtype=np.uint64)
        states, bits, _ = simulate(params, n, seeds, log_checkpoints(n))
        data = states.astype("<u8").tobytes() + bits.astype("<u8").tobytes()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[key]

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
        with pytest.raises(ValueError, match=r"^replicates 1 is outside 2\.\.inf$"):
            run_ensemble(FP4, 10, 1, seed=1)

    def test_needs_a_checkpoint(self):
        with pytest.raises(ValueError, match="an ensemble needs at least one checkpoint"):
            run_ensemble(FP4, 10, 2, seed=1, checkpoints=[])

    def test_integer_inputs_are_read_by_the_rule(self):
        # numpy ints are read as ints; a float is refused by name, not truncated
        a = run_ensemble(FP4, 64, np.int64(3), np.uint64(5), first_replicate=np.int8(2))
        b = run_ensemble(FP4, 64, 3, 5, first_replicate=2)
        assert np.array_equal(a.states, b.states) and np.array_equal(a.bits, b.bits)
        for kwargs, message in [
            (dict(replicates=2.5), "replicates 2.5 is not an integer"),
            (dict(seed=1.5), "seed 1.5 is not an integer"),
            (dict(first_replicate=-1), r"first_replicate -1 is outside 0\.\.inf"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                run_ensemble(FP4, 10, **{"replicates": 2, "seed": 1, **kwargs})
        with pytest.raises(ValueError, match="^seed 1.5 is not an integer$"):
            run_trajectory(FP4, 10, 1.5, [5])
        assert run_trajectory(FP4, 64, np.uint64(5), [64]) == run_trajectory(FP4, 64, 5, [64])

    @pytest.mark.parametrize("params", ALL_FAMILIES, ids=str)
    def test_report_states_read_raw_or_as_int(self, params):
        # states are uint64; the closed forms read each element as its int
        report = run_ensemble(params, 256, 8, seed=3)
        for k in report.states.ravel():
            for read in (estimate, estimate_float, variance_fn, transition_prob):
                assert read(params, k) == read(params, int(k))
                assert type(read(params, k)) is type(read(params, int(k)))

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
