"""Formula-level checks: transition probabilities, the unbiased estimate
f, the variance function g, closed forms vs defining series, spread and
asymptotic accuracy windows, and float-range policing."""

import decimal
import math
import pickle
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcount import (
    AccuracyBounds,
    CounterParams,
    CounterRangeError,
    Family,
    accuracy_limits,
    estimate,
    estimate_float,
    estimate_series,
    relative_spread,
    transition_prob,
    variance_fn,
    variance_series,
)
from fpcount.chain import _sqrt_ratio, _transition_probs

MORRIS = CounterParams.morris()
FP2 = CounterParams.fp(2)
FP4 = CounterParams.fp(4)
Q16 = CounterParams.qary(16)


class TestParams:
    def test_factories(self):
        assert MORRIS.family is Family.MORRIS
        assert FP4.d == 4 and FP4.modulus == 16
        assert Q16.r == 16 and Q16.base == pytest.approx(2 ** (1 / 16), rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(family="fp"),  # missing d
            dict(family="fp", d=-1),
            dict(family="fp", d=2, r=3),
            dict(family="qary"),  # missing r
            dict(family="qary", r=0),
            dict(family="qary", r=4, d=1),
            dict(family="morris", d=0),
            dict(family="morris", r=1),
        ],
    )
    def test_rejects_bad_combinations(self, kwargs):
        with pytest.raises(ValueError):
            CounterParams(**kwargs)

    def test_parameters_are_read_as_python_ints(self):
        # equal params must compute alike: a numpy d would run the closed forms in int64
        for params, want in [(CounterParams.fp(np.int64(4)), FP4),
                             (CounterParams.qary(np.uint8(16)), Q16)]:
            assert params == want
            assert type(params.param_value) is int
            assert estimate(params, 1100) == estimate(want, 1100)
        for make, message in [
            (lambda: CounterParams.qary(1.5), "r 1.5 is not an integer"),
            (lambda: CounterParams.fp(4.0), "d 4.0 is not an integer"),
            (lambda: CounterParams.fp(-1), r"d -1 is outside 0\.\.inf"),
            (lambda: CounterParams.qary(0), r"r 0 is outside 1\.\.inf"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                make()

    def test_family_coerced_from_string(self):
        assert CounterParams(family="fp", d=3).family is Family.FP
        assert str(Family.QARY) == "qary"

    def test_param_value(self):
        assert MORRIS.param_value is None
        assert FP4.param_value == 4
        assert Q16.param_value == 16

    def test_family_only_properties(self):
        with pytest.raises(ValueError):
            MORRIS.modulus
        with pytest.raises(ValueError):
            FP4.base
        with pytest.raises(ValueError):
            Q16.scan_length(3)

    def test_scan_length(self):
        assert MORRIS.scan_length(7) == 7
        assert [FP2.scan_length(k) for k in range(9)] == [0, 0, 0, 0, 1, 1, 1, 1, 2]


class TestTransitionProb:
    def test_dyadic_families_are_exact_fractions(self):
        assert transition_prob(MORRIS, 3) == Fraction(1, 8)
        assert transition_prob(FP2, 5) == Fraction(1, 2)
        assert transition_prob(FP2, 0) == 1

    def test_qary_floats(self):
        assert transition_prob(Q16, 0) == 1.0
        assert transition_prob(Q16, 16) == 0.5  # exact: an integer power of 2
        assert transition_prob(Q16, 8) == pytest.approx(2**-0.5, rel=1e-15)

    def test_negative_state_rejected(self):
        with pytest.raises(ValueError):
            transition_prob(MORRIS, -1)

    @pytest.mark.parametrize(
        "params",
        [MORRIS, *map(CounterParams.fp, range(13)), *map(CounterParams.qary, range(1, 65))],
        ids=str,
    )
    def test_vector_table_is_the_scalar_probability(self, params):
        # every state from 0 for short prefixes, then bands around the
        # exponents where 2**-t turns subnormal (1023) and rounds to 0.0
        # (1075), each band entered mid-range as the oracle's growth does
        step = params.r or 1 << (params.d or 0)
        starts = [0, step - 1, 1021 * step, 1073 * step - 1, 1075 * step + 1]
        for start in starts:
            stop = start + 3 * step + 2
            table = _transition_probs(params, start, stop)
            scalar = np.array([float(transition_prob(params, k)) for k in range(start, stop)])
            assert table.dtype == scalar.dtype
            assert table.tobytes() == scalar.tobytes()
        assert table[-1] == 0.0


class TestEstimate:
    @pytest.mark.parametrize("k", [np.uint64(70), np.int64(70), np.uint64(1000), np.uint64(1100)])
    @pytest.mark.parametrize("params", [MORRIS, FP4, Q16], ids=str)
    def test_numpy_states_read_exactly(self, params, k):
        # report states are uint64, whose arithmetic wraps where an int grows
        for read in (estimate, estimate_float, variance_fn, transition_prob):
            try:
                want = read(params, int(k))
            except CounterRangeError:
                with pytest.raises(CounterRangeError):
                    read(params, k)
                continue
            got = read(params, k)
            assert got == want and type(got) is type(want)
        if params is FP4 and k == 1100:
            assert estimate(params, k) == 8264141345021879123952

    def test_fp_pins(self):
        # d=2: k=5 is exponent 1, significand 1 -> (4+1)*2 - 4 = 6
        assert estimate(FP2, 5) == 6
        assert estimate(FP2, 0) == 0
        assert estimate(MORRIS, 3) == 7  # 2**3 - 1

    def test_fp_identity_region(self):
        # while the exponent is 0 the counter is exact: f(k) = k
        assert [estimate(FP4, k) for k in range(18)] == list(range(17)) + [18]

    def test_closed_form_equals_series(self):
        for params in (MORRIS, CounterParams.fp(1), CounterParams.fp(3)):
            for k in range(0, 120):
                assert estimate(params, k) == estimate_series(params, k)

    def test_qary_matches_series(self):
        for k in range(0, 300, 7):
            assert estimate(Q16, k) == pytest.approx(
                estimate_series(Q16, k), rel=1e-12
            )

    def test_qary_r1_agrees_with_morris(self):
        q1 = CounterParams.qary(1)
        for k in range(1, 50):
            assert estimate(q1, k) == pytest.approx(estimate(MORRIS, k), rel=1e-12)

    def test_qary_overflow(self):
        with pytest.raises(CounterRangeError):
            estimate(CounterParams.qary(1), 1100)


class TestVarianceFn:
    def test_pins(self):
        assert variance_fn(FP2, 5) == 2
        assert variance_fn(MORRIS, 2) == 2  # (1-1/2)/(1/2)**2
        assert variance_fn(MORRIS, 0) == 0

    def test_closed_form_equals_series(self):
        for params in (MORRIS, CounterParams.fp(1), CounterParams.fp(3)):
            for k in range(0, 120):
                assert variance_fn(params, k) == variance_series(params, k)

    def test_always_an_integer_for_bit_scan_families(self):
        for d in range(5):
            params = CounterParams.fp(d)
            for k in range(80):
                assert isinstance(variance_fn(params, k), int)

    def test_qary_matches_series(self):
        for k in range(0, 200, 5):
            assert variance_fn(Q16, k) == pytest.approx(
                variance_series(Q16, k), rel=1e-9, abs=1e-12
            )

    def test_qary_overflow(self):
        # the second moment overflows well before the estimate does
        q1 = CounterParams.qary(1)
        estimate(q1, 600)  # fine
        with pytest.raises(CounterRangeError):
            variance_fn(q1, 600)


class TestRelativeSpread:
    def test_pin(self):
        assert relative_spread(FP2, 5) == pytest.approx(math.sqrt(2) / 6, rel=1e-14)

    def test_undefined_at_zero(self):
        with pytest.raises(ValueError):
            relative_spread(MORRIS, 0)

    def test_huge_states_do_not_overflow(self):
        # f(4000)**2 is a ~2400-digit integer; the rational route keeps
        # the quotient finite where naive float evaluation would die
        value = relative_spread(MORRIS, 4000)
        assert value == pytest.approx(math.sqrt(1 / 3), rel=1e-12)

    def test_morris_limit(self):
        assert relative_spread(MORRIS, 200) == pytest.approx(
            math.sqrt(1 / 3), rel=1e-12
        )

    def test_ratio_below_the_double_range(self):
        # g/f**2 ~ 2/(7 * 2**1100) underflows as a double; its root does not
        value = relative_spread(CounterParams.fp(1100), (3 << 1100) + 5)
        assert value == pytest.approx(math.sqrt(2 / 7) * 2.0**-550, rel=1e-12, abs=0)

    def test_qary_limit_relation(self):
        # spread b of the state solves b**2/(1 - b**2) = (q-1)/2, the
        # squared asymptotic accuracy
        b = relative_spread(Q16, 4000)
        lam2 = b * b
        assert lam2 / (1 - lam2) == pytest.approx((2 ** (1 / 16) - 1) / 2, rel=1e-9)


class TestAccuracyLimits:
    def test_fp_window(self):
        bounds = accuracy_limits(FP4)
        assert bounds.lower == pytest.approx(math.sqrt(1 / 47), rel=1e-15)
        assert bounds.upper == pytest.approx(math.sqrt(3 / 125), rel=1e-15)

    def test_fp_window_is_the_correctly_rounded_root(self):
        # a 60-digit root is far closer to the exact one than any gap to a
        # rounding boundary here, so float() of it is the correctly rounded
        # double; math.sqrt(1.0 / (3*m - 1)) rounds twice and misses at d = 10
        ctx = decimal.Context(prec=60)
        for d in [*range(65), 1000, 2000]:
            m = 1 << d
            bounds = accuracy_limits(CounterParams.fp(d))
            lower = ctx.sqrt(ctx.divide(1, 3 * m - 1))
            upper = ctx.sqrt(ctx.divide(3, 8 * m - 3))
            assert (bounds.lower, bounds.upper) == (float(lower), float(upper)), d

    def test_fp_window_past_the_int_to_float_range(self):
        bounds = accuracy_limits(CounterParams.fp(2000))  # 3 * 2**2000 overflows
        scale = 2.0**-1000
        assert bounds.lower == pytest.approx(math.sqrt(1 / 3) * scale, rel=1e-12, abs=0)
        assert bounds.upper == pytest.approx(math.sqrt(3 / 8) * scale, rel=1e-12, abs=0)

    def test_fp_window_is_the_formula_at_every_d(self):
        # from d = 2149 on both ends round to 0.0 without 2**d being built;
        # below that, and a way past it, the bytes are the formula's
        for d in range(4001):
            m = 1 << d
            bounds = accuracy_limits(CounterParams.fp(d))
            want = (_sqrt_ratio(1, 3 * m - 1), _sqrt_ratio(3, 8 * m - 3))
            assert (bounds.lower.hex(), bounds.upper.hex()) == tuple(x.hex() for x in want), d
        assert accuracy_limits(CounterParams.fp(2148)).upper == 5e-324
        assert accuracy_limits(CounterParams.fp(10**12)) == AccuracyBounds(0.0, 0.0)

    def test_morris_collapses(self):
        bounds = accuracy_limits(MORRIS)
        assert bounds.lower == bounds.upper == pytest.approx(math.sqrt(0.5))

    def test_qary_collapses(self):
        bounds = accuracy_limits(Q16)
        assert bounds.lower == bounds.upper
        assert bounds.lower == pytest.approx(math.sqrt((2 ** (1 / 16) - 1) / 2), rel=1e-9)

    def test_fp_cycle_spreads_lie_in_the_window_ends(self):
        # M*g/f**2 over one significand cycle, exactly, at t = 200: within
        # O(2**-t) of [1/3, 3/8], the range the window's ends come from
        t = 200
        bottom, top = Fraction(1, 3) - Fraction(1, 2**150), Fraction(3, 8)
        for d in range(11):
            params, m = CounterParams.fp(d), 1 << d
            ratios = [
                Fraction(m * variance_fn(params, k), estimate(params, k) ** 2)
                for k in range(m * t, m * t + m)
            ]
            assert all(bottom < r <= top for r in ratios), d
            if d == 0:  # one state per cycle: morris
                assert max(ratios) == min(ratios)

    def test_fp0_window_contains_the_morris_limit(self):
        # the fp window treats the worst significand as continuous, so at
        # d=0 it is an outer bound: its lower end is the true morris limit
        # and its upper end (sqrt(3/5)) is conservative
        fp0 = accuracy_limits(CounterParams.fp(0))
        morris = accuracy_limits(MORRIS)
        assert fp0.lower == morris.lower
        assert fp0.lower <= morris.upper <= fp0.upper

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            AccuracyBounds(0.5, 0.1)
        with pytest.raises(ValueError):
            AccuracyBounds(-0.1, 0.5)


class TestEstimateFloat:
    def test_matches_exact_int(self):
        for k in range(0, 200, 3):
            assert estimate_float(FP4, k) == float(estimate(FP4, k))

    def test_raises_instead_of_inf(self):
        with pytest.raises(CounterRangeError):
            estimate_float(MORRIS, 20000)
        # ... while the exact integer form still works at that state
        assert estimate(MORRIS, 20000) == (1 << 20000) - 1

    def test_wide_significand_small_state(self):
        # t = 0: the estimate is the significand, however large 2**d is
        assert estimate_float(CounterParams.fp(1100), 5) == 5.0

    def test_huge_exponent_refused_before_building_the_int(self):
        # the exact value would be a 2**40-bit integer
        with pytest.raises(CounterRangeError):
            estimate_float(MORRIS, 2**40)

    @pytest.mark.parametrize("r", range(1, 33))
    def test_qary_finite_until_range_error(self, r):
        # estimate and variance_fn stay finite up to their first refusal,
        # and refuse from there on instead of returning inf
        params = CounterParams.qary(r)
        for fn in (estimate, variance_fn):
            k = 0
            while True:
                try:
                    value = fn(params, k)
                except CounterRangeError:
                    break
                assert math.isfinite(value), (fn.__name__, k)
                k += 1
            for later in (k + 1, k + 100, 2 * k, 10**6):
                with pytest.raises(CounterRangeError):
                    fn(params, later)

    def test_range_error_is_an_overflow_error(self):
        assert issubclass(CounterRangeError, OverflowError)


# every family's reads, shared across examples so that later reads find
# earlier ones stored; nothing below assumes any of them starts empty
READ_PARAMS = (
    [MORRIS]
    + [CounterParams.fp(d) for d in range(9)]
    + [CounterParams.qary(r) for r in (1, 2, 16, 2**20)]
)


def _closed_form(params, k):
    """f(k) as a double, computed here without any cache; None past the range."""
    try:
        if params.family is Family.QARY:
            ln2 = math.log(2.0)
            f = math.expm1(k * ln2 / params.r) / math.expm1(ln2 / params.r)
        else:
            f = float(estimate(params, k))
    except OverflowError:
        return None
    return f if math.isfinite(f) else None


class TestReadCache:
    @settings(max_examples=150, deadline=None)
    @given(
        params=st.sampled_from(READ_PARAMS),
        ks=st.lists(
            st.one_of(
                st.integers(0, 300),
                st.integers(2**16 - 3, 2**16 + 3),
                st.integers(0, 2**18),
            ),
            min_size=1,
            max_size=30,
        ),
        data=st.data(),
    )
    def test_every_read_is_the_closed_form(self, params, ks, data):
        # each state twice, the second time in another order, and as a numpy
        # int too: the first read of a state may store it, the rest find it
        order = ks + data.draw(st.permutations(ks))
        for k in order:
            want = _closed_form(params, k)
            for state in (k, np.int64(k)):
                if want is None:
                    with pytest.raises(CounterRangeError):
                        estimate_float(params, state)
                else:
                    got = estimate_float(params, state)
                    assert type(got) is float
                    assert got == want, (params, k)

    def test_errors_are_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(CounterRangeError):
                estimate_float(MORRIS, 20000)
            for bad, message in [
                (-1, r"state -1 is outside 0\.\.inf"),
                (np.int64(-1), r"state -1 is outside 0\.\.inf"),
                (2.5, "state 2.5 is not an integer"),
                (3.0, "state 3.0 is not an integer"),
            ]:
                with pytest.raises(ValueError, match=f"^{message}$"):
                    estimate_float(FP4, bad)
        assert 20000 not in MORRIS._reads

    @pytest.mark.parametrize("params", [CounterParams.fp(8), CounterParams.qary(2**20)])
    def test_stores_at_most_two_to_the_sixteen_states(self, params):
        states = range(2**16 + 100)
        for _ in range(2):
            for k in states:
                assert estimate_float(params, k) == _closed_form(params, k)
            assert len(params._reads) <= 2**16

    def test_threads_share_one_params(self):
        # reads race on one params from more threads than cores; a store is
        # the value every thread computes, so none can read another
        params = CounterParams.fp(6)
        want = [_closed_form(params, k) for k in range(3000)]
        got, interval = [None] * 6, sys.getswitchinterval()

        def read(i):
            # each thread starts at another state
            ks = [(500 * i + j) % 3000 for j in range(3000)]
            got[i] = {k: estimate_float(params, k) for k in ks}

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all(values == dict(enumerate(want)) for values in got)
        assert [estimate_float(params, k) for k in range(3000)] == want

    def test_a_warm_params_is_a_fresh_one(self):
        warm = CounterParams.qary(16)
        for k in range(500):
            estimate_float(warm, k)
        fresh = CounterParams.qary(16)
        assert warm == fresh and hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)
        assert pickle.dumps(warm) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(warm))
        assert back == fresh and hash(back) == hash(fresh) and repr(back) == repr(fresh)
        assert [estimate_float(back, k) for k in range(500)] == [
            estimate_float(fresh, k) for k in range(500)
        ]
