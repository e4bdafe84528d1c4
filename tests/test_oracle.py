"""Distribution oracle checks.

The exact sweep is validated against an independently written
Fraction-arithmetic recurrence (dict-based, no shared denominators, no
windowing) — the two implementations share no code below the public
API.  Float mode is then pinned against exact mode, and the moment
sweep against per-n distributions.  The in-place window walker is pinned
byte for byte against an allocate-per-step walker kept here.
"""

import math
import tracemalloc
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcount import (
    CounterParams,
    MODE_EXACT,
    MODE_FLOAT,
    accuracy,
    estimate,
    estimate_float,
    expected_bits,
    expected_estimate,
    estimator_variance,
    log_checkpoints,
    step_distribution,
    sweep_moments,
    transition_prob,
    variance_fn,
)
from fpcount.oracle import _FLOAT_FLOOR, _dist_moments, _windows

MORRIS = CounterParams.morris()
FP1 = CounterParams.fp(1)
FP4 = CounterParams.fp(4)
Q16 = CounterParams.qary(16)


def reference_distribution(params, n):
    """Straightforward Fraction DP over a dict: the independent oracle."""
    probs = {0: Fraction(1)}
    for _ in range(n):
        nxt = defaultdict(Fraction)
        for k, p in probs.items():
            q = Fraction(transition_prob(params, k))
            if q != 1:
                nxt[k] += (1 - q) * p
            nxt[k + 1] += q * p
        probs = {k: p for k, p in nxt.items() if p}
    return probs


def reference_windows(params, n_max, exact):
    """The allocate-per-step window walker: (n, lo, weights, scale) per n.

    Each step builds move and stay in fresh arrays and copies them into a
    zeroed window one state wider; the in-place walker must reproduce its
    windows byte for byte.
    """
    lo, scale = 0, (1 if exact else 1.0)
    floor = 0 if exact else _FLOAT_FLOOR
    w = np.array([scale], dtype=object if exact else float)
    if exact:
        t = np.array([params.scan_length(k) for k in range(n_max + 1)], dtype=object)
    else:
        q = np.zeros(0)
    yield 0, lo, w, scale
    for n in range(1, n_max + 1):
        hi = lo + w.size
        if exact:
            s = t[hi - 1]
            move = w << (s - t[lo:hi])
            stay = (w << s) - move
            scale <<= s
        else:
            if hi >= q.size:
                upto = max(2 * q.size, hi + 1, 64)
                q = np.array([float(transition_prob(params, k)) for k in range(upto)])
            move = w * q[lo:hi]
            stay = w - move
        new = np.zeros(w.size + 1, dtype=w.dtype)
        new[:-1] = stay
        new[1:] += move
        start, end = 0, new.size
        while new[start] <= floor:
            start += 1
        while new[end - 1] == 0:
            end -= 1
        lo += start
        w = new[start:end]
        yield n, lo, w, scale


def assert_windows_pinned(params, checkpoints, exact):
    """_windows at sorted `checkpoints` (repeats allowed) == the reference."""
    cps = sorted(checkpoints)
    ref = reference_windows(params, cps[-1], exact)
    n_ref, lo_ref, w_ref, scale_ref = next(ref)
    yields = 0
    for c, (n, lo, weights, scale) in zip(cps, _windows(params, cps, exact)):
        while n_ref < c:
            n_ref, lo_ref, w_ref, scale_ref = next(ref)
        assert (n, lo, type(scale), scale) == (c, lo_ref, type(scale_ref), scale_ref)
        assert weights.dtype == w_ref.dtype
        if exact:
            assert weights.tolist() == w_ref.tolist()
            assert all(type(v) is int for v in weights)
        else:
            assert weights.tobytes() == w_ref.tobytes()
        yields += 1
    assert yields == len(cps)


def around_moves(params, n):
    """Float checkpoints at each step around every move of the reference window.

    The walker's views move only after its window does, so every view move
    lies inside one of these clusters, between long runs of steps.
    """
    cps, span = {n}, None
    for m, lo, w, _ in reference_windows(params, n, False):
        if (lo, w.size) != span:
            span = lo, w.size
            cps.update(c for c in (m - 1, m, m + 1) if 0 <= c <= n)
    return sorted(cps)


@st.composite
def window_walks(draw):
    """(params, checkpoints, exact): n <= 5000 floats, shorter exact walks."""
    exact = draw(st.booleans())
    family = draw(st.sampled_from(["morris", "fp"] if exact else ["morris", "fp", "qary"]))
    if family == "morris":
        params = MORRIS
    elif family == "fp":
        params = CounterParams.fp(draw(st.integers(0, 12)))
    else:
        params = CounterParams.qary(draw(st.integers(1, 64)))
    # exact numerators grow with n and shrink with d: keep examples short
    cap = (60 if family == "morris" else 30 << min(params.d, 4)) if exact else 5000
    n = draw(st.integers(0, cap))
    extra = draw(st.lists(st.integers(0, n), max_size=5))
    return params, [0, n, *extra, *extra[:2]], exact


@settings(max_examples=60, deadline=None)
@given(walk=window_walks())
def test_in_place_windows_match_the_reference_bytes(walk):
    assert_windows_pinned(*walk)


@pytest.mark.parametrize(
    "params, n, exact",
    [
        (CounterParams.fp(12), 300, False),  # one-state window past 64, 128, 256
        (CounterParams.fp(4), 5000, False),  # a spread top through 64 and 128
        (CounterParams.fp(7), 2000, False),  # a spread top through 256
        (Q16, 5000, False),  # q_k not dyadic: w - w*q differs from w*(1 - q)
        (MORRIS, 140, True),  # exact windows hold n + 1 states
        (CounterParams.fp(8), 300, True),
        (CounterParams.fp(8), 20000, False),  # lo drifts past many view moves
        # checkpoint lists in place of n: long runs between sparse yields
        pytest.param(Q16, log_checkpoints(10**5), False, id="qary16-log_checkpoints-1e5"),
        pytest.param(MORRIS, around_moves(MORRIS, 5000), False, id="morris-around-moves-5000"),
        pytest.param(
            CounterParams.fp(0), around_moves(CounterParams.fp(0), 5000), False,
            id="fp0-around-moves-5000",
        ),
    ],
    ids=str,
)
def test_in_place_windows_cross_the_growth_points(params, n, exact):
    if isinstance(n, list):
        cps = n
    else:
        cps = [c for c in [0, 63, 64, 65, 127, 128, 129, 255, 256, 257, n // 2, n, n] if c <= n]
    assert_windows_pinned(params, cps, exact)


def test_exact_walker_allocates_nothing_sized_by_n():
    # the first window comes before any step, so no per-state table is due
    tracemalloc.start()
    try:
        walk = _windows(FP4, [0, 10**6], exact=True)
        next(walk)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    walk.close()
    assert peak < 2**20


def test_float_walker_allocates_nothing_sized_by_n():
    # the q table and views follow the window, never the last checkpoint
    tracemalloc.start()
    try:
        walk = _windows(FP4, [0, 5000, 10**6], exact=False)
        assert [next(walk)[0], next(walk)[0]] == [0, 5000]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    walk.close()
    assert peak < 2**20


@settings(max_examples=100, deadline=None)
@given(
    d=st.one_of(st.none(), st.integers(0, 6)),
    n=st.integers(0, 40),
    extra=st.lists(st.integers(0, 40), max_size=4),
)
def test_window_walker_matches_reference(d, n, extra):
    # both arithmetic modes of the one window walker against the dict DP
    params = MORRIS if d is None else CounterParams.fp(d)
    ref = reference_distribution(params, n)
    exact = step_distribution(params, n, MODE_EXACT)
    assert {k: p for k, p in enumerate(exact.probs) if p} == ref
    approx = step_distribution(params, n, MODE_FLOAT)
    for k, p in enumerate(approx.probs):
        assert abs(p - ref.get(k, 0)) <= 1e-13
    for rec in sweep_moments(params, [n, *extra], MODE_EXACT):
        assert rec.mean == rec.n
        assert rec.variance == rec.mean_variance_fn


class TestStepDistribution:
    def test_morris_hand_enumerations(self):
        d2 = step_distribution(MORRIS, 2, MODE_EXACT)
        assert d2.probs[1] == Fraction(1, 2) and d2.probs[2] == Fraction(1, 2)
        d3 = step_distribution(MORRIS, 3, MODE_EXACT)
        assert d3.probs[1] == Fraction(1, 4)
        assert d3.probs[2] == Fraction(5, 8)
        assert d3.probs[3] == Fraction(1, 8)

    def test_deterministic_prefix_is_a_point_mass(self):
        dist = step_distribution(CounterParams.fp(2), 4, MODE_EXACT)
        assert dist.probs[4] == 1
        assert dist.support() == [4]

    @pytest.mark.parametrize("params", [MORRIS, FP1, CounterParams.fp(3)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21])
    def test_exact_mode_matches_reference(self, params, n):
        dist = step_distribution(params, n, MODE_EXACT)
        ref = reference_distribution(params, n)
        got = {k: p for k, p in enumerate(dist.probs) if p}
        assert got == ref

    def test_probabilities_sum_to_one_exactly(self):
        for n in (1, 7, 40):
            assert sum(step_distribution(MORRIS, n, MODE_EXACT).probs) == 1

    def test_float_mode_tracks_exact(self):
        for params in (MORRIS, FP1):
            ex = step_distribution(params, 48, MODE_EXACT)
            fl = step_distribution(params, 48, MODE_FLOAT)
            for k, p in enumerate(ex.probs):
                assert float(fl.probs[k]) == pytest.approx(float(p), abs=2e-14)

    def test_float_mass_conserved(self):
        dist = step_distribution(FP4, 3000, MODE_FLOAT)
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)

    def test_qary_float_reference(self):
        # the recurrence itself, run in plain floats, state by state
        probs = {0: 1.0}
        for _ in range(30):
            nxt = defaultdict(float)
            for k, p in probs.items():
                q = transition_prob(Q16, k)
                if q < 1.0:
                    nxt[k] += (1.0 - q) * p
                nxt[k + 1] += q * p
            probs = dict(nxt)
        dist = step_distribution(Q16, 30, MODE_FLOAT)
        for k, p in probs.items():
            assert dist.probs[k] == pytest.approx(p, rel=1e-12, abs=1e-300)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            step_distribution(Q16, 5, MODE_EXACT)
        with pytest.raises(ValueError):
            step_distribution(MORRIS, 5, "sloppy")
        with pytest.raises(ValueError):
            step_distribution(MORRIS, -1)


class TestMoments:
    @pytest.mark.parametrize("params", [MORRIS, FP1, FP4], ids=str)
    def test_unbiased_and_variance_identity_exact(self, params):
        for n in (1, 2, 3, 10, 33):
            dist = step_distribution(params, n, MODE_EXACT)
            assert expected_estimate(dist, params) == n
            assert (
                estimator_variance(dist, params)
                == _dist_moments(dist, params).mean_variance_fn
            )

    def test_morris_variance_pins(self):
        assert estimator_variance(step_distribution(MORRIS, 2, MODE_EXACT), MORRIS) == 1
        assert estimator_variance(step_distribution(MORRIS, 3, MODE_EXACT), MORRIS) == 3

    def test_float_mode_near_exact(self):
        for params in (MORRIS, FP1):
            ex = step_distribution(params, 64, MODE_EXACT)
            fl = step_distribution(params, 64, MODE_FLOAT)
            assert expected_estimate(fl, params) == pytest.approx(64.0, rel=1e-13)
            assert estimator_variance(fl, params) == pytest.approx(
                float(estimator_variance(ex, params)), rel=1e-10
            )

    def test_qary_float_unbiased(self):
        dist = step_distribution(Q16, 500, MODE_FLOAT)
        assert expected_estimate(dist, Q16) == pytest.approx(500.0, rel=1e-11)

    def test_accuracy_pin(self):
        dist = step_distribution(MORRIS, 3, MODE_EXACT)
        assert accuracy(dist, MORRIS) == pytest.approx(math.sqrt(3) / 3, rel=1e-15)
        with pytest.raises(ValueError):
            accuracy(step_distribution(MORRIS, 0, MODE_EXACT), MORRIS)


class TestSweepMoments:
    @pytest.mark.parametrize("params", [MORRIS, FP1, FP4], ids=str)
    def test_exact_sweep_matches_single_shots(self, params):
        cps = [1, 2, 5, 9, 16]
        recs = sweep_moments(params, cps, MODE_EXACT)
        assert [r.n for r in recs] == cps
        for rec in recs:
            dist = step_distribution(params, rec.n, MODE_EXACT)
            assert rec.mean == expected_estimate(dist, params)
            assert rec.variance == estimator_variance(dist, params)
            assert rec.mean_variance_fn == _dist_moments(dist, params).mean_variance_fn

    def test_float_sweep_matches_single_shots(self):
        # one summation rule serves both paths, so they agree to the bit
        cps = [10, 100, 1000, 3000]
        recs = sweep_moments(FP4, cps, MODE_FLOAT)
        for rec in recs:
            dist = step_distribution(FP4, rec.n, MODE_FLOAT)
            assert rec.mean == expected_estimate(dist, FP4)
            assert rec.variance == estimator_variance(dist, FP4)
            assert rec.mean_variance_fn == _dist_moments(dist, FP4).mean_variance_fn
            assert rec.accuracy == accuracy(dist, FP4)

    def test_checkpoint_handling(self):
        assert sweep_moments(MORRIS, [], MODE_EXACT) == []
        recs = sweep_moments(MORRIS, [5, 2, 5], MODE_EXACT)  # deduped, sorted
        assert [r.n for r in recs] == [2, 5]
        recs = sweep_moments(MORRIS, [np.int64(5), 2], MODE_EXACT)  # numpy ints pass
        assert [(r.n, type(r.n)) for r in recs] == [(2, int), (5, int)]
        with pytest.raises(ValueError):
            sweep_moments(MORRIS, [-2], MODE_EXACT)
        # counts are integers: a float is refused by name, not truncated
        with pytest.raises(ValueError, match="update count 2.7 is not an integer"):
            sweep_moments(FP4, [2.7])
        with pytest.raises(ValueError, match="update count 3.5 is not an integer"):
            step_distribution(FP4, 3.5)
        with pytest.raises(ValueError, match="update count 2.5 is not an integer"):
            expected_bits(FP4, 2.5)

    def test_accuracy_property(self):
        rec = sweep_moments(MORRIS, [3], MODE_EXACT)[0]
        assert rec.accuracy == pytest.approx(math.sqrt(3) / 3, rel=1e-15)

    def test_float_accuracy_cross_checked_by_exact(self):
        # one value used by the asymptotic-window acceptance run,
        # recomputed here in exact rational arithmetic at smaller n
        ex = sweep_moments(FP4, [256], MODE_EXACT)[0]
        fl = sweep_moments(FP4, [256], MODE_FLOAT)[0]
        assert fl.accuracy == pytest.approx(ex.accuracy, rel=1e-12)

    def test_float_windows_shed_their_lower_tail(self):
        # a subnormal bottom weight times q = 2**-t can round to 0 and stay
        # put forever; the floor drops it (fp(8) kept 878 at n = 20000)
        for _, _, weights, _ in _windows(CounterParams.fp(8), list(range(20001)), exact=False):
            assert weights[0] > _FLOAT_FLOOR


class TestClosedFormAnchors:
    """morris and qary(r) have closed-form moments at every n.

    With base q (2 for morris, 2**(1/r) for qary) the estimate is unbiased,
    E f(X_n) = n, and Var f(X_n) = (q - 1) n (n - 1) / 2 (Morris, CACM 21,
    1978; Flajolet, BIT 25, 1985).  Exact mode meets them as Fractions;
    float mode meets them within 1e-12 relative up to n = 2**17, which
    catches a floor above about 1e-14 but not one of 1e-30 or 1e-16: those
    move the moments by less than 1e-16 relative.
    """

    def test_exact_morris_meets_the_anchor(self):
        for rec in sweep_moments(MORRIS, [10, 100, 500], MODE_EXACT):
            assert rec.mean == rec.n
            assert rec.variance == Fraction(rec.n * (rec.n - 1), 2)

    @pytest.mark.parametrize(
        "params, q",
        [pytest.param(MORRIS, 2.0, id="morris")]
        + [pytest.param(CounterParams.qary(r), 2 ** (1 / r), id=f"qary{r}") for r in (1, 2, 3, 16)],
    )
    def test_float_sweep_meets_the_anchor(self, params, q):
        for rec in sweep_moments(params, [2**10, 2**14, 2**17], MODE_FLOAT):
            n = rec.n
            assert abs(rec.mean / n - 1) <= 1e-12
            assert abs(rec.variance / ((q - 1) * n * (n - 1) / 2) - 1) <= 1e-12


class TestExpectedBits:
    def test_exact_pins(self):
        fp0 = CounterParams.fp(0)
        cost1 = expected_bits(fp0, 1, MODE_EXACT)
        assert (cost1.expected, cost1.alt_expected) == (1, 1)
        cost2 = expected_bits(fp0, 2, MODE_EXACT)
        assert cost2.expected == Fraction(5, 4)
        assert cost2.alt_expected == Fraction(7, 6)

    def test_deterministic_prefix_costs_nothing(self):
        cost = expected_bits(CounterParams.fp(2), 3, MODE_EXACT)
        assert cost.expected == 0
        assert cost.alt_expected == 0

    @pytest.mark.parametrize("params", [MORRIS, FP1, CounterParams.fp(3)], ids=str)
    @pytest.mark.parametrize("n", range(1, 22))
    def test_exact_matches_reference(self, params, n):
        # a stopped scan of t bits reads bit i (0-based) iff bits 0..i-1 were all 0
        expected = alt = Fraction(0)
        for k, p in reference_distribution(params, n).items():
            t = params.scan_length(k)
            expected += p * sum(Fraction(1, 1 << i) for i in range(t))
            if t:
                alt += p * (2 - Fraction(t, (1 << t) - 1))
        cost = expected_bits(params, n, MODE_EXACT)
        assert (cost.expected, cost.alt_expected) == (expected, alt)

    def test_float_matches_exact(self):
        for n in (1, 2, 7, 20):
            ex = expected_bits(MORRIS, n, MODE_EXACT)
            fl = expected_bits(MORRIS, n, MODE_FLOAT)
            assert fl.expected == pytest.approx(float(ex.expected), rel=1e-13)
            assert fl.alt_expected == pytest.approx(float(ex.alt_expected), rel=1e-13)

    def test_two_closed_forms_differ_beyond_t1(self):
        # per-call scan cost at t=2 is 3/2; the alternative form gives 4/3.
        # both are reported; only the first is the actual cost.
        cost = expected_bits(MORRIS, 40, MODE_FLOAT)
        assert cost.expected != cost.alt_expected

    def test_qary_rejected(self):
        with pytest.raises(ValueError):
            expected_bits(Q16, 5)
