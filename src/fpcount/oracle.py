"""State distributions after n updates, and the moments derived from them.

The distribution of the counter state X_n obeys the one-step recurrence

    p[n+1][k] = (1 - q_k) * p[n][k] + q_{k-1} * p[n][k-1],   p[0][0] = 1.

Two evaluation modes:

* ``exact`` (morris/fp only): every q_k is a power of 1/2, so each
  p[n][k] is a dyadic rational.  The sweep carries integer numerators
  over one shared power-of-two denominator and never rounds; moments
  come out as exact Fractions.  Cost grows like O(n**2) coefficient
  operations on numerators whose length grows with n and with the scan
  lengths, so it climbs steeply in n and fastest for small d.  Meant
  for n up to a few hundred for morris and about a thousand for fp(4):
  on one 2.1 GHz Xeon core, n = 500 takes 7 s for morris and n = 1000
  takes 170 s for morris, 13 s for fp(2), 2 s for fp(4) (30 s at
  n = 2000).
* ``float``: IEEE doubles over the window of states whose probability
  has not underflowed to zero; the window is a few hundred states wide,
  so sweeps to n = 10**5 and beyond take about a second.

Derived quantities: mean estimate (equals n exactly in exact mode),
estimator variance, the expectation of the per-state variance function
(identical to the variance), the accuracy sqrt(Var)/mean, and the
expected random-bit cost of the next update for the bit-scan families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .chain import CounterParams, Family, estimate, estimate_float, variance_fn

MODE_EXACT = "exact"
MODE_FLOAT = "float"

__all__ = [
    "BitCost",
    "MODE_EXACT",
    "MODE_FLOAT",
    "MomentRecord",
    "StepDistribution",
    "accuracy",
    "expected_bits",
    "expected_estimate",
    "expected_variance_fn",
    "estimator_variance",
    "step_distribution",
    "sweep_moments",
]


@dataclass(frozen=True)
class StepDistribution:
    """Distribution of the state after n updates; probs[k] for k = 0..n."""

    n: int
    mode: str
    probs: Sequence

    def support(self) -> list[int]:
        return [k for k, p in enumerate(self.probs) if p]


def _check_mode(params: CounterParams, mode: str) -> None:
    if mode not in (MODE_EXACT, MODE_FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_EXACT and params.family is Family.QARY:
        raise ValueError(
            "exact mode needs dyadic transition probabilities (morris/fp only)"
        )


# -- exact sweep: integer numerators over a shared 2**denom_exp ---------------


def _exact_windows(
    params: CounterParams, n_max: int
) -> Iterator[tuple[int, int, list[int], int]]:
    """Yield (n, lo, numerators, denom_exp) for n = 0..n_max.

    probs[lo + j] = numerators[j] / 2**denom_exp; states outside the
    window have probability exactly zero.
    """
    t_of = params.scan_length
    nums = [1]
    lo = 0
    denom_exp = 0
    yield 0, lo, nums, denom_exp
    for n in range(n_max):
        hi = lo + len(nums) - 1
        s = t_of(hi)  # the largest scan length among active states
        scale = 1 << s
        new = [0] * (len(nums) + 1)
        for j, num in enumerate(nums):
            move = 1 << (s - t_of(lo + j))  # q_k * 2**s
            stay = scale - move  # (1 - q_k) * 2**s
            if stay:
                new[j] += stay * num
            new[j + 1] += move * num
        denom_exp += s
        start = 0
        while start < len(new) and new[start] == 0:
            start += 1
        lo += start
        nums = new[start:]
        yield n + 1, lo, nums, denom_exp


# -- float sweep: dense window of not-yet-underflowed states ------------------


def _q_floats(params: CounterParams, upto: int) -> np.ndarray:
    return np.array(
        [float(_transition_float(params, k)) for k in range(upto)], dtype=np.float64
    )


def _transition_float(params: CounterParams, k: int) -> float:
    if params.family is Family.QARY:
        return 2.0 ** (-(k / params.r))
    return float(Fraction(1, 1 << params.scan_length(k)))


def _float_windows(
    params: CounterParams, n_max: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (n, lo, probs_window) for n = 0..n_max in float mode."""
    p = np.array([1.0])
    lo = 0
    q = _q_floats(params, 64)
    yield 0, lo, p
    for n in range(n_max):
        hi = lo + p.size - 1
        if hi + 1 >= q.size:
            q = _q_floats(params, max(2 * q.size, hi + 2))
        qw = q[lo : hi + 1]
        move = p * qw
        stay = p - move
        new = np.zeros(p.size + 1)
        new[:-1] = stay
        new[1:] += move
        start = 0
        while start < new.size and new[start] == 0.0:
            start += 1
        end = new.size
        while end > start and new[end - 1] == 0.0:
            end -= 1
        lo += start
        p = new[start:end]
        yield n + 1, lo, p


# -- public constructors and moments ------------------------------------------


def step_distribution(
    params: CounterParams, n: int, mode: str = MODE_FLOAT
) -> StepDistribution:
    """Distribution of the state after exactly n updates."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_mode(params, mode)
    if mode == MODE_EXACT:
        for n_done, lo, nums, denom_exp in _exact_windows(params, n):
            pass
        denom = 1 << denom_exp
        probs = [Fraction(0)] * (n + 1)
        for j, num in enumerate(nums):
            probs[lo + j] = Fraction(num, denom)
        return StepDistribution(n, MODE_EXACT, tuple(probs))
    for n_done, lo, window in _float_windows(params, n):
        pass
    arr = np.zeros(n + 1)
    arr[lo : lo + window.size] = window
    return StepDistribution(n, MODE_FLOAT, arr)


def expected_estimate(dist: StepDistribution, params: CounterParams):
    """Mean of the count estimate under `dist`; n exactly in exact mode."""
    if dist.mode == MODE_EXACT:
        return sum(
            (p * estimate(params, k) for k, p in enumerate(dist.probs) if p),
            start=Fraction(0),
        )
    return math.fsum(
        p * estimate_float(params, k) for k, p in enumerate(dist.probs) if p
    )


def estimator_variance(dist: StepDistribution, params: CounterParams):
    """Variance of the count estimate under `dist`.

    Exact mode evaluates E f**2 - n**2 (the mean is exactly n); float
    mode sums centered squares, which is the numerically stable form of
    the same quantity.
    """
    if dist.mode == MODE_EXACT:
        second = sum(
            (p * estimate(params, k) ** 2 for k, p in enumerate(dist.probs) if p),
            start=Fraction(0),
        )
        return second - Fraction(dist.n) ** 2
    mean = expected_estimate(dist, params)
    return math.fsum(
        p * (estimate_float(params, k) - mean) ** 2
        for k, p in enumerate(dist.probs)
        if p
    )


def expected_variance_fn(dist: StepDistribution, params: CounterParams):
    """Expectation of the per-state variance function; equals the variance."""
    if dist.mode == MODE_EXACT:
        return sum(
            (p * variance_fn(params, k) for k, p in enumerate(dist.probs) if p),
            start=Fraction(0),
        )
    return math.fsum(
        p * float(variance_fn(params, k)) for k, p in enumerate(dist.probs) if p
    )


def accuracy(dist: StepDistribution, params: CounterParams) -> float:
    """sqrt(Var f(X_n)) / E f(X_n); undefined at n = 0."""
    if dist.n < 1:
        raise ValueError("accuracy is undefined at n = 0")
    var = estimator_variance(dist, params)
    mean = expected_estimate(dist, params)
    return math.sqrt(float(var)) / float(mean)


@dataclass(frozen=True)
class MomentRecord:
    """Moments of the estimate at one update count."""

    n: int
    mean: object  # Fraction in exact mode, float otherwise
    variance: object
    mean_variance_fn: object

    @property
    def accuracy(self) -> float:
        if self.n < 1:
            raise ValueError("accuracy is undefined at n = 0")
        return math.sqrt(float(self.variance)) / float(self.mean)


def sweep_moments(
    params: CounterParams, checkpoints: Sequence[int], mode: str = MODE_FLOAT
) -> list[MomentRecord]:
    """One sweep to max(checkpoints), recording moments at each checkpoint.

    Far cheaper than calling step_distribution per checkpoint: the DP
    runs once and moment sums are taken over the live window only.
    """
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps:
        return []
    if cps[0] < 0:
        raise ValueError("checkpoints must be nonnegative")
    _check_mode(params, mode)
    want = set(cps)
    records: list[MomentRecord] = []
    f_vals: list = []
    g_vals: list = []

    def _extend_tables(upto: int, as_float: bool) -> None:
        while len(f_vals) < upto:
            k = len(f_vals)
            if as_float:
                f_vals.append(estimate_float(params, k))
                g_vals.append(float(variance_fn(params, k)))
            else:
                f_vals.append(estimate(params, k))
                g_vals.append(variance_fn(params, k))

    if mode == MODE_EXACT:
        for n, lo, nums, denom_exp in _exact_windows(params, cps[-1]):
            if n not in want:
                continue
            _extend_tables(lo + len(nums), as_float=False)
            denom = 1 << denom_exp
            sum_f = sum_f2 = sum_g = 0
            for j, num in enumerate(nums):
                f = f_vals[lo + j]
                sum_f += num * f
                sum_f2 += num * f * f
                sum_g += num * g_vals[lo + j]
            mean = Fraction(sum_f, denom)
            records.append(
                MomentRecord(
                    n=n,
                    mean=mean,
                    variance=Fraction(sum_f2, denom) - mean * mean,
                    mean_variance_fn=Fraction(sum_g, denom),
                )
            )
        return records

    for n, lo, window in _float_windows(params, cps[-1]):
        if n not in want:
            continue
        _extend_tables(lo + window.size, as_float=True)
        f = np.array(f_vals[lo : lo + window.size])
        g = np.array(g_vals[lo : lo + window.size])
        mean = float(window @ f)
        var = float(window @ (f - mean) ** 2)
        records.append(
            MomentRecord(n=n, mean=mean, variance=var, mean_variance_fn=float(window @ g))
        )
    return records


# -- expected bit cost ---------------------------------------------------------


class BitCost(NamedTuple):
    """Expected random-bit cost of the next update, two closed forms.

    ``expected`` is the per-call expectation of the stopped bit scan:
    zero in the deterministic prefix (t = 0) and 2 - 2**(1 - t) for
    t >= 1.  ``alt_expected`` evaluates the variant closed form
    2 - t/(2**t - 1) for the same quantity; the two agree at t = 1 and
    in the large-t limit but differ in between (4/3 vs 3/2 at t = 2),
    so the variant is reported alongside for comparison and never used
    as the cost.
    """

    expected: object
    alt_expected: object


def _scan_cost(t: int, as_float: bool):
    if t == 0:
        return 0.0 if as_float else Fraction(0)
    if as_float:
        return 2.0 - 2.0 ** (1 - t)
    return 2 - Fraction(1, 1 << (t - 1))


def _alt_scan_cost(t: int, as_float: bool):
    if t == 0:
        return 0.0 if as_float else Fraction(0)
    if as_float:
        return 2.0 - t / (2.0**t - 1.0)
    return 2 - Fraction(t, (1 << t) - 1)


def expected_bits(params: CounterParams, n: int, mode: str = MODE_FLOAT) -> BitCost:
    """Expected number of random bits consumed by update n+1.

    Defined for the bit-scan families (morris, fp); a qary update always
    draws exactly 53 bits, so the question only has content here.
    """
    if params.family is Family.QARY:
        raise ValueError("expected_bits applies to the bit-scan families (morris/fp)")
    dist = step_distribution(params, n, mode)
    as_float = dist.mode == MODE_FLOAT
    zero = 0.0 if as_float else Fraction(0)
    expected = zero
    alt = zero
    for k, p in enumerate(dist.probs):
        if not p:
            continue
        t = params.scan_length(k)
        expected += p * _scan_cost(t, as_float)
        alt += p * _alt_scan_cost(t, as_float)
    return BitCost(expected, alt)
