"""State distributions after n updates, and the moments derived from them.

The distribution of the counter state X_n obeys the one-step recurrence

    p[n+1][k] = (1 - q_k) * p[n][k] + q_{k-1} * p[n][k-1],   p[0][0] = 1.

Every result comes from one window sweep of it, which yields for each n
the live states lo.. with p[n][lo + j] = weights[j] / scale, and one
weighted-sum rule over that window: the mean estimate (equal to n), the
estimator variance, the expectation of the per-state variance function
(equal to the variance), the accuracy sqrt(Var)/mean, and the expected
random-bit cost of the next update for the bit-scan families.

Two evaluation modes:

* ``exact`` (morris/fp only): every q_k is 2**-t_k with t_k the scan
  length, so each p[n][k] is a dyadic rational.  The sweep carries
  integer numerators w over one shared scale = 2**e and never rounds.
  With s the largest live scan length, a step moves w << (s - t_k) up
  one state, keeps (w << s) minus that, and shifts scale left by s:
  shifts only, over scan lengths computed once.  Moments come out as
  exact Fractions.  Cost grows like O(n**2) shifts and additions of
  numerators whose length grows with n and with the scan lengths, so it
  climbs steeply in n and fastest for small d.  Meant for n up to about
  a thousand: on one 2.1 GHz Xeon core, n = 500 takes 1.3 s for morris,
  n = 1000 takes 19 s for morris, 4 s for fp(2) and 1.1 s for fp(4), and
  n = 2000 takes 79 s for fp(2), 20 s for fp(4) and 1.3 s for fp(8).
* ``float``: IEEE doubles (scale = 1.0) over the window of states whose
  probability has not underflowed to zero at the top or sunk to 1e-300 at
  the bottom; the window is a few hundred states wide, so sweeps to
  n = 10**5 and beyond take about a second.
  Each weighted sum is ``math.fsum`` of the products, and the variance
  sums centred squares, the numerically stable form.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .chain import (
    CounterParams,
    Family,
    estimate,
    estimate_float,
    transition_prob,
    variance_fn,
)

MODE_EXACT = "exact"
MODE_FLOAT = "float"

# w * q for a subnormal w and q <= 1/2 can round to 0, so without this floor
# a bottom weight could stay forever while its true probability decays
_FLOAT_FLOOR = 1e-300

__all__ = [
    "BitCost",
    "MODE_EXACT",
    "MODE_FLOAT",
    "MomentRecord",
    "StepDistribution",
    "accuracy",
    "expected_bits",
    "expected_estimate",
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


# -- the window sweep ----------------------------------------------------------


def _windows(
    params: CounterParams, n_max: int, exact: bool
) -> Iterator[tuple[int, int, np.ndarray, int | float]]:
    """Yield (n, lo, weights, scale) for n = 0..n_max, dead states trimmed.

    Weights are Python ints (object array) over 2**e, or doubles over 1.0.
    """
    lo, scale = 0, (1 if exact else 1.0)
    floor = 0 if exact else _FLOAT_FLOOR
    w = np.array([scale], dtype=object if exact else float)
    if exact:
        # scan lengths stay Python ints: a numpy int64 would overflow scale
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
        del move, stay  # the consumer runs while this is suspended: free early
        start, end = 0, new.size  # the window holds all the mass, so never empty
        while new[start] <= floor:
            start += 1
        while new[end - 1] == 0:
            end -= 1
        lo += start
        w = new[start:end]
        yield n, lo, w, scale


def _sweep(params: CounterParams, checkpoints, mode: str) -> Iterator[tuple]:
    """Validate, then yield (n, lo, weights, scale) at each distinct checkpoint.

    p[n][lo + j] = weights[j] / scale, in increasing n.
    """
    cps = sorted({int(c) for c in checkpoints})
    if cps and cps[0] < 0:
        raise ValueError(f"update counts must be nonnegative, got {cps[0]}")
    if mode not in (MODE_EXACT, MODE_FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_EXACT and params.family is Family.QARY:
        raise ValueError(
            "exact mode needs dyadic transition probabilities (morris/fp only)"
        )
    if not cps:
        return
    want = set(cps)
    for window in _windows(params, cps[-1], mode == MODE_EXACT):
        if window[0] in want:
            yield window


# -- one weighted sum, one moment rule -----------------------------------------


def _wsum(weights, values, scale):
    """sum(w * v) / scale: an exact Fraction for integer scales, else fsum."""
    products = map(operator.mul, weights, values)
    if isinstance(scale, float):
        return math.fsum(products)
    return Fraction(sum(products), scale)


def _state_values(params: CounterParams, ks, exact: bool) -> tuple[list, list]:
    """f and g at the states ks: exact numbers or doubles."""
    f = [(estimate if exact else estimate_float)(params, k) for k in ks]
    g = [variance_fn(params, k) for k in ks]
    return f, (g if exact else [float(v) for v in g])


def _moments(n: int, weights, f: list, g: list, scale) -> MomentRecord:
    """Moments at update count n from p[k] = weights[j] / scale and f, g at k."""
    mean = _wsum(weights, f, scale)
    # doubles sum centred squares; exact numbers take E f**2 - mean**2
    if isinstance(scale, float):
        variance = _wsum(weights, [(v - mean) ** 2 for v in f], scale)
    else:
        variance = _wsum(weights, [v * v for v in f], scale) - mean * mean
    return MomentRecord(n, mean, variance, _wsum(weights, g, scale))


def _dist_moments(dist: StepDistribution, params: CounterParams) -> MomentRecord:
    ks = dist.support()
    exact = dist.mode == MODE_EXACT
    f, g = _state_values(params, ks, exact)
    return _moments(dist.n, [dist.probs[k] for k in ks], f, g, 1 if exact else 1.0)


# -- public constructors and moments ------------------------------------------


def step_distribution(
    params: CounterParams, n: int, mode: str = MODE_FLOAT
) -> StepDistribution:
    """Distribution of the state after exactly n updates."""
    ((_, lo, weights, scale),) = _sweep(params, [n], mode)
    if mode == MODE_EXACT:
        probs = [Fraction(0)] * (n + 1)
        probs[lo : lo + len(weights)] = [Fraction(w, scale) for w in weights]
        return StepDistribution(n, MODE_EXACT, tuple(probs))
    arr = np.zeros(n + 1)
    arr[lo : lo + len(weights)] = weights
    return StepDistribution(n, MODE_FLOAT, arr)


def expected_estimate(dist: StepDistribution, params: CounterParams):
    """Mean of the count estimate under `dist`; n exactly in exact mode."""
    return _dist_moments(dist, params).mean


def estimator_variance(dist: StepDistribution, params: CounterParams):
    """Variance of the count estimate under `dist`."""
    return _dist_moments(dist, params).variance


def accuracy(dist: StepDistribution, params: CounterParams) -> float:
    """sqrt(Var f(X_n)) / E f(X_n); undefined at n = 0."""
    return _dist_moments(dist, params).accuracy


def sweep_moments(
    params: CounterParams, checkpoints: Sequence[int], mode: str = MODE_FLOAT
) -> list[MomentRecord]:
    """One sweep to max(checkpoints), recording moments at each checkpoint.

    Far cheaper than calling step_distribution per checkpoint: the DP
    runs once and moment sums are taken over the live window only.
    """
    records: list[MomentRecord] = []
    f_vals: list = []
    g_vals: list = []
    for n, lo, weights, scale in _sweep(params, checkpoints, mode):
        hi = lo + len(weights)
        if hi > len(f_vals):
            f_new, g_new = _state_values(
                params, range(len(f_vals), hi), mode == MODE_EXACT
            )
            f_vals += f_new
            g_vals += g_new
        records.append(_moments(n, weights, f_vals[lo:hi], g_vals[lo:hi], scale))
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


def _scan_costs(t: int, as_float: bool) -> tuple:
    """(2 - 2**(1 - t), 2 - t/(2**t - 1)); both are 0 when t = 0."""
    if t == 0:
        return (0.0, 0.0) if as_float else (Fraction(0), Fraction(0))
    if as_float:
        return 2.0 - 2.0 ** (1 - t), 2.0 - t / (2.0**t - 1.0)
    return 2 - Fraction(1, 1 << (t - 1)), 2 - Fraction(t, (1 << t) - 1)


def expected_bits(params: CounterParams, n: int, mode: str = MODE_FLOAT) -> BitCost:
    """Expected number of random bits consumed by update n+1.

    Defined for the bit-scan families (morris, fp); a qary update always
    draws exactly 53 bits, so the question only has content here.
    """
    if params.family is Family.QARY:
        raise ValueError("expected_bits applies to the bit-scan families (morris/fp)")
    ((_, lo, weights, scale),) = _sweep(params, [n], mode)
    costs = [
        _scan_costs(params.scan_length(k), isinstance(scale, float))
        for k in range(lo, lo + len(weights))
    ]
    return BitCost(*(_wsum(weights, column, scale) for column in zip(*costs)))
