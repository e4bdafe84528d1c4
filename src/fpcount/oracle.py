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
  shifts only, over scan lengths computed as the window grows.  Moments
  are exact Fractions.  Cost grows like O(n**2) shifts and additions of
  numerators whose length grows with n and with the scan lengths, so it
  climbs steeply in n and fastest for small d.  Meant for n up to about
  a thousand.  On one 2.1 GHz Xeon core, ``sweep_moments`` at n = 500
  takes 1.3 s for morris, at n = 1000 19 s for morris, 4 s for fp(2) and
  1.1 s for fp(4), and at n = 2000 79 s for fp(2), 20 s for fp(4) and
  1.3 s for fp(8).  ``step_distribution(..., "exact")`` costs about ten
  times as much, since it reduces one ``Fraction`` per live state: 9 to
  14 s at morris n = 500.
* ``float``: IEEE doubles (scale = 1.0) over the window of states whose
  probability has not underflowed to zero at the top or sunk to 1e-300 at
  the bottom.  The window is a few hundred states wide and a step is
  three in-place ufunc calls over it and one test of the bottom state,
  about 2.5 us: on the same Xeon, fp(4) to n = 2**17 takes about 0.3 s
  and qary(16) to n = 10**5 about 0.25 s.
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
    _transition_probs,
    _update_counts,
    estimate,
    estimate_float,
    variance_fn,
)

MODE_EXACT = "exact"
MODE_FLOAT = "float"

# w * q for a subnormal w and q <= 1/2 can round to 0, so without this floor
# a bottom weight could stay forever while its true probability decays
_FLOAT_FLOOR = 1e-300
# zero states the float walker's views hold above the live window when they
# move: runs of steps go up to this long between moves, and the ufuncs carry
# up to twice this many dead states; outputs do not depend on it
_MARGIN = 64

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


def _exact_windows(params: CounterParams, checkpoints: Sequence[int]) -> Iterator[tuple]:
    """The exact walk: integer numerators over one scale 2**e.

    p, live on [lo, hi) and zero above, and the per-state table of scan
    lengths are indexed by state k and grow by doubling.
    """
    n, lo, hi, scale = 0, 0, 1, 1
    p, tab = np.array([1], dtype=object), np.zeros(0, dtype=object)
    for c in checkpoints:
        for _ in range(c - n):
            if hi >= p.size:
                cap = max(2 * p.size, 64)
                # scan lengths stay Python ints: a numpy int64 would overflow scale
                more = [params.scan_length(k) for k in range(tab.size, cap)]
                tab = np.concatenate((tab, np.array(more, dtype=object)))
                p = np.concatenate((p, np.zeros(cap - p.size, dtype=object)))
            s, w = tab[hi - 1], p[lo:hi]
            move = w << (s - tab[lo:hi])
            w <<= s
            w -= move
            p[lo + 1 : hi + 1] += move
            scale <<= s
            hi += 1  # the new top takes the old top's whole weight: never 0
            while p[lo] == 0:
                lo += 1
        n = c
        yield c, lo, p[lo:hi], scale


def _float_windows(params: CounterParams, checkpoints: Sequence[int]) -> Iterator[tuple]:
    """The float walk: doubles stepped in place on views that rarely move.

    p and the per-state table of q_k are indexed by state k and grow by
    doubling.  Dead states are held at 0.0: p is zero outside the live
    window [lo, hi), since a bottom state is zeroed as lo passes it.  A zero
    state steps to +0.0 and sends nothing up, so a step may run over any
    views [vlo, vhi) that hold the window and its new top: three in-place
    ufuncs on views of p, q and a scratch array, and one bottom test.  The
    top grows at most one state a step, so a run of vhi - hi steps stays
    inside the views, and hi is found once per run by scanning down over
    zeros.  The views move only when the window nears one of their ends.
    """
    n, lo, hi, vlo, vhi = 0, 0, 1, 0, 0
    floor, mul, sub, add = _FLOAT_FLOOR, np.multiply, np.subtract, np.add
    p, tab = np.ones(1), np.zeros(0)
    for c in checkpoints:
        while n < c:
            if vhi - hi < _MARGIN // 2 or lo - vlo >= _MARGIN:
                vlo, vhi = lo, hi + _MARGIN
                if vhi > p.size:
                    cap = max(2 * p.size, vhi)
                    tab = np.concatenate((tab, _transition_probs(params, tab.size, cap)))
                    p = np.concatenate((p, np.zeros(cap - p.size)))
                    m, pv = np.empty(cap), memoryview(p)  # pv reads floats, not numpy scalars
                w, q, mw = p[vlo:vhi], tab[vlo:vhi], m[vlo:vhi]
                w1, m0 = w[1:], mw[:-1]
            run = min(c - n, vhi - hi)
            for _ in range(run):
                mul(w, q, mw)  # move = w * q
                sub(w, mw, w)  # stay = w - move
                add(w1, m0, w1)  # stay[j] + move[j - 1]
                while pv[lo] <= floor:
                    pv[lo] = 0.0
                    lo += 1
            n += run
            hi += run  # the top grows at most one state a step
            while pv[hi - 1] == 0:
                hi -= 1
        yield c, lo, p[lo:hi], 1.0


def _sweep(params: CounterParams, checkpoints, mode: str) -> Iterator[tuple]:
    """Validate, then yield (n, lo, weights, scale) at each distinct checkpoint.

    p[n][lo + j] = weights[j] / scale, in increasing n, dead states trimmed.
    The exact walk yields Python ints (object array) over 2**e, the float
    walk doubles over 1.0 and holds every dead state at 0.0.  A walk yields
    only at checkpoints, and a yielded ``weights`` is a view of its array p
    that the next step overwrites.
    """
    cps = _update_counts(checkpoints, 0)
    if mode not in (MODE_EXACT, MODE_FLOAT):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == MODE_EXACT and params.family is Family.QARY:
        raise ValueError(
            "exact mode needs dyadic transition probabilities (morris/fp only)"
        )
    yield from (_exact_windows if mode == MODE_EXACT else _float_windows)(params, cps)


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
    """Distribution of the state after exactly n updates, an integer >= 0."""
    ((n, lo, weights, scale),) = _sweep(params, [n], mode)
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
    Checkpoints are integers >= 0, sorted and deduplicated by the library.
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
    """Expected number of random bits consumed by update n+1, n an integer >= 0.

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
