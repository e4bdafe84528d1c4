"""Core formulas for probabilistic counting chains.

A counting chain starts at state 0 and, on each update, advances from
state k to k+1 with probability q_k (otherwise the state is unchanged).
Three families are implemented:

* ``morris`` -- binary counter, q_k = 2**-k
* ``qary``   -- base-q counter, q_k = q**-k with q = 2**(1/r)
* ``fp``     -- floating-point counter, q_k = 2**-(k >> d); the state
  splits into an exponent t = k >> d and a d-bit significand u, so one
  update inspects t random bits.

Every such chain carries a unique unbiased count estimate

    f(k) = sum(1/q_i for i in range(k)),        E f(X_n) = n,

and a per-state variance function

    g(k) = sum((1 - q_i)/q_i**2 for i in range(k)),

whose expectation over the n-step state equals Var f(X_n).  Closed
forms are used throughout; :func:`estimate_series` and
:func:`variance_series` evaluate the defining sums directly and exist
so the closed forms can be checked against them.

Arithmetic is exact (int / Fraction) for the morris and fp families,
whose probabilities are powers of 1/2, and floating point for qary,
whose base is irrational for r > 1.  Values that leave the IEEE double
range raise :class:`CounterRangeError` instead of returning inf.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

_LN2 = math.log(2.0)
# estimate_float stores the values of states below this, at most this many
_READ_STATES = 1 << 16

__all__ = [
    "AccuracyBounds",
    "CounterParams",
    "CounterRangeError",
    "Family",
    "accuracy_limits",
    "estimate",
    "estimate_float",
    "estimate_series",
    "relative_spread",
    "transition_prob",
    "variance_fn",
    "variance_series",
]


class CounterRangeError(OverflowError):
    """A requested value exceeds the double-precision range."""


class Family(str, Enum):
    MORRIS = "morris"
    QARY = "qary"
    FP = "fp"

    def __str__(self) -> str:  # cleaner CSV / argparse output
        return self.value


@dataclass(frozen=True)
class CounterParams:
    """Counter family plus its resolution parameter.

    ``fp`` takes the significand width ``d`` (modulus M = 2**d), ``qary``
    takes ``r`` (base q = 2**(1/r)), ``morris`` takes neither; each is
    stored as a Python int, d >= 0 and r >= 1.  fp with d = 0 and qary
    with r = 1 both reduce to the morris chain.
    """

    family: Family
    d: int | None = None
    r: int | None = None
    # the exponent shift of the bit-scan families, t = k >> _shift: d for
    # fp and 0 for morris, the fp chain with d = 0; None for qary
    _shift: int | None = field(default=None, init=False, repr=False, compare=False)
    # estimate_float's values by state, for the states below _READ_STATES
    # it has read
    _reads: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", Family(self.family))
        if self.family is Family.FP:
            if self.r is not None:
                raise ValueError("fp counter does not take r")
            object.__setattr__(self, "d", _integer(self.d, "d", 0))
            object.__setattr__(self, "_shift", self.d)
        elif self.family is Family.QARY:
            if self.d is not None:
                raise ValueError("qary counter does not take d")
            object.__setattr__(self, "r", _integer(self.r, "r", 1))
        else:
            if self.d is not None or self.r is not None:
                raise ValueError("morris counter takes neither d nor r")
            object.__setattr__(self, "_shift", 0)

    def __reduce__(self):
        # a copy or a pickle starts with no reads cached
        return CounterParams, (self.family, self.d, self.r)

    @classmethod
    def morris(cls) -> "CounterParams":
        return cls(Family.MORRIS)

    @classmethod
    def qary(cls, r: int) -> "CounterParams":
        return cls(Family.QARY, r=r)

    @classmethod
    def fp(cls, d: int) -> "CounterParams":
        return cls(Family.FP, d=d)

    @property
    def modulus(self) -> int:
        """Significand modulus M = 2**d (fp only)."""
        if self.family is not Family.FP:
            raise ValueError("modulus is defined for fp counters only")
        return 1 << self.d

    @property
    def base(self) -> float:
        """Per-state growth base q = 2**(1/r) (qary only)."""
        if self.family is not Family.QARY:
            raise ValueError("base is defined for qary counters only")
        return 2.0 ** (1.0 / self.r)

    @property
    def param_value(self) -> int | None:
        """The single resolution parameter: d for fp, r for qary, None for morris."""
        if self.family is Family.FP:
            return self.d
        if self.family is Family.QARY:
            return self.r
        return None

    def scan_length(self, k: int) -> int:
        """Number of random bits one update inspects at state k.

        Defined for the bit-scan families only: k >> d for fp, k for
        morris.  A qary update draws a 53-bit uniform instead.
        """
        if self._shift is None:
            raise ValueError("qary updates draw a uniform, not a bit scan")
        return k >> self._shift


def _integer(value, what: str, first: float, last: float = math.inf) -> int:
    """The one input rule: `value` as a Python int in first..last.

    numpy ints pass; a float or a string is refused by `what`, not truncated.
    Every counter state is read by it as ``_integer(k, "state", 0)``.
    """
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not an integer") from None
    if not first <= n <= last:
        raise ValueError(f"{what} {n} is outside {first}..{last}")
    return n


def _update_counts(values, first: int, last: float = math.inf) -> list[int]:
    """The one checkpoint rule: `values` as sorted, distinct ints in first..last."""
    return sorted({_integer(v, "update count", first, last) for v in values})


def transition_prob(params: CounterParams, k: int) -> Fraction | float:
    """Probability q_k that an update advances state k to k+1.

    Returns an exact Fraction (a power of 1/2) for morris/fp and a float
    2**(-k/r) for qary, where q**-k is irrational for r > 1 and k not a
    multiple of r; the float type flags the inexactness.
    """
    k = _integer(k, "state", 0)
    if params.family is Family.QARY:
        return 2.0 ** (-(k / params.r))
    return Fraction(1, 1 << params.scan_length(k))


def _transition_probs(params: CounterParams, start: int, stop: int) -> np.ndarray:
    """q_k for k in range(start, stop) as doubles, each float(transition_prob).

    2**-t is ldexp(1.0, -t), exact down to the subnormals and rounded to 0.0
    from t = 1075 on, as float(Fraction(1, 2**t)) is; qary takes the same
    per-state 2.0 ** (-(k / r)) as :func:`transition_prob`.  Every state
    here is below 2**63, so a shift past 63 reads as 63.
    """
    if params._shift is None:
        r = params.r
        return np.array([2.0 ** (-(k / r)) for k in range(start, stop)])
    return np.ldexp(1.0, -(np.arange(start, stop) >> min(params._shift, 63)))


def _qary_range_error(what: str, params: CounterParams, k: int) -> CounterRangeError:
    return CounterRangeError(
        f"{what} at qary state {k} (r={params.r}) exceeds the float range"
    )


def estimate(params: CounterParams, k: int) -> int | float:
    """Unbiased count estimate f(k) for a chain observed in state k.

    Exact int for morris/fp: with k = M*t + u, f(k) = (M + u)*2**t - M.
    Float for qary: f(k) = (q**k - 1)/(q - 1), which :func:`estimate_float`
    computes via expm1; the rounded exponent k*ln2/r puts the relative
    error of order k/r ulps.
    """
    # one family test, and the input rule only for numpy ints and bad states
    if k.__class__ is not int or k < 0:
        k = _integer(k, "state", 0)
    d = params._shift
    if d is None:
        return estimate_float(params, k)
    return _fp_estimate(d, k)


def _fp_estimate(d: int, k: int) -> int:
    """f(k) = (M + u)*2**t - M for k = M*t + u and M = 2**d, at a state read already."""
    t = k >> d
    if not t:  # f(k) = k, and M, which may be far larger than k, is not built
        return k
    m = 1 << d
    return ((m + (k & (m - 1))) << t) - m


def variance_fn(params: CounterParams, k: int) -> int | float:
    """Per-state variance function g(k); E g(X_n) = Var f(X_n).

    Exact int for morris/fp: with k = M*t + u,
    g(k) = (M/3 + u)*4**t - (M + u)*2**t + 2M/3, always an integer.
    Float for qary: g(k) = (q**(2k) - 1)/(q**2 - 1) - f(k), computed as
    f(k)*(q**k - q)/(q + 1) = f(k)*q*expm1((k - 1)*ln2/r)/(q + 1), which
    does not cancel at small k.
    """
    k = _integer(k, "state", 0)
    d = params._shift
    if d is None:
        if not k:
            return 0.0  # f(0) = 0 would make the product below -0.0
        q = params.base
        f = estimate_float(params, k)
        g = f * (q * math.expm1((k - 1) * _LN2 / params.r) / (q + 1))
        if math.isfinite(g):
            return g
        raise _qary_range_error("variance_fn", params, k)
    t = k >> d
    if not t:  # g(k) = 0, and M is not built
        return 0
    m = 1 << d
    u = k & (m - 1)
    numerator = ((m + 3 * u) << (2 * t)) - ((3 * (m + u)) << t) + 2 * m
    return numerator // 3


def estimate_series(params: CounterParams, k: int) -> int | float:
    """f(k) by direct summation of 1/q_i -- the defining series.

    O(k); kept as the reference the closed form in :func:`estimate` is
    checked against.
    """
    k = _integer(k, "state", 0)
    if params.family is Family.QARY:
        r = params.r
        return math.fsum(2.0 ** (i / r) for i in range(k))
    total = 0
    for i in range(k):
        total += 1 << params.scan_length(i)
    return total


def variance_series(params: CounterParams, k: int) -> int | float:
    """g(k) by direct summation of (1 - q_i)/q_i**2; reference for variance_fn."""
    k = _integer(k, "state", 0)
    if params.family is Family.QARY:
        r = params.r
        return math.fsum(2.0 ** (2 * i / r) - 2.0 ** (i / r) for i in range(k))
    total = 0
    for i in range(k):
        t = params.scan_length(i)
        total += (1 << (2 * t)) - (1 << t)
    return total


def relative_spread(params: CounterParams, k: int) -> float:
    """sqrt(g(k))/f(k): spread of the estimate relative to its size at state k.

    Its limiting behaviour in k determines the asymptotic accuracy
    window reported by :func:`accuracy_limits`.  Undefined at k = 0
    where the estimate is zero.
    """
    k = _integer(k, "state", 0)
    if not k:
        raise ValueError("relative_spread is undefined at state 0")
    g = variance_fn(params, k)
    f = estimate(params, k)
    if params.family is Family.QARY:
        return math.sqrt(g) / f
    return _sqrt_ratio(g, f * f)


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num/den) for ints num >= 0 and den > 0, correctly rounded.

    s makes r = isqrt(num * 4**s // den) at least 2**55 for num > 0.  With
    a sticky bit set if the division or the root is inexact, the correctly
    rounded int quotient (2r + sticky) / 2**(s + 1) is then the true root's.
    """
    s = max(0, (112 - num.bit_length() + den.bit_length()) // 2)
    q, rem = divmod(num << (2 * s), den)
    r = math.isqrt(q)
    return ((r << 1) | (rem != 0 or r * r != q)) / (1 << (s + 1))


@dataclass(frozen=True)
class AccuracyBounds:
    """Asymptotic window [lower, upper] for sqrt(Var f(X_n))/n."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper):
            raise ValueError("bounds must satisfy 0 <= lower <= upper")


def accuracy_limits(params: CounterParams) -> AccuracyBounds:
    """Window for the n-step accuracy sqrt(Var f(X_n))/n as n grows.

    fp: an enclosing window, tight as d grows.  Along the significand
    cycle k = M*t + u, M * relative_spread**2 tends to (1/3 + x)/(1 + x)**2
    with x = u/M: 1/3 at u = 0, and below 3/8 for every u, since the top
    needs x = 1/3, which no u/M reaches (at d = 1 the cycle's maximum is
    10/27, at d = 10 0.37499998).  The ends s = 1/(3M) and 3/(8M) map
    through s -> s/(1 - s), the relation between qary's limiting spread
    and its accuracy, to the window [sqrt(1/(3M - 1)), sqrt(3/(8M - 3))].  At d = 0 the cycle is the one
    state of morris, so the accuracy settles at the lower end sqrt(1/2)
    and the top sqrt(3/5) is never approached.  qary: relative_spread
    converges, so both ends equal sqrt((q - 1)/2); morris is the q = 2
    case with window collapsing to sqrt(1/2).
    """
    if params.family is Family.FP:
        if params.d > 2148:  # both ends are below 2**-1075, so round to 0.0
            return AccuracyBounds(0.0, 0.0)
        m = params.modulus
        return AccuracyBounds(_sqrt_ratio(1, 3 * m - 1), _sqrt_ratio(3, 8 * m - 3))
    if params.family is Family.QARY:
        a = math.sqrt(math.expm1(_LN2 / params.r) / 2.0)
        return AccuracyBounds(a, a)
    a = math.sqrt(0.5)
    return AccuracyBounds(a, a)


def estimate_float(params: CounterParams, k: int) -> float:
    """:func:`estimate` as a double, which it returns for qary.

    The qary closed form lives here; morris/fp take estimate's int, whose
    (M + u)*2**t - M is at least 2**t - 1, so t > 1024 is refused before
    it is built.  CounterRangeError marks a value past the double range
    (possible for saturated wide-exponent states).

    A run reads few distinct states many times, so each `params` keeps
    the values it has computed for states below 2**16, which covers every
    state the engine's ceiling or a table of width 16 or less can hold;
    a later read of such a state is one lookup.  Higher states skip the
    store, and errors are never stored: a refused state raises on every
    call.  Copies and pickles start with nothing stored.
    """
    if k.__class__ is int and k < _READ_STATES:  # a negative k misses, then is refused
        try:
            return params._reads[k]
        except KeyError:
            pass
    if k.__class__ is not int or k < 0:
        return estimate_float(params, _integer(k, "state", 0))
    d, f = params._shift, math.inf
    try:
        if d is None:
            f = math.expm1(k * _LN2 / params.r) / math.expm1(_LN2 / params.r)
        elif k >> d <= 1024:  # a larger t is refused before the int is built
            f = float(_fp_estimate(d, k))
    except OverflowError:
        pass
    if not math.isfinite(f):
        if d is None:
            raise _qary_range_error("estimate", params, k)
        raise CounterRangeError(f"estimate at state {k} exceeds the float range")
    if k < _READ_STATES:
        # racing threads store the same value, and the bound is on k, not on
        # the size, so a read needs no lock
        params._reads[k] = f
    return f
