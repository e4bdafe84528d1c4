"""Probabilistic approximate counting.

Counters that represent a count of n in loglog(n) + O(1) bits by
advancing a small state k with state-dependent probability.  Three
families share one framework: the classic binary counter (``morris``),
the base-q generalization (``qary``), and the floating-point counter
(``fp``), whose state splits into an exponent and a d-bit significand
and which needs about two random bits per counted event.

The package provides the exact estimator/variance formulas
(:mod:`fpcount.chain`), deterministic bit streams with exact bit
accounting (:mod:`fpcount.randbits`), the counter state machines
(:mod:`fpcount.counters`), exact and floating-point computation of the
full state distribution after n updates (:mod:`fpcount.oracle`), a
vectorized Monte Carlo harness (:mod:`fpcount.ensemble`), dense
bit-packed counter tables with a stable snapshot format
(:mod:`fpcount.table`), and a CLI (``fpcount``).
"""

from . import chain, counters, ensemble, oracle, randbits, table
from .chain import *
from .counters import *
from .ensemble import *
from .oracle import *
from .randbits import *
from .table import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (chain, counters, ensemble, oracle, randbits, table)
    for name in module.__all__
]
