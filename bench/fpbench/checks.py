"""Checked-operation bookkeeping and the random-bit law of the bit scan."""

from __future__ import annotations

import math

# Allowed deviation of measured scan bits from the law, in standard deviations
# of the sum; sums over many independent scans are close to normal.
LAW_SIGMAS = 6.0
_MAX_NOTES = 20


class Checker:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        """One checked operation."""
        self.expect_all(what, [ok])

    def expect_all(self, what: str, results) -> None:
        """One checked operation per element of `results` (truthy = pass)."""
        total = bad = 0
        for ok in results:
            total += 1
            bad += not ok
        self.attempted += total
        self.failed += bad
        if bad and len(self.notes) < _MAX_NOTES:
            self.notes.append(f"{what}: {bad} of {total} failed")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def scan_moments(t: int) -> tuple[float, float]:
    """Mean and variance of the bits one ``bernoulli_pow2(t)`` scan consumes.

    The scan reads bits until the first 1 or until t bits were read: it
    stops after j bits with probability 2**-j for j < t and after t bits
    with probability 2**(1 - t).  The mean is the paper's 2 - 2**(1 - t).
    """
    if t == 0:
        return 0.0, 0.0
    mean = 2.0 - 2.0 ** (1 - t)
    second = sum(j * j * 2.0**-j for j in range(1, t)) + t * t * 2.0 ** (1 - t)
    return mean, max(0.0, second - mean * mean)


_SCAN = [scan_moments(t) for t in range(128)]


class LawTally:
    """Sum of the bit law over the pre-states of a sequence of scans."""

    __slots__ = ("scans", "zero_scans", "mean", "var")

    def __init__(self):
        self.scans = 0
        self.zero_scans = 0  # scans in the deterministic prefix (t = 0)
        self.mean = 0.0
        self.var = 0.0

    def add(self, t: int) -> None:
        mean, var = _SCAN[t] if t < len(_SCAN) else scan_moments(t)
        self.scans += 1
        self.zero_scans += t == 0
        self.mean += mean
        self.var += var

    def holds(self, bits: int) -> bool:
        """Measured `bits` lie within sampling error of the law."""
        return abs(bits - self.mean) <= LAW_SIGMAS * math.sqrt(self.var) + 1e-9

    def ratio(self, bits: int) -> float:
        return bits / self.mean if self.mean else 0.0
