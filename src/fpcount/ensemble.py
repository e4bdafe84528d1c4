"""Monte Carlo harness: single trajectories, replicate ensembles, merging.

A trajectory drives one counter with the bit stream for its seed and
records state, estimate, and relative error at requested checkpoints.
An ensemble runs many independent replicates -- replicate i uses the
stream seeded ``child_seed(seed, first_replicate + i)`` -- through the
vectorized engine, which is bit-identical to looping
:func:`fpcount.counters.increment` per replicate.  Reports keep the raw
per-replicate estimates and bit counts, so merged reports agree exactly
with a single pass over the union (including the 2-sigma outlier count,
which cannot be recovered from moments alone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _engine
from .chain import CounterParams, Family, estimate_float
from .counters import increment, new_counter
from .randbits import BitSource, child_seed

__all__ = [
    "CheckpointStats",
    "EnsembleReport",
    "TrajectoryPoint",
    "linear_checkpoints",
    "log_checkpoints",
    "merge_reports",
    "run_ensemble",
    "run_trajectory",
]


def log_checkpoints(n_max: int) -> list[int]:
    """Powers of two up to n_max, plus n_max itself."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    cps = set()
    j = 1
    while j <= n_max:
        cps.add(j)
        j *= 2
    cps.add(n_max)
    return sorted(cps)


def linear_checkpoints(n_max: int, count: int = 16) -> list[int]:
    """`count` (at most) evenly spaced checkpoints ending at n_max."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    cps = {max(1, round(n_max * i / count)) for i in range(1, count + 1)}
    cps.add(n_max)
    return sorted(cps)


def _validated_checkpoints(checkpoints: Sequence[int], n_max: int) -> list[int]:
    cps = [int(c) for c in checkpoints]
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps and (cps[0] < 1 or cps[-1] > n_max):
        raise ValueError("checkpoints must lie in 1..n_max")
    return cps


@dataclass(frozen=True)
class TrajectoryPoint:
    n: int
    k: int
    estimate: float
    rel_error: float


def run_trajectory(
    params: CounterParams,
    n_max: int,
    seed: int,
    checkpoints: Sequence[int],
) -> list[TrajectoryPoint]:
    """Simulate one counter for n_max updates, sampling at checkpoints.

    Deterministic given the seed; updates after the last checkpoint
    cannot be observed and are skipped.  morris and fp counters skip
    from advance to advance (``_engine.scan_trajectory``); qary loops
    :func:`fpcount.counters.increment`.
    """
    cps = _validated_checkpoints(checkpoints, n_max)
    if not cps:
        return []
    if params.family is Family.QARY:
        src = BitSource(seed)
        state = new_counter()
        ks = []
        for m in range(1, cps[-1] + 1):
            state = increment(state, params, src)
            if m == cps[len(ks)]:
                ks.append(state.k)
    else:
        ks = [k for k, _ in _engine.scan_trajectory(params, seed, cps)]
    out: list[TrajectoryPoint] = []
    for m, k in zip(cps, ks):
        est = estimate_float(params, k)
        out.append(TrajectoryPoint(m, k, est, (est - m) / m))
    return out


@dataclass(frozen=True)
class CheckpointStats:
    """Cross-replicate statistics of the estimate at one checkpoint."""

    n: int
    replicates: int
    mean: float
    sample_std: float  # unbiased (ddof=1)
    outliers_2sigma: int  # replicates with |estimate - mean| > 2 * sample_std
    mean_bits: float  # mean total stream bits consumed so far


@dataclass(frozen=True)
class EnsembleReport:
    """Raw per-replicate results at each checkpoint, plus derived stats."""

    params: CounterParams
    checkpoints: tuple[int, ...]
    states: np.ndarray  # uint64, shape (checkpoints, replicates)
    estimates: np.ndarray  # float64, same shape
    bits: np.ndarray  # uint64, same shape

    @property
    def replicates(self) -> int:
        return int(self.estimates.shape[1])

    def checkpoint_stats(self) -> list[CheckpointStats]:
        out = []
        for i, n in enumerate(self.checkpoints):
            e = self.estimates[i]
            mean = float(e.mean())
            std = float(e.std(ddof=1))
            outliers = int(np.count_nonzero(np.abs(e - mean) > 2.0 * std))
            out.append(
                CheckpointStats(
                    n=n,
                    replicates=e.size,
                    mean=mean,
                    sample_std=std,
                    outliers_2sigma=outliers,
                    mean_bits=float(self.bits[i].mean()),
                )
            )
        return out


def run_ensemble(
    params: CounterParams,
    n_max: int,
    replicates: int,
    seed: int,
    checkpoints: Sequence[int] | None = None,
    first_replicate: int = 0,
) -> EnsembleReport:
    """Run independent replicates and collect per-checkpoint results.

    Replicate i consumes the canonical stream for
    child_seed(seed, first_replicate + i); splitting a run into blocks
    over disjoint `first_replicate` ranges and merging the reports
    reproduces the single-pass report exactly.
    """
    if replicates < 2:
        raise ValueError("an ensemble needs at least 2 replicates")
    if checkpoints is None:
        cps = log_checkpoints(n_max)
    else:
        cps = _validated_checkpoints(checkpoints, n_max)
        if not cps:
            raise ValueError("an ensemble needs at least one checkpoint")
    seeds = np.array(
        [child_seed(seed, first_replicate + i) for i in range(replicates)],
        dtype=np.uint64,
    )
    states, bits, estimates = _engine.simulate(params, n_max, seeds, cps)
    return EnsembleReport(
        params=params,
        checkpoints=tuple(cps),
        states=states,
        estimates=estimates,
        bits=bits,
    )


def merge_reports(a: EnsembleReport, b: EnsembleReport) -> EnsembleReport:
    """Combine reports over disjoint replicate sets.

    Raw columns are concatenated (a's replicates first), so every
    derived statistic equals the one computed over the union.
    """
    if a.params != b.params:
        raise ValueError("reports to merge must share counter parameters")
    if a.checkpoints != b.checkpoints:
        raise ValueError("reports to merge must share checkpoints")
    return EnsembleReport(
        params=a.params,
        checkpoints=a.checkpoints,
        states=np.concatenate([a.states, b.states], axis=1),
        estimates=np.concatenate([a.estimates, b.estimates], axis=1),
        bits=np.concatenate([a.bits, b.bits], axis=1),
    )
