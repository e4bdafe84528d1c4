"""Monte Carlo harness: single trajectories, replicate ensembles, merging.

A trajectory drives one counter with the bit stream for its seed and
records state, estimate, and relative error at requested checkpoints.
An ensemble runs many independent replicates -- replicate i uses the
stream seeded ``child_seed(seed, first_replicate + i)``.  Both run
through ``_engine.simulate``, a trajectory as one seed, whose one kernel
per family is bit-identical at every replicate count to looping
:func:`fpcount.counters.increment` per replicate.  Reports keep the raw
per-replicate estimates and bit counts, so merged reports agree exactly
with a single pass over the union (including the 2-sigma outlier count,
which cannot be recovered from moments alone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _engine
from .chain import CounterParams, _integer, _update_counts
from .randbits import child_seed

# Nothing here calls these; they stay ensemble attributes because the
# benchmark's tracer (bench/fpbench/tracer.py) wraps them by name.
from .chain import estimate_float
from .counters import increment
from .randbits import BitSource

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
    """Powers of two below n_max, then n_max itself (an integer >= 1)."""
    n_max = _integer(n_max, "update count", 1)
    return [1 << j for j in range((n_max - 1).bit_length())] + [n_max]


def linear_checkpoints(n_max: int, count: int = 16) -> list[int]:
    """`count` (at most) evenly spaced checkpoints ending at n_max; both ints >= 1."""
    count = _integer(count, "checkpoint count", 1)
    try:
        cps = [max(1, round(n_max * i / count)) for i in range(1, count)]
    except OverflowError:  # a point past the double range
        raise ValueError(f"update count {n_max} is too large for linear checkpoints") from None
    return _update_counts([*cps, n_max], 1)


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

    Checkpoints are integers, sorted and deduplicated by the library, in
    1..n_max.  Deterministic given the seed mod 2**64; updates after the
    last checkpoint cannot be observed and are skipped.  ``_engine.simulate``
    runs the one seed, consuming the stream exactly as a loop of
    :func:`fpcount.counters.increment` on ``BitSource(seed)`` would.
    """
    n_max = _integer(n_max, "update count", 1)
    cps = _update_counts(checkpoints, 1, n_max)
    seeds = np.array([_integer(seed, "seed", -math.inf) % 2**64], dtype=np.uint64)
    states, _, estimates = _engine.simulate(params, n_max, seeds, cps)
    return [
        TrajectoryPoint(m, k, est, (est - m) / m)
        for m, k, est in zip(cps, states[:, 0].tolist(), estimates[:, 0].tolist())
    ]


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
    reproduces the single-pass report exactly.  Checkpoints (default
    :func:`log_checkpoints`) are read as by :func:`run_trajectory`.
    """
    replicates = _integer(replicates, "replicates", 2)
    first_replicate = _integer(first_replicate, "first_replicate", 0)
    seed = _integer(seed, "seed", -math.inf)
    n_max = _integer(n_max, "update count", 1)
    if checkpoints is None:
        checkpoints = log_checkpoints(n_max)
    cps = _update_counts(checkpoints, 1, n_max)
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
