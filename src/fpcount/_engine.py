"""Replicate-vectorized trajectory simulation.

Reproduces, for many replicates at once, exactly the bit streams of
:class:`fpcount.randbits.BitSource`: replicate i consumes the canonical
stream for its own seed, and every update inspects the same bits in the
same order as :func:`fpcount.counters.increment` would.  The engine
keeps one bit position per replicate and asks :mod:`fpcount.randbits`,
which computes every stream block and decides what each step consumes,
for the outcome and length of the t = k >> d bit scan at each position
(``stream_scan``) or the 53-bit uniform drawn there
(``stream_uniform53``); it does no bit arithmetic itself.

Replicates saturate at the scalar path's ``DEFAULT_CEILING``: once there
they stay put and consume no bits.  Since k <= m after m updates, the
check only runs from update ``DEFAULT_CEILING + 1`` on.

The scalar and vectorized paths are pinned against each other by tests;
the engine exists so thousand-replicate ensembles to n = 10**5 finish
in seconds instead of hours.
"""

from __future__ import annotations

import numpy as np

from .chain import CounterParams, Family, estimate_float, transition_prob
from .counters import DEFAULT_CEILING
from .randbits import MAX_SCAN, stream_scan, stream_uniform53

_U53 = np.uint64(53)
_CEILING = np.uint64(DEFAULT_CEILING)


def simulate(
    params: CounterParams,
    n_max: int,
    seeds: np.ndarray,
    checkpoints,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run `seeds.size` trajectories to the last of `checkpoints`.

    `checkpoints` are increasing update counts in 1..n_max.  Returns
    (states, bits, estimates), each shaped (len(checkpoints), seeds.size);
    `bits` is the exact count of stream bits consumed up to the checkpoint.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    cps = [int(c) for c in checkpoints]
    reps = seeds.size
    states = np.zeros((len(cps), reps), dtype=np.uint64)
    bits = np.zeros((len(cps), reps), dtype=np.uint64)
    estimates = np.zeros((len(cps), reps), dtype=np.float64)
    k = np.zeros(reps, dtype=np.uint64)
    pos = np.zeros(reps, dtype=np.uint64)
    est_table = np.zeros(0, dtype=np.float64)
    qary = params.family is Family.QARY
    if qary:
        # k <= min(m, DEFAULT_CEILING) after m updates
        top = min(n_max, DEFAULT_CEILING) + 1
        thresh = np.array(
            [transition_prob(params, kk) for kk in range(top)], dtype=np.float64
        )
    shift = np.uint64(params.d if params.family is Family.FP else 0)
    ci = 0
    for m in range(1, (cps[-1] if cps else 0) + 1):
        # the family's decision: which replicates step, and the bits each used
        if qary:
            step = stream_uniform53(seeds, pos) < thresh[k]
            used = _U53
        else:
            step, used = stream_scan(seeds, pos, k >> shift)
        if m > DEFAULT_CEILING:
            live = k < _CEILING
            step &= live
            used = np.where(live, used, 0)
        pos += used
        k += step.astype(np.uint64)
        if m == cps[ci]:
            if not qary and int((k >> shift).max()) > MAX_SCAN:
                raise OverflowError("scan length beyond the vectorized range")
            top = int(k.max()) + 1
            if top > est_table.size:
                est_table = np.array(
                    [estimate_float(params, kk) for kk in range(top)], dtype=np.float64
                )
            states[ci], bits[ci], estimates[ci] = k, pos, est_table[k]
            ci += 1
    return states, bits, estimates
