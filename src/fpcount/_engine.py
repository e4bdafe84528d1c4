"""Trajectory simulation that reproduces the scalar counter's bit streams.

Replicate i consumes the canonical stream for its own seed, and every
update inspects the same bits in the same order as
:func:`fpcount.counters.increment` on a :class:`fpcount.randbits.BitSource`
would.  :mod:`fpcount.randbits` computes every stream block and decides
what each step consumes; this module only runs the counters.

The bit-scan families (morris, fp) simulate advances, not updates.  At
state k an update scans t = k >> d bits, so the updates between two
advances are failed scans, and randbits skips over a run of them at
once: :func:`simulate` runs rounds of ``stream_skip`` over one 64-bit
window per replicate, and :func:`scan_trajectory` runs one seed through
a ``SkipReader``.  Each replicate keeps its own update count and next
checkpoint, and a run that reaches a checkpoint mid-wait stops there.
The t = 0 states advance for certain and read no bits, so that prefix is
applied at once.

qary draws a 53-bit uniform per update and cannot skip: it runs one
round per update for all replicates (``stream_uniform53``).

Counters saturate at the scalar path's ``DEFAULT_CEILING``: once there
they stay put and consume no bits.

The scalar loop and these paths are pinned against each other by tests;
the engine exists so thousand-replicate ensembles to n = 10**5 finish
in about a second instead of hours.
"""

from __future__ import annotations

import numpy as np

from .chain import CounterParams, Family, estimate_float, transition_prob
from .counters import DEFAULT_CEILING
from .randbits import SkipReader, stream_skip, stream_uniform53

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
    states = np.zeros((len(cps), seeds.size), dtype=np.uint64)
    bits = np.zeros_like(states)
    if cps and params.family is Family.QARY:
        _qary_updates(params, n_max, seeds, cps, states, bits)
    elif cps:
        _scan_rounds(params, seeds, cps, states, bits)
    top = int(states.max(initial=0)) + 1
    table = np.array([estimate_float(params, k) for k in range(top)])
    return states, bits, table[states]


def _qary_updates(params, n_max, seeds, cps, states, bits) -> None:
    k = np.zeros(seeds.size, dtype=np.uint64)
    pos = np.zeros(seeds.size, dtype=np.uint64)
    # k <= min(m, DEFAULT_CEILING) after m updates
    top = min(n_max, DEFAULT_CEILING) + 1
    thresh = np.array(
        [transition_prob(params, kk) for kk in range(top)], dtype=np.float64
    )
    ci = 0
    for m in range(1, cps[-1] + 1):
        step = stream_uniform53(seeds, pos) < thresh[k]
        used = _U53
        if m > DEFAULT_CEILING:
            live = k < _CEILING
            step &= live
            used = np.where(live, used, 0)
        pos += used
        k += step.astype(np.uint64)
        if m == cps[ci]:
            states[ci], bits[ci] = k, pos
            ci += 1


def _scan_start(params: CounterParams) -> int:
    """The first state that scans bits; the states below it have t = 0.

    Capped at the ceiling, where the counter stops.
    """
    zero = params.modulus if params.family is Family.FP else 1
    return min(zero, DEFAULT_CEILING)


def _scan_rounds(params, seeds, cps, states, bits) -> None:
    # the t = 0 prefix: every update advances and reads no bits
    start = min(_scan_start(params), cps[-1])
    ci = 0
    while ci < len(cps) and cps[ci] <= start:
        states[ci] = cps[ci]
        ci += 1
    if ci == len(cps) or start >= DEFAULT_CEILING:
        states[ci:] = start
        return
    shift = np.uint64(params.d if params.family is Family.FP else 0)
    cp_array = np.array(cps, dtype=np.uint64)
    # reaching DEFAULT_CEILING takes that many updates
    ceiling = cps[-1] > DEFAULT_CEILING
    # one entry per replicate still running; `col` is its column in the output
    col = np.arange(seeds.size)
    sd = seeds
    k = np.full(seeds.size, start, dtype=np.uint64)
    m = k.copy()
    pos = np.zeros_like(k)
    cpi = np.full(seeds.size, ci)
    nxt = cp_array[cpi]
    while col.size:
        advanced, scans, used = stream_skip(sd, pos, k >> shift, nxt - m)
        k += advanced
        m += scans
        pos += used
        hit = m == nxt
        if not (hit.any() or ceiling):
            continue
        states[cpi[hit], col[hit]] = k[hit]
        bits[cpi[hit], col[hit]] = pos[hit]
        cpi += hit
        live = cpi < len(cps)
        if ceiling:
            # a saturated counter keeps its state and bits to the end
            for i in np.flatnonzero(live & (k >= _CEILING)):
                states[cpi[i] :, col[i]] = k[i]
                bits[cpi[i] :, col[i]] = pos[i]
                live[i] = False
        if not live.all():
            col, sd, k, m, pos, cpi = (a[live] for a in (col, sd, k, m, pos, cpi))
        nxt = cp_array[cpi]


def scan_trajectory(
    params: CounterParams, seed: int, checkpoints: list[int]
) -> list[tuple[int, int]]:
    """(state, bits consumed) of one morris or fp counter at each checkpoint.

    The scalar form of the scan rounds in :func:`simulate`: the counter
    fed by ``BitSource(seed)``, skipped from advance to advance.
    """
    reader = SkipReader(seed)
    start = _scan_start(params)
    k = m = 0
    out = []
    for cp in checkpoints:
        while m < cp:
            if k < start:
                step = min(start - k, cp - m)
                k += step
                m += step
            elif k >= DEFAULT_CEILING:
                m = cp
            else:
                advanced, scans = reader.skip(params.scan_length(k), cp - m)
                k += advanced
                m += scans
        out.append((k, reader.stream_position))
    return out
