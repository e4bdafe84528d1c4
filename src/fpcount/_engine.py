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
window per replicate, and :func:`trajectory` runs one seed through
``BitSource.skip``.  Each replicate keeps its own update count and next
checkpoint, and a run that reaches a checkpoint mid-wait stops there.
The t = 0 states advance for certain and read no bits, so that prefix is
applied at once.

qary compares a 53-bit uniform per update and cannot skip, but its draws
do not depend on the state: a live counter's update m reads stream bits
[53(m - 1), 53m), so all live replicates read at the same position.
Both forms read the draws in chunks of about ``_DRAWS`` with
``stream_uniforms53``, which mixes each block once.  :func:`simulate`
makes each update one compare for all replicates against a table of
q_k, grown chunk by chunk to the states the chunk can reach;
:func:`trajectory` loops over one seed's draws as Python floats.

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
from .randbits import _MASK64, UNIFORM_BITS, BitSource, stream_skip, stream_uniforms53

# qary draws per chunk, over all replicates: each chunk array stays near
# 128 KB, so memory is bounded for any n and replicate count
_DRAWS = 1 << 14
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
        _qary_updates(params, seeds, cps, states, bits)
    elif cps:
        _scan_rounds(params, seeds, cps, states, bits)
    top = int(states.max(initial=0)) + 1
    table = np.array([estimate_float(params, k) for k in range(top)])
    return states, bits, table[states]


def _qary_updates(params, seeds, cps, states, bits) -> None:
    rows = max(1, _DRAWS // max(1, seeds.size))
    k = np.zeros(seeds.size, dtype=np.intp)  # intp indexes thresh fastest
    frozen = np.zeros_like(k)  # updates spent at the ceiling, which read no bits
    thresh = np.zeros(0)
    m = ci = 0
    while m < cps[-1]:
        count = min(rows, cps[-1] - m)
        thresh = _thresholds(params, thresh, int(k.max(initial=0)) + count)
        for u in stream_uniforms53(seeds, UNIFORM_BITS * m, count):
            if m >= DEFAULT_CEILING:
                frozen += k == DEFAULT_CEILING
            k += u < thresh[k]
            m += 1
            if m == cps[ci]:
                states[ci], bits[ci] = k, (m - frozen) * UNIFORM_BITS
                ci += 1


def _thresholds(params, table: np.ndarray, top: int) -> np.ndarray:
    """`table` grown to the q_k of states 0 .. min(top, DEFAULT_CEILING).

    The ceiling state's entry is 0, so a saturated counter never advances.
    """
    top = min(top, DEFAULT_CEILING)
    new = [
        0.0 if kk == DEFAULT_CEILING else transition_prob(params, kk)
        for kk in range(table.size, top + 1)
    ]
    return np.concatenate([table, new]) if new else table


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


def trajectory(
    params: CounterParams, seed: int, checkpoints: list[int]
) -> list[tuple[int, int]]:
    """(state, bits consumed) of one counter at each checkpoint.

    The scalar form of :func:`simulate`: the counter fed by
    ``BitSource(seed)``, with morris and fp skipped from advance to
    advance and qary compared against one bulk-read draw per update.
    """
    if params.family is Family.QARY:
        return _qary_trajectory(params, seed, checkpoints)
    return _scan_trajectory(params, seed, checkpoints)


def _qary_trajectory(params, seed, cps) -> list[tuple[int, int]]:
    # the scalar form of _qary_updates, on one seed's draws as floats
    seeds = np.array([seed & _MASK64], dtype=np.uint64)
    k = m = ci = 0
    q = transition_prob(params, 0)
    out = []
    end = cps[-1] if cps else 0
    while m < end and k < DEFAULT_CEILING:
        draws = stream_uniforms53(seeds, UNIFORM_BITS * m, min(_DRAWS, end - m))
        for u in draws[:, 0].tolist():
            m += 1
            if u < q:
                k += 1
                if k == DEFAULT_CEILING:
                    break
                q = transition_prob(params, k)
            if m == cps[ci]:
                out.append((k, UNIFORM_BITS * m))
                ci += 1
    # a saturated counter keeps its state and bits to the end
    return out + [(k, UNIFORM_BITS * m)] * (len(cps) - ci)


def _scan_trajectory(params, seed, checkpoints) -> list[tuple[int, int]]:
    # the scalar form of _scan_rounds, through BitSource.skip
    reader = BitSource(seed)
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
