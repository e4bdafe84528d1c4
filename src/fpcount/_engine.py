"""Trajectory simulation that reproduces the scalar counter's bit streams.

Replicate i consumes the canonical stream for its own seed, and every
update inspects the same bits in the same order as
:func:`fpcount.counters.increment` on a :class:`fpcount.randbits.BitSource`
would.  :mod:`fpcount.randbits` computes every stream block and decides
what each step consumes; this module only runs the counters.

:func:`simulate` is the one entry point, and a single trajectory is a
run on one seed.  Each family has a per-seed kernel, which runs one
replicate after another in Python ints and floats, and a vector kernel,
which runs all replicates side by side in numpy arrays.  A vector round
costs tens of microseconds however few replicates it carries, so
:func:`simulate` runs the per-seed kernels below ``_VECTOR_MIN`` seeds.

The bit-scan families (morris, fp) simulate advances, not updates.  At
state k an update scans t = k >> d bits, so the updates between two
advances are failed scans, and randbits skips over a run of them at
once: the vector kernel runs rounds of ``stream_skip`` over one 64-bit
window per replicate, and the per-seed kernel runs ``BitSource.skip``.
Each replicate keeps its own update count and next checkpoint, and a
run that reaches a checkpoint mid-wait stops there.  The t = 0 states
advance for certain and read no bits, so both kernels share one step
that applies that prefix at once.

qary compares a 53-bit uniform per update and cannot skip, but its draws
do not depend on the state: a live counter's update m reads stream bits
[53(m - 1), 53m), so all live replicates read at the same position.
Both kernels read the draws in chunks of about ``_DRAWS`` with
``stream_uniforms53``, which mixes each block once.  The vector kernel
makes each update one compare for all replicates against a table of
q_k, grown chunk by chunk to the states the chunk can reach; the
per-seed kernel loops over one seed's draws as Python floats, against
q_k computed once for all its seeds.

Counters saturate at the scalar path's ``DEFAULT_CEILING``: once there
they stay put and consume no bits.

The scalar loop and each kernel are pinned against each other by tests;
the vector kernels exist so thousand-replicate ensembles to n = 10**5
finish in about a second instead of hours.
"""

from __future__ import annotations

import numpy as np

from .chain import CounterParams, Family, estimate_float, transition_prob
from .counters import DEFAULT_CEILING
from .randbits import UNIFORM_BITS, BitSource, stream_skip, stream_uniforms53

# qary draws per chunk, over all replicates: each chunk array stays near
# 128 KB, so memory is bounded for any n and replicate count
_DRAWS = 1 << 14
_CEILING = np.uint64(DEFAULT_CEILING)
# fewer seeds than this run one at a time (qary(2**20) crosses over near 8)
_VECTOR_MIN = 8


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
    The outputs do not depend on which kernels run.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    cps = [int(c) for c in checkpoints]
    states = np.zeros((len(cps), seeds.size), dtype=np.uint64)
    bits = np.zeros_like(states)
    if cps:
        vector = seeds.size >= _VECTOR_MIN
        if params.family is Family.QARY:
            kernel = _qary_updates if vector else _qary_trajectory
        else:
            kernel = _scan_rounds if vector else _scan_trajectory
        kernel(params, seeds, cps, states, bits)
    held = np.zeros(int(states.max(initial=0)) + 1, dtype=bool)
    held[states] = True
    table = np.zeros(held.size)
    table[held] = [estimate_float(params, k) for k in np.flatnonzero(held).tolist()]
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


def _qary_trajectory(params, seeds, cps, states, bits) -> None:
    # the per-seed form of _qary_updates, on each seed's draws as floats;
    # q[k] is computed once, by the first seed to reach k
    q = [transition_prob(params, 0)]
    for i in range(seeds.size):
        k = m = ci = 0
        qk = q[0]
        while m < cps[-1] and k < DEFAULT_CEILING:
            count = min(_DRAWS, cps[-1] - m)
            draws = stream_uniforms53(seeds[i : i + 1], UNIFORM_BITS * m, count)
            for u in draws[:, 0].tolist():
                m += 1
                if u < qk:
                    k += 1
                    if k == DEFAULT_CEILING:
                        break
                    if k == len(q):
                        q.append(transition_prob(params, k))
                    qk = q[k]
                if m == cps[ci]:
                    states[ci, i], bits[ci, i] = k, UNIFORM_BITS * m
                    ci += 1
        # a saturated counter keeps its state and bits to the end
        states[ci:, i], bits[ci:, i] = k, UNIFORM_BITS * m


def _scan_prefix(params, cps, states) -> tuple[int, int]:
    # the t = 0 prefix, which reads no bits, for every replicate: returns the
    # state and update count scans start from, and the first checkpoint to scan
    zero = 1 << params._shift
    start = min(zero, DEFAULT_CEILING, cps[-1])
    ci = 0
    while ci < len(cps) and cps[ci] <= start:
        states[ci] = cps[ci]
        ci += 1
    if start >= DEFAULT_CEILING:
        states[ci:] = start
        ci = len(cps)
    return start, ci


def _scan_rounds(params, seeds, cps, states, bits) -> None:
    start, ci = _scan_prefix(params, cps, states)
    if ci == len(cps):
        return
    shift = np.uint64(params._shift)
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


def _scan_trajectory(params, seeds, cps, states, bits) -> None:
    # the per-seed form of _scan_rounds, through BitSource.skip
    start, first = _scan_prefix(params, cps, states)
    for i, seed in enumerate(seeds.tolist()):
        reader = BitSource(seed)
        k = m = start
        for ci, cp in enumerate(cps[first:], first):
            while m < cp and k < DEFAULT_CEILING:
                advanced, scans = reader.skip(params.scan_length(k), cp - m)
                k += advanced
                m += scans
            states[ci, i], bits[ci, i] = k, reader.stream_position
