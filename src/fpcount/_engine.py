"""Trajectory simulation that reproduces the scalar counter's bit streams.

Replicate i consumes the canonical stream for its own seed, and every
update inspects the same bits in the same order as
:func:`fpcount.counters.increment` on a :class:`fpcount.randbits.BitSource`
would.  :mod:`fpcount.randbits` computes every stream block and decides
what each step consumes; this module only runs the counters.

:func:`simulate` is the one entry point, and a single trajectory is a
run on one seed.

The bit-scan families (morris, fp) run one kernel at every seed count,
and simulate advances, not updates.  At state k an update scans
t = k >> d bits, and the 2**d states of an exponent level share t, so a
level's updates are its successes and the failed scans between them.
Each round hands ``stream_skip`` a span of blocks per replicate, sized
from the highest t, the level's size and the scans left to the last
checkpoint, within ``SPAN_WORDS`` blocks in all, so at most
``SPAN_WORDS // 2`` replicates run at a time; it scans each replicate's
level to the level's end or the span's, and reports the state and stream
position at every checkpoint the scans pass.  The next round goes on at
t + 1.  The t = 0 states advance for certain and read no bits, so one
step applies that prefix first.

qary compares a 53-bit uniform per update and cannot skip, but its draws
do not depend on the state: a live counter's update m reads stream bits
[53(m - 1), 53m), so all live replicates read at the same position.  It
has a per-seed kernel, which runs one replicate after another in Python
floats, and a vector kernel, which runs all replicates side by side in
numpy arrays; a vector round costs tens of microseconds however few
replicates it carries, so :func:`simulate` runs the per-seed kernel
below ``_VECTOR_MIN`` seeds.  Both read the draws in chunks of about
``_DRAWS`` with ``stream_uniforms53``, which mixes each block once.  The
vector kernel makes each update one compare for all replicates against
a table of q_k, grown chunk by chunk to the states the chunk can reach;
the per-seed kernel loops over one seed's draws as Python floats,
against q_k computed once for all its seeds.

Counters saturate at the scalar path's ``DEFAULT_CEILING``: once there
they stay put and consume no bits.

The scalar loop and each kernel are pinned against each other by tests;
the kernels exist so thousand-replicate ensembles to n = 10**5 finish in
about a second instead of hours.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

from .chain import CounterParams, Family, estimate_float, transition_prob
from .counters import DEFAULT_CEILING
from .randbits import SPAN_WORDS, UNIFORM_BITS, stream_skip, stream_uniforms53

# qary draws per chunk, over all replicates: each chunk array stays near
# 128 KB, so memory is bounded for any n and replicate count
_DRAWS = 1 << 14
_CEILING = np.uint64(DEFAULT_CEILING)
# qary runs fewer seeds than this one at a time (qary(2**20) crosses over near 8)
_VECTOR_MIN = 8
# the most replicates one kernel call runs, so that a scan span holds 2
# blocks of each within SPAN_WORDS
_SLICE = SPAN_WORDS // 2
_V1 = np.uint64(1)


def simulate(
    params: CounterParams,
    n_max: int,
    seeds: np.ndarray,
    checkpoints,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run `seeds.size` trajectories to the last of `checkpoints`.

    `checkpoints` are sorted, distinct ints in 1..n_max (``chain._update_counts``).
    Returns (states, bits, estimates), each shaped (len(checkpoints), seeds.size);
    `bits` is the exact count of stream bits consumed up to the checkpoint.
    The outputs do not depend on which kernels run.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    states = np.zeros((len(checkpoints), seeds.size), dtype=np.uint64)
    bits = np.zeros_like(states)
    if checkpoints:
        if params.family is not Family.QARY:
            kernel = _scan_rounds
        elif seeds.size >= _VECTOR_MIN:
            kernel = _qary_updates
        else:
            kernel = _qary_trajectory
        for lo in range(0, seeds.size, _SLICE):
            hi = lo + _SLICE
            kernel(params, seeds[lo:hi], checkpoints, states[:, lo:hi], bits[:, lo:hi])
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


def _scan_rounds(params, seeds, cps, states, bits) -> None:
    # the t = 0 prefix, which reads no bits, for every replicate: the state
    # and update count scans start from, and the first checkpoint to scan
    start = min(1 << params._shift, DEFAULT_CEILING, cps[-1])
    ci = bisect.bisect_right(cps, start)
    states[:ci] = np.array(cps[:ci], dtype=np.uint64)[:, None]
    if start >= DEFAULT_CEILING:
        states[ci:] = start
        return
    if ci == len(cps):
        return
    shift = np.uint64(params._shift)
    goal_of = np.array(cps, dtype=np.uint64)
    # reaching DEFAULT_CEILING takes that many updates
    ceiling = cps[-1] > DEFAULT_CEILING
    # one entry per replicate still running; `col` is its column in the output
    col = np.arange(seeds.size)
    sd = seeds
    k = np.full(seeds.size, start, dtype=np.uint64)
    m = k.copy()
    pos = np.zeros_like(k)
    cpi = np.full(seeds.size, ci)
    while col.size:
        t = k >> shift
        # a level batch ends with the level, or at the ceiling
        quota = np.minimum((t + _V1) << shift, _CEILING) - k
        near, far = int(m.min()), int(m.max())
        blocks = _span_blocks(int(t.max()), 1 << params._shift, cps[-1] - near, col.size)
        # every checkpoint the span can reach, as each scan reads a bit
        reach = bisect.bisect_right(cps, far + 64 * blocks) - bisect.bisect_right(cps, near)
        # goal rows past the last checkpoint repeat it, with the same values
        rows = np.minimum(cpi + np.arange(reach)[:, None], len(cps) - 1)
        goals = goal_of[rows] - m
        advances, ends, scans = stream_skip(sd, pos, t, quota, goals, blocks)
        # every goal's row is written; one the batch stopped before is
        # written again once reached
        states[rows, col] = advances[:-1] + k
        bits[rows, col] = ends[:-1]
        k += advances[-1]
        m += scans
        pos = ends[-1]
        cpi = np.searchsorted(goal_of, m, "right")
        live = m < goal_of[-1]
        if ceiling:
            # a saturated counter keeps its state and bits to the end
            for i in np.flatnonzero(live & (k >= _CEILING)):
                states[cpi[i] :, col[i]] = k[i]
                bits[cpi[i] :, col[i]] = pos[i]
                live[i] = False
        if np.count_nonzero(live) < live.size:
            col, sd, k, m, pos, cpi = (a[live] for a in (col, sd, k, m, pos, cpi))


def _span_blocks(top: int, level: int, left: int, rows: int) -> int:
    """Blocks per replicate for the next round.

    A level's successes take 2**t scans each, about 2**(t + 1) bits: on
    average 2 * level * 2**t bits, give or take 2 * sqrt(level) * 2**t.
    The span covers that mean and two such deviations three times over
    at the highest t, or the `left` scans to the last checkpoint at 2
    bits each, whichever is less; and the array stays within SPAN_WORDS,
    which holds 2 blocks of each of at most SPAN_WORDS // 2 rows.  The
    factor 3 was measured, and stays until it is measured again: spans
    of one and two levels won on some shapes and tied or lost on others.
    """
    need = min(3 * (level + 2 * math.sqrt(level)) * 2.0**top, left) / 32
    return int(min(2 + need, SPAN_WORDS // rows))
