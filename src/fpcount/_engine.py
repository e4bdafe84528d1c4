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
[53(m - 1), 53m), so all live replicates read at the same position.  Its
one kernel reads the draws of all replicates in chunks of about
``_DRAWS`` with ``stream_uniforms53``, which mixes each block once, and
cuts each chunk into windows.  As q_k falls with k, only a window's draws
below q at each replicate's first state can advance it.  Where fewer
than ``_WALK`` of these candidates fall in a row, the window walks them
in Python; otherwise it steps every replicate a row at a time.

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

from .chain import CounterParams, Family, _transition_probs, estimate_float
from .counters import DEFAULT_CEILING
from .randbits import SPAN_WORDS, UNIFORM_BITS, stream_skip, stream_uniforms53

# Nothing here calls this; it stays an _engine attribute because the
# benchmark's tracer (bench/fpbench/tracer.py) wraps it by name.
from .chain import transition_prob

# qary draws per chunk, over all replicates: each chunk array stays near
# 128 KB, so memory is bounded for any n and replicate count
_DRAWS = 1 << 14
_CEILING = np.uint64(DEFAULT_CEILING)
# a qary window spans about _WINDOW candidate draws of its lowest column,
# and is walked where it has fewer than _WALK candidates a row
_WINDOW = 64
_WALK = 8
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
    A replicate's outputs do not depend on how many seeds run with it.
    """
    seeds = np.ascontiguousarray(seeds, dtype=np.uint64)
    states = np.zeros((len(checkpoints), seeds.size), dtype=np.uint64)
    bits = np.zeros_like(states)
    if checkpoints:
        kernel = _qary_windows if params.family is Family.QARY else _scan_rounds
        for lo in range(0, seeds.size, _SLICE):
            hi = lo + _SLICE
            kernel(params, seeds[lo:hi], checkpoints, states[:, lo:hi], bits[:, lo:hi])
    held = np.zeros(int(states.max(initial=0)) + 1, dtype=bool)
    held[states] = True
    table = np.zeros(held.size)
    table[held] = [estimate_float(params, k) for k in np.flatnonzero(held).tolist()]
    return states, bits, table[states]


def _qary_windows(params, seeds, cps, states, bits) -> None:
    # a window that could reach the ceiling walks, which gives the update
    # a column saturated at; from there it reads no bits
    cols, rows = seeds.size, max(1, _DRAWS // seeds.size)
    k = np.zeros(cols, dtype=np.intp)  # intp indexes thresh fastest
    q = []
    thresh = _thresholds(params, q, 2 * _WINDOW)  # room for the first windows
    saturated = {}  # column: the update it reached the ceiling at
    marks = []  # the states at each checkpoint passed
    u, m, lo = (), 0, 0
    while m < cps[-1] and lo < DEFAULT_CEILING:
        if not len(u):
            u = stream_uniforms53(seeds, UNIFORM_BITS * m, min(rows, cps[-1] - m))
        # about _WINDOW candidates for the lowest column, whose q is the
        # highest: at most cols * q[lo] candidates a row on average
        size = len(u)
        if q[lo] * size > _WINDOW:
            size = int(_WINDOW / q[lo]) + 1
        part, u = u[:size], u[size:]
        if cols * q[lo] < _WALK or m + size >= DEFAULT_CEILING:
            hits = (part < thresh[k]).ravel().nonzero()[0]
            ks, cp = k.tolist(), (cps[len(marks)] - m) * cols
            for h, draw in zip(hits.tolist(), part.ravel()[hits].tolist()):
                while h >= cp:  # a checkpoint falls before this row
                    marks.append(ks.copy())
                    cp = (cps[len(marks)] - m) * cols
                c = h % cols
                s = ks[c]
                if draw < q[s]:
                    ks[c] = s = s + 1
                    if s == len(q):
                        thresh = _thresholds(params, q, s)
                    if s == DEFAULT_CEILING:
                        saturated[c] = m + h // cols + 1
            k[:] = ks
            while len(marks) < len(cps) and cps[len(marks)] <= m + size:
                marks.append(ks.copy())
            lo = min(ks)
        else:
            top = int(k.max()) + size
            if top >= len(q):
                thresh = _thresholds(params, q, top)
            for j, row in enumerate(part, m + 1):
                k += row < thresh[k]
                if j == cps[len(marks)]:
                    marks.append(k.copy())
            lo = int(k.min())
        m += size
    # past the last mark every column saturated
    states[:] = marks + [k] * (len(cps) - len(marks))
    bits[:] = [[UNIFORM_BITS * c] for c in cps]
    for c, end in saturated.items():
        bits[:, c] = [UNIFORM_BITS * min(cp, end) for cp in cps]


def _thresholds(params, q: list, top: int) -> np.ndarray:
    """The q_k list `q` grown past `top`, at least doubling, up to DEFAULT_CEILING,
    whose entry is 0 so a saturated counter never advances; returned as an array."""
    if top >= len(q):
        top = min(max(top, 2 * len(q)), DEFAULT_CEILING)
        q += _transition_probs(params, len(q), top + 1).tolist()
        if top == DEFAULT_CEILING:
            q[-1] = 0.0
    return np.array(q)


def _scan_rounds(params, seeds, cps, states, bits) -> None:
    # the t = 0 prefix, which reads no bits, for every replicate: the state
    # and update count scans start from, and the first checkpoint to scan
    start = min(DEFAULT_CEILING, cps[-1])
    if start >> params._shift:  # 2**d is built only when it is at most start
        start = 1 << params._shift
    ci = bisect.bisect_right(cps, start)
    states[:ci] = np.array(cps[:ci], dtype=np.uint64)[:, None]
    # checkpoints past the uint64 range, which no run reaches, at its top
    goal_of = np.array([min(c, 2**64 - 1) for c in cps], dtype=np.uint64)
    # reaching DEFAULT_CEILING takes that many updates
    ceiling = cps[-1] > DEFAULT_CEILING
    # one entry per replicate still running; `col` is its column in the output
    col = np.arange(seeds.size)
    sd = seeds
    k = np.full(seeds.size, start, dtype=np.uint64)
    m = k.copy()
    pos = np.zeros_like(k)
    while True:
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
        if not col.size:
            return
        shift = np.uint64(params._shift)  # d < 16 once a replicate outlives the prefix
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


def _span_blocks(top: int, level: int, left: int, rows: int) -> int:
    """Blocks per replicate for the next round.

    A level's successes take 2**t scans each, about 2**(t + 1) bits: on
    average 2 * level * 2**t bits, give or take 2 * sqrt(level) * 2**t.
    The span covers that mean and two such deviations at the highest t,
    or the `left` scans to the last checkpoint at 2 bits each, whichever
    is less; and the array stays within SPAN_WORDS, which holds 2 blocks
    of each of at most SPAN_WORDS // 2 rows.  A level that outruns its
    span goes on in the next round; spans three times this size ran
    one-seed trajectories about a fifth slower, and ensembles no faster.
    """
    need = min((level + 2 * math.sqrt(level)) * 2.0**top, left) / 32
    return int(min(2 + need, SPAN_WORDS // rows))
