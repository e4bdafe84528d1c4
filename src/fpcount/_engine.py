"""Replicate-vectorized trajectory simulation.

Reproduces, for many replicates at once, exactly the bit streams of
:class:`fpcount.randbits.BitSource`: replicate i consumes the canonical
stream for its own seed, and every update inspects the same bits in the
same order as :func:`fpcount.counters.increment` would.  The stream is
counter-based, so any 64-bit block is computed directly from
(seed, block index) with vectorized uint64 arithmetic -- no per-stream
state beyond the current bit position.

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

_PHI = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U6 = np.uint64(6)
_U11 = np.uint64(11)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U53 = np.uint64(53)
_U63 = np.uint64(63)
_U64 = np.uint64(64)
_INV53 = 2.0**-53
_CEILING = np.uint64(DEFAULT_CEILING)

_MAX_SCAN = 52  # uint64 -> float64 bit-length trick is exact below 2**53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U30)) * _MIX1
    z = (z ^ (z >> _U27)) * _MIX2
    return z ^ (z >> _U31)


def _block(seeds: np.ndarray, index: np.ndarray) -> np.ndarray:
    return _mix64(seeds + (index + _U1) * _PHI)


def _extract64(seeds: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The next 64 stream bits from bit offset `pos`, MSB-first."""
    b0 = pos >> _U6
    off = pos & _U63
    w0 = _block(seeds, b0)
    w1 = _block(seeds, b0 + _U1)
    high = w0 << off
    # (w1 >> 1) >> (63 - off) == w1 >> (64 - off) without the undefined
    # shift-by-64 at off == 0, where the contribution must be zero
    low = np.where(off == _U0, _U0, (w1 >> _U1) >> (_U63 - off))
    return high | low


def _bit_lengths(win: np.ndarray) -> np.ndarray:
    # exact for values < 2**53: frexp exponent of the float image
    return np.frexp(win.astype(np.float64))[1].astype(np.uint64)


def simulate(
    params: CounterParams,
    n_max: int,
    seeds: np.ndarray,
    checkpoints,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run `seeds.size` trajectories for n_max updates.

    Returns (states, bits, estimates), each shaped
    (len(checkpoints), seeds.size); `bits` is the exact count of stream
    bits consumed up to the checkpoint.
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
    shift = np.uint64(params.d if params.family is Family.FP else 0)
    thresh = np.zeros(0, dtype=np.float64)
    ci = 0
    last = cps[-1] if cps else 0
    for m in range(1, n_max + 1):
        # the family's decision: which replicates step, and the bits each used
        if qary:
            top = int(k.max()) + 1
            if top > thresh.size:
                grow = max(2 * thresh.size, top + 64)
                thresh = np.array(
                    [transition_prob(params, kk) for kk in range(grow)],
                    dtype=np.float64,
                )
            u = (_extract64(seeds, pos) >> _U11).astype(np.float64) * _INV53
            step = u < thresh[k]
            used = _U53
        else:
            t = k >> shift
            active = t > _U0
            win = _extract64(seeds, pos) >> (_U64 - np.where(active, t, _U1))
            succ = win == _U0
            step = succ | ~active
            used = np.where(
                active, np.where(succ, t, t + _U1 - _bit_lengths(win)), _U0
            )
        if m > DEFAULT_CEILING:
            live = k < _CEILING
            step &= live
            used = np.where(live, used, _U0)
        pos += used
        k += step.astype(np.uint64)
        if ci < len(cps) and m == cps[ci]:
            if not qary and int((k >> shift).max()) > _MAX_SCAN:
                raise OverflowError("scan length beyond the vectorized range")
            top = int(k.max()) + 1
            if top > est_table.size:
                est_table = np.array(
                    [estimate_float(params, kk) for kk in range(top)], dtype=np.float64
                )
            states[ci], bits[ci], estimates[ci] = k, pos, est_table[k]
            ci += 1
        if m == last:
            break
    return states, bits, estimates
