"""Counter state machines driven by a bit stream.

The morris and fp families advance by scanning random bits (an update at
state k succeeds iff the next ``scan_length(k)`` bits are all zero, with
morris handled as the fp chain with d = 0 so both share one code path);
qary compares a 53-bit uniform against its transition probability.

Counters saturate at a configurable ceiling instead of growing without
bound: once k reaches the ceiling the state is flagged and further
increments leave it unchanged, so the estimate remains a valid lower
bound.  No exception is raised for saturation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import CounterParams, Family, _integer, transition_prob
from .randbits import BitStream

DEFAULT_CEILING = (1 << 16) - 1

__all__ = [
    "DEFAULT_CEILING",
    "CounterState",
    "decompose",
    "increment",
    "new_counter",
    "storage_bits",
]


@dataclass(frozen=True)
class CounterState:
    k: int = 0
    saturated: bool = False


def new_counter() -> CounterState:
    """Fresh counter: state 0, not saturated."""
    return CounterState()


def increment(
    state: CounterState,
    params: CounterParams,
    src: BitStream,
    ceiling: int = DEFAULT_CEILING,
) -> CounterState:
    """One counted event: advance k -> k+1 with probability q_k.

    Consumes exactly the bits the decision needs (none while saturated
    or in the deterministic fp prefix).  Reaching `ceiling` sets the
    saturated flag; increments on a saturated state are no-ops.  The
    state (0 or more) and `ceiling` (1 or more) are integers; numpy ints
    read exactly.
    """
    if ceiling.__class__ is not int or ceiling < 1:
        ceiling = _integer(ceiling, "ceiling", 1)
    k = state.k
    if k.__class__ is not int or k < 0:
        k = _integer(k, "state", 0)
    if state.saturated or k >= ceiling:
        if not state.saturated:
            return CounterState(k, True)
        return state
    if params.family is Family.QARY:
        advanced = src.next_uniform53() < transition_prob(params, k)
    else:
        advanced = src.bernoulli_pow2(params.scan_length(k))
    if not advanced:
        return state
    k += 1
    return CounterState(k, k >= ceiling)


def decompose(state: CounterState, params: CounterParams) -> tuple[int, int]:
    """Split an fp state into (exponent, significand) by shift and subtract."""
    if params.family is not Family.FP:
        raise ValueError("decompose applies to fp counters only")
    k = _integer(state.k, "state", 0)
    t = k >> params.d
    return t, k - (t << params.d)


def storage_bits(state: CounterState) -> int:
    """Bits needed to hold the current state: ceil(log2(k + 1)), min 1."""
    return max(1, _integer(state.k, "state", 0).bit_length())
