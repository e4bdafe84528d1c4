"""Counter state machine: bit consumption per update, the deterministic
prefix, saturation-as-flag semantics, and the qary uniform comparison."""

import numpy as np
import pytest

from fpcount import (
    CounterParams,
    CounterState,
    decompose,
    increment,
    new_counter,
    storage_bits,
)
from fpcount.counters import DEFAULT_CEILING
from fpcount.randbits import ScriptedBitSource

FP2 = CounterParams.fp(2)


def test_new_counter():
    state = new_counter()
    assert state.k == 0
    assert not state.saturated


def test_deterministic_prefix_consumes_no_bits():
    # fp d=2 advances surely while k < 4; an empty script proves no reads
    src = ScriptedBitSource("")
    state = new_counter()
    for _ in range(4):
        state = increment(state, FP2, src)
    assert state.k == 4
    assert src.stream_position == 0


def test_scripted_advance_and_stay():
    state = CounterState(k=4)  # exponent 1: one bit decides
    advanced = increment(state, FP2, ScriptedBitSource("0"))
    assert advanced.k == 5
    stayed = increment(state, FP2, ScriptedBitSource("1"))
    assert stayed.k == 4


def test_morris_equals_fp0():
    script = "0110010111000101"
    a = new_counter()
    b = new_counter()
    sa = ScriptedBitSource(script)
    sb = ScriptedBitSource(script)
    for _ in range(8):
        a = increment(a, CounterParams.morris(), sa)
        b = increment(b, CounterParams.fp(0), sb)
    assert a == b
    assert sa.stream_position == sb.stream_position


def test_qary_uniform_comparison_is_strict():
    q4 = CounterParams.qary(4)
    # at k = r the threshold is exactly 0.5
    at_half = CounterState(k=4)
    below = increment(at_half, q4, ScriptedBitSource("0" * 53))  # u = 0.0
    assert below.k == 5
    equal = increment(at_half, q4, ScriptedBitSource("1" + "0" * 52))  # u = 0.5
    assert equal.k == 4  # u < q_k is strict


def test_qary_state_zero_always_advances():
    q16 = CounterParams.qary(16)
    src = ScriptedBitSource("1" * 53)  # largest possible u, still < 1.0
    state = increment(new_counter(), q16, src)
    assert state.k == 1
    assert src.stream_position == 53


def test_reaching_ceiling_sets_flag():
    state = CounterState(k=2)
    out = increment(state, FP2, ScriptedBitSource(""), ceiling=3)
    assert out == CounterState(k=3, saturated=True)


def test_saturated_increment_is_a_noop():
    src = ScriptedBitSource("")
    state = CounterState(k=3, saturated=True)
    out = increment(state, FP2, src, ceiling=3)
    assert out is state
    assert src.stream_position == 0


def test_at_ceiling_but_unflagged_gets_flagged():
    # a state loaded at the ceiling without its flag is normalized
    state = CounterState(k=3, saturated=False)
    out = increment(state, FP2, ScriptedBitSource(""), ceiling=3)
    assert out == CounterState(k=3, saturated=True)


def test_default_ceiling():
    assert DEFAULT_CEILING == (1 << 16) - 1
    with pytest.raises(ValueError):
        increment(new_counter(), FP2, ScriptedBitSource(""), ceiling=0)


def test_ceiling_is_read_by_the_integer_rule():
    with pytest.raises(ValueError, match="^ceiling 2.5 is not an integer$"):
        increment(new_counter(), FP2, ScriptedBitSource(""), ceiling=2.5)
    with pytest.raises(ValueError, match=r"^ceiling 0 is outside 1\.\.inf$"):
        increment(new_counter(), FP2, ScriptedBitSource(""), ceiling=0)
    out = increment(CounterState(k=2), FP2, ScriptedBitSource(""), ceiling=np.int64(3))
    assert out == CounterState(k=3, saturated=True)


def test_numpy_state_advances_like_its_int():
    # k = 5 in fp(2) scans t = 1 bit: a 0 advances it, a 1 does not
    for script, k in (("0", 6), ("1", 5)):
        src = ScriptedBitSource(script)
        out = increment(CounterState(np.uint64(5)), FP2, src)
        assert (out.k, src.stream_position) == (k, 1)


def test_decompose():
    assert decompose(CounterState(k=37), CounterParams.fp(4)) == (2, 5)
    assert decompose(CounterState(k=3), CounterParams.fp(0)) == (3, 0)
    with pytest.raises(ValueError):
        decompose(CounterState(k=3), CounterParams.morris())


def test_storage_bits():
    assert storage_bits(CounterState(k=0)) == 1
    assert storage_bits(CounterState(k=1)) == 1
    assert storage_bits(CounterState(k=255)) == 8
    assert storage_bits(CounterState(k=256)) == 9
