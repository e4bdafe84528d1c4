"""Counter state machine: bit consumption per update, the deterministic
prefix, saturation-as-flag semantics, the qary uniform comparison, and
the chain's state law and bit cost over every bit script of small n."""

from fractions import Fraction

import numpy as np
import pytest

from fpcount import (
    CounterParams,
    CounterState,
    decompose,
    estimate,
    estimate_float,
    expected_bits,
    increment,
    new_counter,
    run_ensemble,
    run_trajectory,
    step_distribution,
    storage_bits,
    sweep_moments,
    variance_fn,
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


def test_a_prefix_state_never_builds_two_to_the_d():
    # below 2**d every update advances and f(k) = k; building M = 2**d for
    # d = 10**12 would ask for 125 GB
    params = CounterParams.fp(10**12)
    for k in range(6):
        assert estimate(params, k) == k and type(estimate(params, k)) is int
        assert estimate_float(params, k) == float(k)
        assert variance_fn(params, k) == 0 and type(variance_fn(params, k)) is int
        assert decompose(CounterState(k), params) == (0, k)
    assert [(p.k, p.estimate) for p in run_trajectory(params, 5, 1, [1, 3, 5])] == [
        (1, 1.0), (3, 3.0), (5, 5.0)
    ]
    report = run_ensemble(params, 5, 3, seed=1)
    assert report.states.tolist() == [[n] * 3 for n in report.checkpoints]
    assert not report.bits.any()
    for mode in ("float", "exact"):
        records = sweep_moments(params, [0, 2, 5], mode)
        assert [(r.n, r.mean, r.variance) for r in records] == [(0, 0, 0), (2, 2, 0), (5, 5, 0)]
        assert expected_bits(params, 5, mode) == (0, 0)


def test_storage_bits():
    assert storage_bits(CounterState(k=0)) == 1
    assert storage_bits(CounterState(k=1)) == 1
    assert storage_bits(CounterState(k=255)) == 8
    assert storage_bits(CounterState(k=256)) == 9


def _token_scripts(params, n):
    # every bit script of n updates: at scan length t an update reads one
    # of the tokens 1, 01, ..., 0^(t-1)1 (it stays) or 0^t (it advances)
    scripts = [("", 0)]
    for _ in range(n):
        grown = []
        for script, k in scripts:
            t = params.scan_length(k)
            grown += [(script + "0" * j + "1", k) for j in range(t)]
            grown.append((script + "0" * t, k + 1))
        scripts = grown
    return [script for script, _ in scripts]


@pytest.mark.parametrize(
    "params, n_max",
    [
        (CounterParams.morris(), 8),
        (CounterParams.fp(1), 9),
        (CounterParams.fp(2), 10),
        (CounterParams.fp(3), 12),
    ],
    ids=str,
)
def test_scalar_counter_follows_the_chain_law(params, n_max):
    # n updates of increment over each script consume it exactly, and
    # the scripts' weights 2**-len, summed by final state, are the exact
    # step distribution; their mean length is the expected bits summed
    # over the first n updates
    for n in range(1, n_max + 1):
        probs, bits = [Fraction(0)] * (n + 1), Fraction(0)
        for script in _token_scripts(params, n):
            src, state = ScriptedBitSource(script), new_counter()
            for _ in range(n):
                state = increment(state, params, src)
            assert src.remaining == 0
            weight = Fraction(1, 1 << len(script))
            probs[state.k] += weight
            bits += weight * len(script)
        assert tuple(probs) == tuple(step_distribution(params, n, "exact").probs)
        assert bits == sum(expected_bits(params, m, "exact").expected for m in range(n))
