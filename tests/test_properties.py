"""Property tests for the fast paths against their references.

* ``BitSource`` reads by word; the bit-by-bit loops of ``BitStream``
  over a script of the same blocks' bits are its reference, for every
  reader method.  Blocks are drawn sparse and all-zero as well as
  random, so scans of t >= 64 succeed and cross block boundaries.
* ``_blocks`` computes many streams' blocks at once, and
  ``stream_uniforms53`` reads runs of 53-bit draws for many seeds from
  one position; the stream's definition (``stream_block``) and
  successive ``BitSource.next_uniform53`` calls are their references.
* ``stream_skip`` runs one level batch: the whole ``bernoulli_pow2(t)``
  scans in a span of blocks, up to a quota of successes, with the state
  and position after each goal's scan.  A loop of the scalar scan on a
  ``BitSource`` at the same position, or on a script of the span's bits
  (sparse and all-zero blocks, so zero runs straddle blocks and the
  span's end), is its reference, for the word form and the Python-int
  form of the search alike.  The popcounts under it are pinned to
  ``int.bit_count``, and its select of the r-th 1 of a word to a loop
  over the word's bits.
* ``CounterTable.increment`` updates a packed slot in one pass, and a
  width-8 slot (drawn in half the runs) as one byte; a replay through
  ``counters.increment`` with the slot's ceiling, plus the documented
  snapshot layout, is its reference.
* ``CounterTable.from_bytes`` takes untrusted bytes and may fail only
  with ValueError.
* ``_engine.simulate`` runs morris and fp counters in level batches,
  from 1 seed up, and qary counters comparing bulk-read draws, one seed
  at a time below ``_VECTOR_MIN`` replicates and side by side from there
  on; runs are drawn at 1, 2 and 3 seeds and from ``_VECTOR_MIN`` on.
  The ``counters.increment`` loop over each replicate's stream is the
  reference of each kernel on its own, for states, consumed bits and
  estimates.
* Update counts go through one rule that sorts and deduplicates them:
  ``run_trajectory``, ``run_ensemble`` (qary's per-seed and vector kernels),
  ``sweep_moments`` and the CLI's ``--checkpoints`` given a shuffled
  list with repeats equal the same call on the sorted distinct list.
* The qary closed forms ``estimate`` and ``variance_fn`` round an
  exponent of size k/r; 50-digit ``decimal`` values are their reference.
  The exact morris and fp closed forms have the defining series
  ``estimate_series`` and ``variance_series`` as theirs.
* ``estimate`` and ``estimate_float`` read a state in one pass; past
  the double range they refuse with CounterRangeError, where the exact
  int's size (morris and fp) or a 50-digit value (qary) is the
  reference, and below it the float equals the exact int rounded.
* Every function that reads a counter state reads it by the one integer
  rule: negative ints and floats are refused with the rule's message,
  and a numpy int reads as its Python int.
"""

import contextlib
import decimal
import io
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpcount import (
    CounterParams,
    CounterState,
    CounterTable,
    Family,
    SlotEstimate,
    decompose,
    estimate,
    estimate_float,
    increment,
    new_counter,
    relative_spread,
    run_ensemble,
    run_trajectory,
    storage_bits,
    sweep_moments,
    transition_prob,
    variance_fn,
)
from fpcount._engine import _VECTOR_MIN, simulate
from fpcount.chain import CounterRangeError, estimate_series, variance_series
from fpcount.cli import main
from fpcount.counters import DEFAULT_CEILING
from fpcount.randbits import (
    MAX_SCAN,
    BitSource,
    BitStream,
    ScriptedBitSource,
    _blocks,
    _nth_one,
    _popcount64,
    _swar_popcount64,
    child_seed,
    stream_block,
    stream_skip,
    stream_uniforms53,
)

blocks = st.lists(
    st.one_of(
        st.just(0),
        st.integers(0, 63).map(lambda b: 1 << b),
        st.integers(0, 2**64 - 1),
    ),
    min_size=1,
    max_size=6,
)
ops = st.lists(
    st.tuples(st.sampled_from(["scan", "take", "bit", "u53"]), st.integers(0, 140)),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(blocks=blocks, ops=ops)
def test_word_scan_matches_bit_loop(blocks, ops):
    def block(seed, index):
        return blocks[index % len(blocks)]

    # 60 ops of at most 140 bits, then 64: fewer than 134 blocks' worth
    ref = ScriptedBitSource(
        "".join(format(blocks[j % len(blocks)], "064b") for j in range(134))
    )
    fast = BitSource(0)
    with mock.patch("fpcount.randbits.stream_block", block):
        for op, n in ops:
            if op == "scan":
                assert fast.bernoulli_pow2(n) == ref.bernoulli_pow2(n)
            elif op == "take":
                assert fast.take_bits(n) == ref.take_bits(n)
            elif op == "bit":
                assert fast.next_bit() == ref.next_bit()
            else:
                assert fast.next_uniform53() == ref.next_uniform53()
            assert fast.stream_position == ref.stream_position
        assert fast.take_bits(64) == ref.take_bits(64)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    ts=st.lists(st.integers(0, 130), max_size=200),
)
def test_word_scan_matches_bit_loop_on_canonical_stream(seed, ts):
    fast, ref = BitSource(seed), BitSource(seed)
    for t in ts:
        assert fast.bernoulli_pow2(t) == BitStream.bernoulli_pow2(ref, t)
        assert fast.stream_position == ref.stream_position


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    firsts=st.lists(
        st.one_of(st.integers(0, 2**20), st.integers(2**64 - 8, 2**64 - 1)),
        min_size=4,
        max_size=4,
    ),
    count=st.integers(1, 5),
    per_stream=st.booleans(),
)
def test_block_reader_matches_stream_definition(seeds, firsts, count, per_stream):
    # the first block one per stream, or one for all; counters wrap mod 2**64
    firsts = firsts[: len(seeds)] if per_stream else [firsts[0]] * len(seeds)
    got = _blocks(np.array(seeds, dtype=np.uint64), np.array(firsts, dtype=np.uint64), count)
    assert got.shape == (count, len(seeds))
    for i, (seed, f) in enumerate(zip(seeds, firsts)):
        assert got[:, i].tolist() == [stream_block(seed, f + j) for j in range(count)]


@settings(max_examples=200, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    pos=st.one_of(
        st.integers(0, 64 * 64 - 1).map(lambda p: p & ~63),  # a block start
        st.integers(0, 64 * 64 - 1).map(lambda p: p | 63),  # a block end
        st.integers(0, 4096),
    ),
    # 53 and 64 are coprime, so 64 draws start at every offset in a block
    count=st.one_of(st.integers(1, 3), st.integers(1, 130)),
)
def test_bulk_uniforms_match_next_uniform53(seeds, pos, count):
    draws = stream_uniforms53(np.array(seeds, dtype=np.uint64), pos, count)
    assert draws.shape == (count, len(seeds))
    for i, seed in enumerate(seeds):
        src = BitSource(seed)
        src.take_bits(pos)
        assert draws[:, i].tolist() == [src.next_uniform53() for _ in range(count)]


def test_bulk_uniforms_read_any_number_of_blocks():
    # 20000 draws from bit 5 touch 16563 blocks, more than a scan span holds
    draws = stream_uniforms53(np.array([77], dtype=np.uint64), 5, 20000)
    src = BitSource(77)
    src.take_bits(5)
    assert draws[:, 0].tolist() == [src.next_uniform53() for _ in range(20000)]


def _batches_by_scans(sources, ts, quotas, goals, ends):
    """stream_skip's outputs from scalar scans on `sources`.

    Each stream takes whole scans at its scan length, ending by its stream
    bit in `ends`, until its quota-th success.  Returns, per stream, the
    (advances, position) after each goal's scan (None past the scans
    taken) and at the stop, and the scans.
    """
    out = []
    for i, src in enumerate(sources):
        advances = done = 0
        last, at = src.stream_position, {}
        while advances < quotas[i]:
            try:
                advanced = src.bernoulli_pow2(ts[i])
            except RuntimeError:  # the script, which holds the span, ran out
                break
            if src.stream_position > ends[i]:
                break
            done += 1
            advances += advanced
            last = src.stream_position
            at[done] = (advances, last)
        out.append(([at.get(row[i]) for row in goals] + [(advances, last)], done))
    return out


def _assert_batches(seeds, pos, ts, quotas, goals, blocks, sources, words):
    # `words`: the largest span array searched in Python ints, so that either
    # form of the search runs
    with mock.patch("fpcount.randbits._INT_WORDS", words):
        advances, ends, scans = stream_skip(
            np.array(seeds, dtype=np.uint64),
            np.array(pos, dtype=np.uint64),
            np.array(ts, dtype=np.uint64),
            np.array(quotas, dtype=np.uint64),
            np.array(goals, dtype=np.uint64).reshape(-1, len(seeds)),
            blocks,
        )
    span_ends = [((p >> 6) + blocks) * 64 for p in pos]
    want = _batches_by_scans(sources, ts, quotas, goals, span_ends)
    for i, (points, want_scans) in enumerate(want):
        assert int(scans[i]) == want_scans
        for j, point in enumerate(points):
            if point is not None:
                assert (int(advances[j, i]), int(ends[j, i])) == point


scan_lengths = st.one_of(st.integers(1, 8), st.integers(1, MAX_SCAN))


@st.composite
def batches(draw, streams, positions):
    """(pos, t, quota) per stream, the goal rows and the span's blocks."""
    n = len(streams)
    blocks = draw(st.integers(2, 6))
    pos = [draw(positions) for _ in range(n)]
    ts = [draw(scan_lengths) for _ in range(n)]
    # a stream's quota is what is left of its level: a few successes end
    # mid-span, as in fp(0) .. fp(2), and quotas all of 1 (as in morris)
    # take the first-window marks
    most = draw(st.sampled_from([1, 2, 4, 16, 64]))
    quota = st.one_of(st.integers(1, min(4, most)), st.integers(1, most))
    qs = [draw(quota) for _ in range(n)]
    # goals ascend down each column, and often land mid-span
    g = draw(st.integers(0, 3))
    cols = [
        sorted(draw(st.sets(st.integers(1, 64 * blocks), min_size=g, max_size=g)))
        for _ in range(n)
    ]
    goals = [[col[j] for col in cols] for j in range(g)]
    return pos, ts, qs, goals, blocks


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
)
def test_level_batches_match_bernoulli_pow2(data, seeds):
    # block starts and ends, where a span's first block is nearly all read
    positions = st.one_of(
        st.integers(0, 40).map(lambda j: 64 * j),
        st.integers(0, 40).map(lambda j: 64 * j + 63),
        st.integers(0, 64 * 41),
    )
    pos, ts, qs, goals, blocks = data.draw(batches(seeds, positions))
    sources = []
    for seed, p in zip(seeds, pos):
        src = BitSource(seed)
        src.take_bits(p)
        sources.append(src)
    words = data.draw(st.sampled_from([0, 1 << 20]))
    _assert_batches(seeds, pos, ts, qs, goals, blocks, sources, words)


words = st.one_of(
    st.just(0),
    st.integers(0, 63).map(lambda b: 1 << b),
    st.lists(st.integers(0, 63), max_size=4).map(lambda bs: sum({1 << b for b in bs})),
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    spans=st.lists(st.lists(words, min_size=6, max_size=6), min_size=1, max_size=6),
)
def test_level_batches_on_sparse_spans(data, spans):
    # zero and sparse blocks: long scans succeed, and zero runs straddle
    # blocks and the span's end; the span starts in block 0 of each stream
    pos, ts, qs, goals, blocks = data.draw(batches(spans, st.integers(0, 63)))
    span = np.array([words[:blocks] for words in spans], dtype=np.uint64).T
    sources = []
    for words_, p in zip(spans, pos):
        src = ScriptedBitSource("".join(format(w, "064b") for w in words_[:blocks]))
        src.take_bits(p)
        sources.append(src)
    words = data.draw(st.sampled_from([0, 1 << 20]))
    with mock.patch("fpcount.randbits._blocks", lambda seeds, first, count: span.copy()):
        _assert_batches([0] * len(spans), pos, ts, qs, goals, blocks, sources, words)


def test_exact_bit_helpers():
    values = [0, 1, 2, 3, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**64 - 1]
    values += [1 << b for b in range(64)] + [(1 << b) - 1 for b in range(1, 65)]
    x = np.array(values, dtype=np.uint64)
    for popcount in (_popcount64, _swar_popcount64):
        assert popcount(x).tolist() == [v.bit_count() for v in values]


@settings(max_examples=300, deadline=None)
@given(ws=st.lists(st.one_of(words, st.just(2**64 - 1)), min_size=1, max_size=8))
def test_nth_one_matches_bit_loop(ws):
    # every r from 1 to the word's 1s, as uint64 as stream_skip has them
    want = [i for w in ws for i in range(64) if w >> (63 - i) & 1]
    pairs = [(w, r) for w in ws for r in range(1, w.bit_count() + 1)]
    w = np.array([w for w, _ in pairs], dtype=np.uint64).reshape(-1, 1)
    r = np.array([r for _, r in pairs], dtype=np.uint64).reshape(-1, 1)
    assert _nth_one(w, r).ravel().tolist() == want


def _outcome(thunk):
    """The thunk's value, or CounterRangeError for estimates past float range."""
    try:
        return thunk()
    except CounterRangeError:
        return CounterRangeError


@st.composite
def table_runs(draw):
    # byte slots (read and written whole), or exponent bits: few (so
    # slots saturate within a few hundred events) or any
    if draw(st.booleans()):
        d, width = draw(st.integers(0, 7)), 8
    else:
        gap = draw(st.one_of(st.integers(1, 3), st.integers(1, 32)))
        d = draw(st.integers(0, 32 - gap))
        width = d + gap
    slots = draw(st.integers(1, 12))
    top = (1 << width) - 1
    # start states: low, near the ceiling, or anywhere
    start = draw(
        st.lists(
            st.one_of(
                st.integers(0, min(top, 40)),
                st.integers(max(0, top - 3), top),
                st.integers(0, top),
            ),
            min_size=slots,
            max_size=slots,
        )
    )
    events = draw(st.lists(st.integers(0, slots - 1), max_size=300))
    seed = draw(st.integers(0, 2**64 - 1))
    return d, width, start, events, seed


@settings(max_examples=200, deadline=None)
@given(run=table_runs())
def test_table_matches_scalar_replay(run, with_slot):
    d, width, start, events, seed = run
    ceiling = (1 << width) - 1
    params = CounterParams.fp(d)
    table = CounterTable(len(start), d, width)
    for i, k in enumerate(start):
        table = with_slot(table, i, k)
    states = [CounterState(k) for k in start]
    saturated = start.count(ceiling)
    src, ref = BitSource(seed), BitSource(seed)
    for i in events:
        before = states[i]
        states[i] = increment(before, params, ref, ceiling)
        if before.k < ceiling == states[i].k:
            saturated += 1
        assert table.increment(i, src) == states[i].k
        assert src.stream_position == ref.stream_position
    assert table.saturation_count == saturated
    ks = [s.k for s in states]
    assert [table.get_state(i) for i in range(len(ks))] == ks
    for i, k in enumerate(ks):
        want = _outcome(lambda: SlotEstimate(estimate_float(params, k), k == ceiling))
        assert _outcome(lambda: table.estimate(i)) == want
    # snapshot: byte-exact layout, and a byte-identical round trip
    blob = table.to_bytes()
    packed = sum(k << (i * width) for i, k in enumerate(ks))
    size = table.payload_bytes
    assert blob[-size:] == packed.to_bytes(size, "little")
    clone = CounterTable.from_bytes(blob)
    assert clone.to_bytes() == blob
    assert [clone.get_state(i) for i in range(len(ks))] == ks


@st.composite
def snapshots(draw):
    """Any bytes, or FPCT-like headers with fields drawn near and far
    from valid, followed by a payload that is sometimes the right size."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    magic = draw(st.sampled_from([b"FPCT", b"NOPE"]))
    version = draw(st.sampled_from([1, 0, 2]))
    # mostly near the valid range d < width <= 32, sometimes anywhere
    d = draw(st.one_of(st.integers(0, 33), st.integers(0, 255)))
    width = draw(st.one_of(st.integers(0, 33), st.integers(0, 255)))
    num_slots = draw(st.one_of(st.integers(0, 64), st.integers(0, 2**64 - 1)))
    saturated = draw(st.one_of(st.integers(0, 64), st.integers(0, 2**64 - 1)))
    size = (num_slots * width + 7) >> 3
    if size <= 512 and draw(st.booleans()):
        payload = draw(st.binary(min_size=size, max_size=size))
    else:
        payload = draw(st.binary(max_size=80))
    header = struct.pack("<4sHBBQQ", magic, version, d, width, num_slots, saturated)
    return header + payload


@settings(max_examples=300, deadline=None)
@given(blob=snapshots())
def test_from_bytes_raises_only_value_error(blob):
    try:
        table = CounterTable.from_bytes(blob)
    except ValueError:
        return
    assert table.saturation_count <= table.num_slots
    assert table.to_bytes() == blob


def _increment_loop(params, seed, cps):
    """(state, bits) at each checkpoint of the counters.increment loop."""
    src, state, out = BitSource(seed), new_counter(), []
    for m in range(1, cps[-1] + 1):
        state = increment(state, params, src)
        if m == cps[len(out)]:
            out.append((state.k, src.stream_position))
    return out


scan_params = st.one_of(
    st.just(CounterParams.morris()), st.integers(0, 8).map(CounterParams.fp)
)


@st.composite
def engine_runs(
    draw, params=st.one_of(scan_params, st.integers(1, 32).map(CounterParams.qary))
):
    params = draw(params)
    n = draw(st.one_of(st.integers(1, 300), st.integers(1, 3000)))
    cps = sorted(draw(st.sets(st.integers(1, n), min_size=1, max_size=8)))
    seed = draw(st.integers(0, 2**64 - 1))
    # 1 to 3 seeds, and from _VECTOR_MIN on, where qary runs its vector kernel
    vector = st.integers(_VECTOR_MIN, _VECTOR_MIN + 2)
    reps = draw(st.one_of(st.integers(1, 3), vector))
    seeds = [child_seed(seed, i) for i in range(reps)]
    return params, n, cps, seeds


# the t = 0 prefix of fp(16) ends at DEFAULT_CEILING; fp(15) scans up to
# it, and reaches it after about 98300 updates; qary(2**20) advances on
# most updates and saturates between 66000 and 68000 on this stream
CEILING_RUNS = [
    (CounterParams.fp(16), 70000, [DEFAULT_CEILING - 1, DEFAULT_CEILING, 70000], [5]),
    (CounterParams.fp(15), 100000, [40000, DEFAULT_CEILING + 1, 70000, 100000], [6]),
    (CounterParams.qary(2**20), 70000, [66000, 68000, 70000], [7]),
    (
        CounterParams.fp(15),
        100000,
        [DEFAULT_CEILING + 1, 98000, 100000],
        [child_seed(8, i) for i in range(_VECTOR_MIN)],
    ),
]


@settings(max_examples=100, deadline=None)
@given(run=engine_runs())
@example(run=CEILING_RUNS[0])
@example(run=CEILING_RUNS[1])
@example(run=CEILING_RUNS[2])
@example(run=CEILING_RUNS[3])
def test_engine_matches_scalar_loop(run):
    params, n, cps, seeds = run
    states, bits, estimates = simulate(
        params, n, np.array(seeds, dtype=np.uint64), cps
    )
    for i, seed in enumerate(seeds):
        for ci, (k, used) in enumerate(_increment_loop(params, seed, cps)):
            assert (int(states[ci, i]), int(bits[ci, i])) == (k, used)
            assert estimates[ci, i] == estimate_float(params, k)


@settings(max_examples=100, deadline=None)
@given(run=engine_runs())
@example(run=CEILING_RUNS[0])
@example(run=CEILING_RUNS[1])
@example(run=CEILING_RUNS[2])
def test_trajectory_matches_scalar_loop(run):
    params, n, cps, seeds = run
    for seed in seeds:
        want = _increment_loop(params, seed, cps)
        states, bits, _ = simulate(params, n, np.array([seed], dtype=np.uint64), cps)
        assert list(zip(states[:, 0].tolist(), bits[:, 0].tolist())) == want
        points = run_trajectory(params, n, seed, cps)
        assert [(p.n, p.k, p.estimate) for p in points] == [
            (m, k, estimate_float(params, k)) for m, (k, _) in zip(cps, want)
        ]


@st.composite
def shuffled_counts(draw):
    """(params, n, a list of ints in 1..n with repeats, in any order)."""
    params = draw(
        st.sampled_from([CounterParams.morris(), CounterParams.fp(3), CounterParams.qary(4)])
    )
    n = draw(st.integers(1, 300))
    return params, n, draw(st.lists(st.integers(1, n), min_size=1, max_size=12))


@settings(max_examples=100, deadline=None)
@given(run=shuffled_counts(), seed=st.integers(0, 2**64 - 1))
def test_update_counts_are_sorted_and_deduplicated(run, seed):
    params, n, cps = run
    ordered = sorted(set(cps))
    assert run_trajectory(params, n, seed, cps) == run_trajectory(params, n, seed, ordered)
    for reps in (2, _VECTOR_MIN):  # qary's per-seed kernel, then its vector one
        a, b = (run_ensemble(params, n, reps, seed, c) for c in (cps, ordered))
        assert a.checkpoints == b.checkpoints == tuple(ordered)
        for field in ("states", "estimates", "bits"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
    assert sweep_moments(params, cps) == sweep_moments(params, ordered)
    flags = {"fp": ["--d", "3"], "qary": ["--r", "4"]}.get(params.family.value, [])
    argv = ["trajectory", "--counter", params.family.value, *flags, "--n", str(n)]
    outs = []
    for spec in (cps, ordered):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main([*argv, "--seed", str(seed), "--checkpoints", ",".join(map(str, spec))])
        assert code == 0
        outs.append(out.getvalue())
    assert outs[0] == outs[1]


@settings(max_examples=200, deadline=None)
@given(
    rk=st.integers(1, 32).flatmap(
        lambda r: st.tuples(st.just(r), st.integers(1, min(5000, 500 * r)))
    )
)
def test_qary_closed_forms_match_high_precision(rk):
    # the exponent k*ln2/r is rounded, so the relative error grows like k/r
    # ulps, for g as for f
    r, k = rk
    with decimal.localcontext(decimal.Context(prec=50)):
        a = decimal.Decimal(2).ln() / r
        f = ((a * k).exp() - 1) / (a.exp() - 1)
        g = ((2 * a * k).exp() - 1) / ((2 * a).exp() - 1) - f
        tol = decimal.Decimal(4 * (1 + k / r) * 2.0**-52)
    params = CounterParams.qary(r)
    assert abs(decimal.Decimal(estimate(params, k)) - f) <= tol * f
    assert abs(decimal.Decimal(variance_fn(params, k)) - g) <= tol * g


@settings(max_examples=200, deadline=None)
@given(
    params=st.one_of(
        st.just(CounterParams.morris()), st.integers(0, 16).map(CounterParams.fp)
    ),
    k=st.integers(0, 5000),
)
def test_exact_closed_forms_match_series(params, k):
    assert estimate(params, k) == estimate_series(params, k)
    assert variance_fn(params, k) == variance_series(params, k)


# doubles end at the largest finite value 2**1024 - 2**971; an int rounds
# to it below the halfway point to 2**1024, and overflows from there
_DOUBLE_LIMIT = 2**1024 - 2**970


@st.composite
def binary_states(draw):
    # morris, or fp(d) up to d = 1100, whose small states stay finite; the
    # exponent t ranges to the float limit at t = 1024 and past it
    params = draw(
        st.one_of(
            st.just(CounterParams.morris()),
            st.integers(0, 16).map(CounterParams.fp),
            st.integers(0, 1100).map(CounterParams.fp),
        )
    )
    d = params.d or 0
    t = draw(st.one_of(st.integers(0, 1100), st.integers(1015, 1030), st.just(2**40)))
    u = draw(st.one_of(st.just(0), st.just((1 << d) - 1), st.integers(0, (1 << d) - 1)))
    return params, (t << d) + u


@settings(max_examples=300, deadline=None)
@given(state=binary_states())
@example(state=(CounterParams.fp(1024), _DOUBLE_LIMIT - 1))
@example(state=(CounterParams.fp(1024), _DOUBLE_LIMIT))
def test_binary_reads_refuse_exactly_past_the_double_range(state):
    params, k = state
    d = params.d or 0
    t = k >> d
    # f(k) = (M + u)*2**t - M >= 2**t - 1, so t > 1024 is out of range
    # without building the exact int
    exact = None if t > 2048 else estimate(params, k)
    if exact is None or exact >= _DOUBLE_LIMIT:
        with pytest.raises(CounterRangeError):
            estimate_float(params, k)
    else:
        assert estimate_float(params, k) == float(exact)


@settings(max_examples=300, deadline=None)
@given(
    rk=st.integers(1, 64).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.one_of(
                st.integers(0, 1100 * r),
                st.integers(1000 * r, 1050 * r),
            ),
        )
    )
)
def test_qary_reads_refuse_exactly_past_the_double_range(rk):
    # the exponent k*ln2/r is rounded, so near the limit the refusal may
    # fall either way within the closed forms' k/r ulps
    r, k = rk
    params = CounterParams.qary(r)
    with decimal.localcontext(decimal.Context(prec=50)):
        a = decimal.Decimal(2).ln() / r
        f = ((a * k).exp() - 1) / (a.exp() - 1)
        tol = decimal.Decimal(4 * (1 + k / r) * 2.0**-52)
        limit = decimal.Decimal(_DOUBLE_LIMIT)
        outcome = _outcome(lambda: estimate_float(params, k))
        if outcome is CounterRangeError:
            assert f >= limit * (1 - tol)
        else:
            assert f < limit * (1 + tol)
            assert outcome == estimate(params, k)
            assert abs(decimal.Decimal(outcome) - f) <= tol * f


_ALL_PARAMS = [
    CounterParams.morris(), CounterParams.fp(0), CounterParams.fp(4),
    CounterParams.fp(1100), CounterParams.qary(1), CounterParams.qary(16),
]
_FP_PARAMS = [p for p in _ALL_PARAMS if p.family is Family.FP]


def _increment_from(params, k):
    out = increment(CounterState(k), params, BitSource(3))
    return int(out.k), out.saturated


# every function that reads a counter state, with the params it accepts
_STATE_READERS = [
    pytest.param(read, _ALL_PARAMS, id=read.__name__)
    for read in (transition_prob, estimate, estimate_float, variance_fn,
                 estimate_series, variance_series, relative_spread)
] + [
    pytest.param(_increment_from, _ALL_PARAMS, id="increment"),
    pytest.param(lambda p, k: decompose(CounterState(k), p), _FP_PARAMS, id="decompose"),
    pytest.param(lambda p, k: storage_bits(CounterState(k)), _ALL_PARAMS[:1], id="storage_bits"),
]


@pytest.mark.parametrize(("read", "accepts"), _STATE_READERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_state_reader_keeps_the_one_rule(read, accepts, data):
    # a state is read by chain._integer(k, "state", 0): a negative int or
    # a float is refused with its message, and a numpy int reads as its int
    params = data.draw(st.sampled_from(accepts))
    bad = data.draw(st.one_of(st.integers(-(2**70), -1), st.floats()))
    with pytest.raises(ValueError) as exc:
        read(params, bad)
    assert type(exc.value) is ValueError
    if isinstance(bad, int):
        assert str(exc.value) == f"state {bad} is outside 0..inf"
    else:
        assert str(exc.value) == f"state {bad!r} is not an integer"
    k = data.draw(st.integers(0, 300))
    if read is relative_spread and not k:
        for state in (k, np.uint64(k)):
            with pytest.raises(ValueError, match="^relative_spread is undefined at state 0$"):
                read(params, state)
        return
    want = read(params, k)
    got = read(params, np.uint64(k))
    assert (type(got), got) == (type(want), want)


@pytest.mark.parametrize(
    "source",
    [lambda: ScriptedBitSource(""), lambda: ScriptedBitSource("0" * 8), lambda: BitSource(1)],
    ids=["empty-script", "zeros-script", "bitsource"],
)
@pytest.mark.parametrize(
    "params",
    [CounterParams.morris(), CounterParams.fp(2), CounterParams.qary(4)],
    ids=lambda p: str(p.family),
)
def test_increment_refuses_a_negative_state_on_every_source(params, source):
    # the int fast path tests the sign as well as the class: without it,
    # fp(2) steps -1 to 0 on an empty script, morris -3 to -2, and a
    # BitSource fails on a negative shift count
    for k in (-1, -3):
        src = source()
        with pytest.raises(ValueError, match=f"^state {k} is outside 0..inf$"):
            increment(CounterState(k), params, src)
        assert src.stream_position == 0
