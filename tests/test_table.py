"""Bit-packed counter tables: packing round-trips, neighbor isolation,
saturation accounting, and the versioned snapshot format."""

import random
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcount import (
    CounterParams,
    CounterTable,
    SlotEstimate,
    estimate_float,
    increment,
    new_counter,
)
from fpcount.chain import CounterRangeError
from fpcount.randbits import BitSource, ScriptedBitSource
from fpcount.table import _byte_reads, _saturated

WIDTHS = [5, 6, 8, 12, 16]


def test_starts_zeroed():
    table = CounterTable(num_slots=10, d=2, width=6)
    assert [table.get_state(i) for i in range(10)] == [0] * 10
    assert table.saturation_count == 0


def test_constructor_validation():
    # integers are read by the library's one rule, which names the input
    for args, message in [
        ((0, 2, 8), r"num_slots 0 is outside 1\.\.inf"),
        ((4.0, 2, 8), "num_slots 4.0 is not an integer"),
        ((4, -1, 8), r"d -1 is outside 0\.\.inf"),
        ((4, 4, 4), r"width 4 is outside 5\.\.32"),  # width must leave an exponent bit
        ((4, 2, 33), r"width 33 is outside 3\.\.32"),
        ((4, 4, 8.0), "width 8.0 is not an integer"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            CounterTable(*args)
    # a payload past sys.maxsize bytes is refused before any allocation
    with pytest.raises(ValueError, match=f"^{2**63} slots x 8 bits exceed"):
        CounterTable(2**63, 2, 8)


def test_numpy_inputs_do_not_poison_the_shared_reads():
    # the reads of d are cached under a key that a numpy d equals, so a
    # table built from one must read, and leave cached, the int d's values
    _byte_reads.cache_clear()
    table = CounterTable(np.int64(4), np.int64(0), np.int64(8))
    assert [type(v) for v in (table.num_slots, table.d, table.width)] == [int] * 3
    assert table.to_bytes() == CounterTable(4, 0, 8).to_bytes()
    reloaded = CounterTable.from_bytes(_snapshot(0, 8, [70, 0, 0, 0]))
    assert reloaded.estimate(0) == SlotEstimate(2.0**70 - 1, False)


def test_payload_is_tightly_packed():
    table = CounterTable(num_slots=13, d=4, width=5)
    assert table.payload_bytes == (13 * 5 + 7) // 8  # 9 bytes, slots straddle


@pytest.mark.parametrize("width", [5, 8])
def test_index_bounds(width):
    # a bytearray would wrap -1 to the last byte: the range check must hold
    # on byte slots as on packed ones
    table = CounterTable(3, 0, width)
    src = BitSource(0)
    for index in (-1, 3):
        with pytest.raises(IndexError):
            table.get_state(index)
        with pytest.raises(IndexError):
            table.increment(index, src)
    assert table.to_bytes() == CounterTable(3, 0, width).to_bytes()
    assert src.stream_position == 0


@pytest.mark.parametrize("width", [6, 8, 12])
@pytest.mark.parametrize("entry", ["get_state", "increment", "estimate"])
def test_slot_index_is_read_by_the_integer_rule(width, entry):
    # a numpy int reads as its Python int on every width; a float or a
    # string is refused with the rule's message, and a value outside the
    # slots with the range check's IndexError
    def call(table, index, src):
        if entry == "increment":
            return table.increment(index, src)
        return getattr(table, entry)(index)

    table, twin = CounterTable(4, 2, width), CounterTable(4, 2, width)
    src, twin_src = BitSource(3), BitSource(3)
    for index in (np.int64(1), np.uint8(1)):
        got, want = call(table, index, src), call(twin, 1, twin_src)
        assert got == want and type(got) is type(want)
        if entry == "estimate":
            assert type(got.lower_bound) is bool
    assert table.to_bytes() == twin.to_bytes()
    assert src.stream_position == twin_src.stream_position
    for bad in (2.5, "1"):
        with pytest.raises(ValueError, match=f"^slot index {bad!r} is not an integer$"):
            call(table, bad, src)
    for index in (-1, 4, np.int64(-1), np.uint8(4)):
        with pytest.raises(IndexError, match=rf"^slot {index} out of range \(0\.\.3\)$"):
            call(table, index, src)
    assert table.to_bytes() == twin.to_bytes()


@pytest.mark.parametrize("width", WIDTHS)
def test_random_writes_round_trip(width, with_slot):
    """Packed slots behave exactly like a list of ints (model test)."""
    slots = 77  # odd count so slots cross byte and word boundaries
    table = CounterTable(slots, 4, width)
    model = [0] * slots
    rng = random.Random(width)
    src = BitSource(width)
    top = (1 << width) - 1
    for _ in range(600):
        i = rng.randrange(slots)
        value = rng.randrange(1 << width)
        before = list(model)
        table = with_slot(table, i, value)
        model[i] = value
        assert table.get_state(i) == value
        # the table's own write: an increment moves slot i by at most one
        model[i] = table.increment(i, src)
        assert model[i] in (value, min(value + 1, top))
        assert table.get_state(i) == model[i]
        # neighbors keep their exact values through both writes
        if i > 0:
            assert table.get_state(i - 1) == before[i - 1]
        if i + 1 < slots:
            assert table.get_state(i + 1) == before[i + 1]
    assert [table.get_state(i) for i in range(slots)] == model


def test_increment_deterministic_prefix():
    table = CounterTable(2, 4, 8)
    src = ScriptedBitSource("")
    for _ in range(16):
        table.increment(0, src)
    assert table.get_state(0) == 16
    assert table.get_state(1) == 0
    assert src.stream_position == 0


@pytest.mark.parametrize(
    "d, width",
    [(d, w) for d in (2, 7) for w in sorted({*WIDTHS, d + 1}) if w > d],
)
def test_every_width_follows_the_scalar_counter(d, width):
    # one index stream drives a table and a list of scalar counters, each on
    # its own source of one seed; width d + 1 saturates a slot within a few
    # dozen events, and width 8 takes the table's byte path
    params, top, slots = CounterParams.fp(d), (1 << width) - 1, 5
    table, states = CounterTable(slots, d, width), [new_counter()] * slots
    a, b = BitSource(width), BitSource(width)
    rng = random.Random(width * 10 + d)
    for _ in range(4000):
        i = rng.randrange(slots)
        states[i] = increment(states[i], params, b, top)
        assert table.increment(i, a) == states[i].k
    assert [table.get_state(i) for i in range(slots)] == [s.k for s in states]
    assert table.saturation_count == sum(s.saturated for s in states)
    assert a.stream_position == b.stream_position
    if width == d + 1:
        assert table.saturation_count == slots


def test_increment_matches_bernoulli_semantics(with_slot):
    table = with_slot(CounterTable(1, 0, 8), 0, 3)
    assert table.increment(0, ScriptedBitSource("000")) == 4
    table = with_slot(table, 0, 3)
    assert table.increment(0, ScriptedBitSource("001")) == 3


def test_saturation_counted_once_then_noop():
    table = CounterTable(1, 0, 2)  # ceiling at state 3
    src = ScriptedBitSource("000")
    table.increment(0, src)  # 0 -> 1, deterministic
    table.increment(0, src)  # 1 -> 2, consumes "0"
    table.increment(0, src)  # 2 -> 3, consumes "00", saturates
    assert table.get_state(0) == 3
    assert table.saturation_count == 1
    before = src.stream_position
    assert table.increment(0, src) == 3  # no-op, no bits
    assert table.saturation_count == 1
    assert src.stream_position == before


def test_estimate_flags_saturated_slots(with_slot):
    table = with_slot(CounterTable(2, 2, 4), 0, 9)
    est = table.estimate(0)
    assert est.value == estimate_float(CounterParams.fp(2), 9)
    assert not est.lower_bound
    table = with_slot(table, 1, 15)
    assert table.estimate(1).lower_bound


def _snapshot(d: int, width: int, states: list[int]) -> bytes:
    # the documented layout: header, then slot i at bits [i*width, (i+1)*width)
    size = (len(states) * width + 7) >> 3
    payload = sum(k << (i * width) for i, k in enumerate(states))
    saturated = states.count((1 << width) - 1)
    header = struct.pack("<4sHBBQQ", b"FPCT", 1, d, width, len(states), saturated)
    return header + payload.to_bytes(size, "little")


def _read(thunk):
    try:
        return thunk()
    except (CounterRangeError, IndexError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("d", range(8))
def test_byte_slots_read_every_state(d):
    # slot k holds state k, so the reads cover all 256 byte values
    table = CounterTable.from_bytes(_snapshot(d, 8, list(range(256))))
    want = [
        SlotEstimate(estimate_float(CounterParams.fp(d), k), k == 255)
        for k in range(256)
    ]
    assert [table.estimate(k) for k in range(256)] == want
    clone = CounterTable.from_bytes(table.to_bytes())
    assert [clone.estimate(k) for k in range(256)] == want
    for index in (-1, 256):
        got = _read(lambda: table.estimate(index))
        assert got == _read(lambda: table.get_state(index))
        assert got == (IndexError, f"slot {index} out of range (0..255)")


@pytest.mark.parametrize("width", [12, 16])
@pytest.mark.parametrize("d", [0, 1, 4, 11])
def test_wide_slots_read_like_slot_estimate(width, d):
    top = (1 << width) - 1
    rng = random.Random(width * 100 + d)
    states = [0, 1, top - 1, top] + [rng.randrange(top + 1) for _ in range(60)]
    table = CounterTable.from_bytes(_snapshot(d, width, states))
    params = CounterParams.fp(d)
    want = [_read(lambda: SlotEstimate(estimate_float(params, k), k == top)) for k in states]
    assert [_read(lambda: table.estimate(i)) for i in range(len(states))] == want
    clone = CounterTable.from_bytes(table.to_bytes())
    assert [_read(lambda: clone.estimate(i)) for i in range(len(states))] == want


def test_counts_past_half_a_million_in_one_byte():
    params = CounterParams.fp(4)
    assert estimate_float(params, 255) > 5 * 10**5


class TestSnapshots:
    def test_round_trip(self, with_slot):
        table = CounterTable(29, 3, 7)
        src = BitSource(5)
        for i in range(29):
            for _ in range(i * 3):
                table.increment(i, src)
        for i in (0, 5, 17, 28):
            table = with_slot(table, i, 127)  # exercise the header field
        clone = CounterTable.from_bytes(table.to_bytes())
        assert clone.num_slots == 29 and clone.d == 3 and clone.width == 7
        assert clone.saturation_count == 4
        assert [clone.get_state(i) for i in range(29)] == [
            table.get_state(i) for i in range(29)
        ]

    def test_counts_saturated_slots_past_one_pass(self):
        # 2**16 + 10 slots of width 12, two in three bytes; slots 101 and
        # 2**16 + 6 are saturated, either side of the first 2**16 slots
        def pair(a, b):
            return (a | b << 12).to_bytes(3, "little")

        pairs = [pair(4094, 4094)] * (2**15 + 5)
        pairs[50], pairs[2**15 + 3] = pair(4094, 4095), pair(4095, 4094)
        blob = bytearray(struct.pack("<4sHBBQQ", b"FPCT", 1, 4, 12, 2**16 + 10, 2))
        blob += b"".join(pairs)
        table = CounterTable.from_bytes(bytes(blob))
        assert table.saturation_count == 2
        assert table.get_state(101) == table.get_state(2**16 + 6) == 4095
        blob[16:24] = (1).to_bytes(8, "little")
        with pytest.raises(ValueError, match="does not match the payload's 2 saturated"):
            CounterTable.from_bytes(bytes(blob))

    @settings(max_examples=120, deadline=None)
    @given(
        width=st.integers(1, 32),
        num_slots=st.one_of(
            st.integers(1, 200), st.integers(2**16 - 2, 2**16 + 2), st.just(2**17 + 1)
        ),
        seed=st.integers(0, 2**32 - 1),
        density=st.integers(1, 5),
        data=st.data(),
    )
    def test_saturated_counts_as_unpacked_bits(self, width, num_slots, seed, density, data):
        # the count of all-ones slots, against one uint8 per payload bit:
        # random bytes ORed `density` times, so 1s are common, some slots
        # forced to all 1s, and the padding past the last slot random too
        rng = np.random.default_rng(seed)
        size = (num_slots * width + 7) >> 3
        payload = np.zeros(size, dtype=np.uint8)
        for _ in range(density):
            payload |= rng.integers(0, 256, size, dtype=np.uint8)
        bits = np.unpackbits(payload, bitorder="little")
        for i in data.draw(st.lists(st.integers(0, num_slots - 1), max_size=5)):
            bits[i * width : (i + 1) * width] = 1
        payload = np.packbits(bits, bitorder="little").tobytes()
        ones = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
        want = np.count_nonzero(ones[: num_slots * width].reshape(num_slots, width).all(axis=1))
        assert _saturated(payload, num_slots, width) == want

    @pytest.mark.parametrize("width, copies", [(8, 2), (12, 1)])
    def test_snapshots_copy_the_payload_once(self, width, copies):
        # to_bytes allocates its snapshot alone; from_bytes the table, plus
        # the width-8 saturation mask or else one chunk's ints at a time
        table = CounterTable(1 << 22, 4, width)
        size = table.payload_bytes
        table._data[:] = np.random.default_rng(1).integers(0, 255, size, dtype=np.uint8).data
        table.saturation_count = _saturated(bytes(table._data), table.num_slots, width)
        tracemalloc.start()
        try:
            blob = table.to_bytes()
            _, to_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            clone = CounterTable.from_bytes(blob)
            _, from_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(blob) is bytes and clone.to_bytes() == blob
        assert to_peak < size + 2**10
        assert from_peak - held < copies * size + 2**20

    def test_save_load(self, tmp_path, with_slot):
        table = with_slot(CounterTable(5, 1, 6), 2, 33)
        path = tmp_path / "slots.fpct"
        table.save(path)
        loaded = CounterTable.load(path)
        assert loaded.get_state(2) == 33
        assert loaded.to_bytes() == table.to_bytes()

    def test_rejects_bad_magic(self):
        blob = bytearray(CounterTable(4, 2, 8).to_bytes())
        blob[:4] = b"NOPE"
        with pytest.raises(ValueError):
            CounterTable.from_bytes(bytes(blob))

    def test_rejects_bad_version(self):
        blob = bytearray(CounterTable(4, 2, 8).to_bytes())
        blob[4] = 99
        with pytest.raises(ValueError):
            CounterTable.from_bytes(bytes(blob))

    def test_rejects_truncation(self):
        blob = CounterTable(4, 2, 8).to_bytes()
        with pytest.raises(ValueError):
            CounterTable.from_bytes(blob[:-1])
        with pytest.raises(ValueError):
            CounterTable.from_bytes(blob[:10])

    def test_rejects_header_larger_than_payload(self):
        # a 24-byte blob asking for 2**63 slots fails on its length
        # before any payload is allocated
        header = struct.pack("<4sHBBQQ", b"FPCT", 1, 4, 8, 2**63, 0)
        with pytest.raises(ValueError, match="payload length"):
            CounterTable.from_bytes(header)

    def test_rejects_saturation_count_above_slots(self):
        blob = bytearray(CounterTable(4, 2, 8).to_bytes())
        blob[16:24] = (5).to_bytes(8, "little")
        with pytest.raises(ValueError, match="saturation count"):
            CounterTable.from_bytes(bytes(blob))
        blob[16:24] = (4).to_bytes(8, "little")
        blob[24:] = b"\xff" * 4
        assert CounterTable.from_bytes(bytes(blob)).saturation_count == 4

    @pytest.mark.parametrize("width", [6, 8, 12])
    def test_rejects_saturation_count_unlike_payload(self, width):
        # slots 0 and 70 of 75 saturated, the others one below the top:
        # only a count of 2 agrees with the payload
        top = (1 << width) - 1
        states = [top] + [top - 1] * 69 + [top] + [top - 1] * 4
        blob = bytearray(_snapshot(4, width, states))
        assert CounterTable.from_bytes(bytes(blob)).saturation_count == 2
        for count in (0, 1, 3, 75):
            blob[16:24] = count.to_bytes(8, "little")
            with pytest.raises(ValueError) as exc:
                CounterTable.from_bytes(bytes(blob))
            assert str(exc.value) == (
                f"saturation count {count} does not match the payload's 2 saturated slots"
            )
