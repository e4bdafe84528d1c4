"""Dense bit-packed arrays of floating-point counters.

Many small counters packed back to back: slot i occupies bits
[i*width, (i+1)*width) of the payload, values stored least significant
bit first, and bit b of the payload lives in byte b >> 3 at in-byte
position b & 7.  Slots freely straddle byte boundaries; width 8 with a
4-bit significand is enough to count past 5 * 10**5 per slot at one
byte per counter.  A width-8 table holds slot i in byte i and indexes
it directly, with the same snapshot bytes as the general layout, and
reads a slot as one index into the 256 estimates of its d, computed
once per process and shared by every width-8 table of that d.

A slot whose value reaches 2**width - 1 is saturated: it is counted
once in ``saturation_count``, further increments leave it unchanged,
and its estimate is flagged as a lower bound.

Snapshot format (version 1, all fields little-endian)::

    offset 0   magic        4 bytes  b"FPCT"
    offset 4   version      u16      1
    offset 6   d            u8
    offset 7   width        u8
    offset 8   num_slots    u64
    offset 16  saturation_count  u64
    offset 24  payload      ceil(num_slots * width / 8) bytes

The layout is byte-exact: snapshots written on any platform load on any
other.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from typing import NamedTuple

from .chain import CounterParams, _integer, estimate_float
from .randbits import BitStream

_HEADER = struct.Struct("<4sHBBQQ")
_MAGIC = b"FPCT"
_VERSION = 1

__all__ = ["CounterTable", "SlotEstimate"]


class SlotEstimate(NamedTuple):
    value: float
    lower_bound: bool  # True when the slot is saturated


@functools.lru_cache(maxsize=4096)
def _slot_estimate(d: int, width: int, k: int) -> SlotEstimate:
    # shared by every table, so reloading a snapshot keeps the cache warm
    return SlotEstimate(estimate_float(CounterParams.fp(d), k), k == (1 << width) - 1)


@functools.cache
def _byte_reads(d: int) -> tuple[SlotEstimate, ...]:
    # every read of a width-8 slot, indexed by the slot's byte
    return tuple(_slot_estimate(d, 8, k) for k in range(256))


class CounterTable:
    """num_slots packed fp(d) counters, width bits per slot."""

    def __init__(self, num_slots: int, d: int, width: int):
        # widths from d + 1, which leaves one exponent bit, to 32
        self.params = CounterParams.fp(d)
        self.d = d = self.params.d
        self.num_slots = num_slots = _integer(num_slots, "num_slots", 1)
        self.width = width = _integer(width, "width", d + 1, 32)
        payload_bytes = (num_slots * width + 7) >> 3
        if payload_bytes > sys.maxsize:
            raise ValueError(
                f"{num_slots} slots x {width} bits exceed the largest possible payload"
            )
        self.saturation_count = 0
        self._max_value = (1 << width) - 1
        self._byte_slots = width == 8
        self._reads = _byte_reads(d) if self._byte_slots else None
        self._data = bytearray(payload_bytes)

    @property
    def payload_bytes(self) -> int:
        return len(self._data)

    def _out_of_range(self, index: int) -> IndexError:
        return IndexError(f"slot {index} out of range (0..{self.num_slots - 1})")

    def get_state(self, index: int) -> int:
        if index.__class__ is not int:
            index = _integer(index, "slot index", -math.inf)
        if not 0 <= index < self.num_slots:
            raise self._out_of_range(index)
        if self._byte_slots:
            return self._data[index]
        bitpos = index * self.width
        start = bitpos >> 3
        end = (bitpos + self.width + 7) >> 3
        word = int.from_bytes(self._data[start:end], "little")
        return (word >> (bitpos & 7)) & self._max_value

    def increment(self, index: int, src: BitStream) -> int:
        """One counted event for slot `index`; returns the new state.

        Saturated slots are left unchanged (no bits consumed, no error).
        """
        # one pass over the slot: the bytes are read once and, on an
        # advance, written back once with 1 added at the slot's offset
        # (no carry leaves the slot, since k < 2**width - 1)
        if index.__class__ is not int:
            index = _integer(index, "slot index", -math.inf)
        if not 0 <= index < self.num_slots:
            raise self._out_of_range(index)
        data = self._data
        top = self._max_value
        byte_slots = self._byte_slots
        if byte_slots:
            k = data[index]
        else:
            bitpos = index * self.width
            start = bitpos >> 3
            end = (bitpos + self.width + 7) >> 3
            shift = bitpos & 7
            word = int.from_bytes(data[start:end], "little")
            k = (word >> shift) & top
        if k == top:
            return k
        t = k >> self.d
        if t and not src.bernoulli_pow2(t):
            return k
        if byte_slots:
            data[index] = k + 1
        else:
            data[start:end] = (word + (1 << shift)).to_bytes(end - start, "little")
        k += 1
        if k == top:
            self.saturation_count += 1
        return k

    def estimate(self, index: int) -> SlotEstimate:
        """Unbiased count estimate for the slot; a lower bound once saturated."""
        reads = self._reads
        if reads is None:
            return _slot_estimate(self.d, self.width, self.get_state(index))
        # an int index pays for no test: only what indexing refuses goes to the rule
        try:
            if 0 <= index < self.num_slots:
                return reads[self._data[index]]
        except TypeError:
            return self.estimate(_integer(index, "slot index", -math.inf))
        raise self._out_of_range(index)

    # -- snapshots ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            _MAGIC, _VERSION, self.d, self.width, self.num_slots, self.saturation_count
        )
        return header + bytes(self._data)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CounterTable":
        if len(blob) < _HEADER.size:
            raise ValueError("snapshot too short for its header")
        magic, version, d, width, num_slots, saturation_count = _HEADER.unpack_from(
            blob
        )
        if magic != _MAGIC:
            raise ValueError(f"bad snapshot magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        # both checks precede construction, so a crafted header cannot
        # request an allocation its payload does not back
        payload = blob[_HEADER.size :]
        if len(payload) != (num_slots * width + 7) >> 3:
            raise ValueError(
                f"payload length {len(payload)} does not match "
                f"{num_slots} slots of {width} bits"
            )
        if saturation_count > num_slots:
            raise ValueError(
                f"saturation count {saturation_count} exceeds {num_slots} slots"
            )
        table = cls(num_slots, d, width)
        table._data[:] = payload
        table.saturation_count = saturation_count
        return table

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "CounterTable":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())
