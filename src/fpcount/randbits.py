"""Seedable random-bit streams with exact consumed-bit accounting.

The canonical stream for a 64-bit seed is defined by the splitmix64
output function: block j (j = 0, 1, ...) of the stream is

    mix64((seed + (j + 1) * 0x9E3779B97F4A7C15) mod 2**64)

and bits are delivered most-significant-bit first within each block, so
stream bit ``pos`` is bit ``63 - (pos & 63)`` of block ``pos >> 6``.
This module alone computes blocks, and alone decides how many bits a
scan or a uniform draw consumes, in both forms: :class:`BitSource` reads
one seed's stream in order, and :func:`stream_scan` and
:func:`stream_uniform53` (over :func:`stream_window64`) read many seeds
at once, at any positions, with vectorized uint64 arithmetic for the
ensemble engine.  Blocks are computed from (seed, j) directly, so a
reader's state is its position.

Every consumer counts consumed bits exactly (``stream_position``), so
identical call sequences from identical seeds replay bit-for-bit and
bit budgets can be audited.

:class:`BitSource` reads whole spans of its buffered block at once:
``take_bits`` and the ``bernoulli_pow2`` scan each take a span with one
shift and mask instead of one ``next_bit`` call per bit, and a nonzero
scan span is consumed through its first 1, so the scan consumes exactly
the bits the bit-by-bit loop of :class:`BitStream` would.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0**-53
MAX_SCAN = 52  # the longest scan stream_scan computes exactly

# uint64 images for the vectorized reader, made once so that no array
# operation has to convert a Python int
_V_GOLDEN, _V_MIX1, _V_MIX2 = map(np.uint64, (_GOLDEN, _MIX1, _MIX2))
_V1, _V6, _V11, _V27, _V30, _V31, _V63 = map(np.uint64, (1, 6, 11, 27, 30, 31, 63))

__all__ = [
    "BitSource",
    "BitStream",
    "ScriptedBitSource",
    "child_seed",
    "mix64",
    "stream_block",
]


def mix64(value: int) -> int:
    """splitmix64 finalizer: a fixed 64-bit avalanche permutation."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    # mix64 op for op on uint64 arrays, which wrap mod 2**64 themselves
    z = (z ^ (z >> _V30)) * _V_MIX1
    z = (z ^ (z >> _V27)) * _V_MIX2
    return z ^ (z >> _V31)


def stream_block(seed: int, index: int) -> int:
    """64-bit block `index` of the canonical stream for `seed`."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def stream_window64(seeds: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Stream bits pos .. pos + 63 of each seed as one uint64, first bit highest."""
    off = pos & _V63
    counter = seeds + ((pos >> _V6) + _V1) * _V_GOLDEN  # block pos >> 6
    hi = _mix64_vec(counter)
    lo = _mix64_vec(counter + _V_GOLDEN)
    # (lo >> 1) >> (63 - off) == lo >> (64 - off), and is 0 at off == 0
    # without an undefined shift by 64
    return (hi << off) | ((lo >> _V1) >> (_V63 - off))


def stream_uniform53(seeds: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The ``next_uniform53`` draw at bit `pos` of each seed's stream."""
    return (stream_window64(seeds, pos) >> _V11).astype(np.float64) * _U53


def stream_scan(
    seeds: np.ndarray, pos: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``bernoulli_pow2(t)`` scan at bit `pos` of each seed's stream.

    Returns (advanced, used): whether the t bits from `pos` are all 0, and
    the bits the scan consumes, through the first 1 or all t.  One form
    covers every uint64 t up to MAX_SCAN, t = 0 included: the t bits are
    ``win = (window >> 1) >> (63 - t)``, and ``used = min(t, t + 1 -
    bit_length(win))``, with the bit length read off the exponent of
    win's float image, which is exact below 2**53.
    """
    win = (stream_window64(seeds, pos) >> _V1) >> (_V63 - t)
    bit_length = np.frexp(win.astype(np.float64))[1].astype(np.uint64)
    return win == 0, np.minimum(t, t + _V1 - bit_length)


def child_seed(seed: int, index: int) -> int:
    """Derived seed for replicate `index` of an ensemble run.

    Defined as mix64(stream_block(seed, index)); the second mixing round
    keeps child streams distinct from the parent's own bit blocks.  The
    mapping is fixed: ensemble reports depend on it byte-for-byte.
    """
    if index < 0:
        raise ValueError("replicate index must be nonnegative")
    return mix64(stream_block(seed, index))


class BitStream:
    """A source of unbiased random bits with exact accounting.

    Subclasses provide :meth:`next_bit`; the derived samplers here are
    shared so that scripted test streams exercise the very same
    consumption logic as the production source.
    """

    stream_position: int

    def next_bit(self) -> int:
        raise NotImplementedError

    def take_bits(self, count: int) -> int:
        """Consume `count` bits and pack them into an int, first bit highest."""
        out = 0
        for _ in range(count):
            out = (out << 1) | self.next_bit()
        return out

    def next_uniform53(self) -> float:
        """Uniform dyadic rational in [0, 1) with 53 fractional bits."""
        return self.take_bits(53) * _U53

    def bernoulli_pow2(self, t: int) -> bool:
        """True with probability exactly 2**-t.

        Scans at most t bits, stopping at the first 1; succeeds iff all
        t bits are 0.  Consumes no bits when t = 0 (certain success),
        otherwise between 1 and t bits.
        """
        for _ in range(t):
            if self.next_bit():
                return False
        return True


class BitSource(BitStream):
    """Deterministic bit stream over the canonical splitmix64 blocks.

    ``stream_position`` is the whole state: the bits left in the buffered
    block are ``-stream_position & 63``, and when none are left the next
    read loads block ``stream_position >> 6``.
    """

    __slots__ = ("seed", "stream_position", "_buffer")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.stream_position = 0
        self._buffer = 0

    def next_bit(self) -> int:
        return self.take_bits(1)

    def take_bits(self, count: int) -> int:
        out = 0
        pos = self.stream_position
        buf = self._buffer
        while count:
            avail = -pos & 63
            if not avail:
                buf = stream_block(self.seed, pos >> 6)
                avail = 64
            grab = count if count < avail else avail
            out = (out << grab) | ((buf >> (avail - grab)) & ((1 << grab) - 1))
            pos += grab
            count -= grab
        self._buffer = buf
        self.stream_position = pos
        return out

    def bernoulli_pow2(self, t: int) -> bool:
        pos = self.stream_position
        buf = self._buffer
        while t:
            avail = -pos & 63
            if not avail:
                buf = stream_block(self.seed, pos >> 6)
                avail = 64
            grab = t if t < avail else avail
            chunk = (buf >> (avail - grab)) & ((1 << grab) - 1)
            pos += grab
            if chunk:
                # the first 1 sits chunk.bit_length() bits from the span's end
                self._buffer = buf
                self.stream_position = pos - chunk.bit_length() + 1
                return False
            t -= grab
        self._buffer = buf
        self.stream_position = pos
        return True


class ScriptedBitSource(BitStream):
    """Replays a fixed bit script; for exhaustive-path tests.

    Accepts a string like ``"0010"`` or any iterable of 0/1 ints and
    raises RuntimeError if a consumer asks for more bits than scripted.
    """

    def __init__(self, bits):
        script = [int(b) for b in bits]
        if any(b not in (0, 1) for b in script):
            raise ValueError("script must consist of 0s and 1s")
        self._script = script
        self._next = 0
        self.stream_position = 0

    def next_bit(self) -> int:
        if self._next >= len(self._script):
            raise RuntimeError("scripted bit source exhausted")
        bit = self._script[self._next]
        self._next += 1
        self.stream_position += 1
        return bit

    @property
    def remaining(self) -> int:
        return len(self._script) - self._next
