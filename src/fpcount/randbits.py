"""Seedable random-bit streams with exact consumed-bit accounting.

The canonical stream for a 64-bit seed is defined by the splitmix64
output function: block j (j = 0, 1, ...) of the stream is

    mix64((seed + (j + 1) * 0x9E3779B97F4A7C15) mod 2**64)

and bits are delivered most-significant-bit first within each block.
The construction is counter-based -- any block is computable directly
from (seed, j) -- which is what lets the vectorized ensemble engine
reproduce these exact streams in bulk.

Every consumer counts consumed bits exactly (``stream_position``), so
identical call sequences from identical seeds replay bit-for-bit and
bit budgets can be audited.

:class:`BitSource` reads whole spans of its buffered block at once:
``take_bits`` and the ``bernoulli_pow2`` scan each take a span with one
shift and mask instead of one ``next_bit`` call per bit.  The scan still
stops at the first 1, so it consumes exactly the bits the bit-by-bit
loop of :class:`BitStream` would.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_U53 = 2.0**-53

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
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_block(seed: int, index: int) -> int:
    """64-bit block `index` of the canonical stream for `seed`."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


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
    """Deterministic bit stream over the canonical splitmix64 blocks."""

    __slots__ = ("seed", "stream_position", "_block_index", "_buffer", "_avail")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.stream_position = 0
        self._block_index = 0
        self._buffer = 0
        self._avail = 0

    def next_bit(self) -> int:
        avail = self._avail
        if not avail:
            self._buffer = stream_block(self.seed, self._block_index)
            self._block_index += 1
            avail = 64
        avail -= 1
        self._avail = avail
        self.stream_position += 1
        return (self._buffer >> avail) & 1

    def take_bits(self, count: int) -> int:
        # bulk variant of next_bit: grabs whole spans out of the current
        # block instead of looping bit by bit
        out = 0
        need = count
        avail = self._avail
        buf = self._buffer
        while need:
            if not avail:
                buf = stream_block(self.seed, self._block_index)
                self._block_index += 1
                avail = 64
            grab = need if need < avail else avail
            avail -= grab
            out = (out << grab) | ((buf >> avail) & ((1 << grab) - 1))
            need -= grab
        self._buffer = buf
        self._avail = avail
        self.stream_position += count
        return out

    def bernoulli_pow2(self, t: int) -> bool:
        # word-level scan: each span is tested with one shift and mask,
        # and a nonzero span is consumed through its first 1
        need = t
        avail = self._avail
        buf = self._buffer
        while need:
            if not avail:
                buf = stream_block(self.seed, self._block_index)
                self._block_index += 1
                avail = 64
            grab = need if need < avail else avail
            avail -= grab
            chunk = (buf >> avail) & ((1 << grab) - 1)
            if chunk:
                # the first 1 sits chunk.bit_length() bits from the span's end
                self._buffer = buf
                self._avail = avail + chunk.bit_length() - 1
                self.stream_position += t - need + grab - chunk.bit_length() + 1
                return False
            need -= grab
        self._buffer = buf
        self._avail = avail
        self.stream_position += t
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
