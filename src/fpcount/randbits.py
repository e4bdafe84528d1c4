"""Seedable random-bit streams with exact consumed-bit accounting.

The canonical stream for a 64-bit seed is defined by the splitmix64
output function: block j (j = 0, 1, ...) of the stream is

    mix64((seed + (j + 1) * 0x9E3779B97F4A7C15) mod 2**64)

and bits are delivered most-significant-bit first within each block, so
stream bit ``pos`` is bit ``63 - (pos & 63)`` of block ``pos >> 6``.
This module alone computes blocks, and alone decides how many bits a
scan or a uniform draw consumes, in every form: :class:`BitSource` reads
one seed's stream in order, :func:`stream_window64` reads many seeds at
once, at any positions, with vectorized uint64 arithmetic,
:func:`stream_uniforms53` reads runs of uniform draws for many seeds
from one position, mixing each block once, and the skip runs whole
stretches of ``bernoulli_pow2`` scans at once, in vector form
(:func:`stream_skip`, one 64-bit window per seed) and in scalar form
(:meth:`BitSource.skip`).  Blocks are computed from (seed, j) directly,
so a reader's state is its position.

Every consumer counts consumed bits exactly (``stream_position``), so
identical call sequences from identical seeds replay bit-for-bit and
bit budgets can be audited.

:class:`BitSource` buffers a span of whole blocks as one int, and its
readers take runs of it at once: ``take_bits`` and the ``bernoulli_pow2``
scan each take a run with one shift and mask instead of one ``next_bit``
call per bit, a nonzero scan run is consumed through its first 1, and
``skip`` runs many scans over the span, so each consumes exactly the bits
the bit-by-bit loops of :class:`BitStream` would.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
UNIFORM_BITS = 53  # the bits a uniform draw consumes
_U53 = 2.0**-UNIFORM_BITS
MAX_SCAN = 64  # the longest scan one 64-bit window holds
_SPAN_BLOCKS = 1 << 16  # the most blocks a BitSource.skip span holds

# uint64 images for the vectorized reader, made once so that no array
# operation has to convert a Python int
_V_GOLDEN, _V_MIX1, _V_MIX2 = map(np.uint64, (_GOLDEN, _MIX1, _MIX2))
_V1, _V2, _V4, _V6, _V11, _V27, _V30, _V31, _V56, _V63, _V64, _V65 = map(
    np.uint64, (1, 2, 4, 6, 11, 27, 30, 31, 56, 63, 64, 65)
)
# SWAR masks: 0x55.., 0x33.., 0x0F.. and 0x0101..01
_V_M1, _V_M2, _V_M4, _V_H01 = (
    np.uint64(0x0101010101010101 * b) for b in (0x55, 0x33, 0x0F, 1)
)

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


def stream_uniforms53(seeds: np.ndarray, pos: int, count: int) -> np.ndarray:
    """`count` successive ``next_uniform53`` draws from bit `pos` of each stream.

    Returns a (count, seeds.size) array: row i holds the draws at bit
    pos + 53 * i.  Requires count >= 1.  Each block the draws touch is
    mixed once, and draw i is bits off .. off + 52 of the block pair it
    starts in.  A zero row stands past the last block; only a draw that
    ends inside its first block reads it, and those bits fall below the
    draw.
    """
    start = pos + UNIFORM_BITS * np.arange(count, dtype=np.int64)
    first = pos >> 6
    last = (int(start[-1]) + UNIFORM_BITS - 1) >> 6
    j = np.arange(first + 1, last + 2, dtype=np.uint64)  # blocks first .. last
    blocks = np.zeros((j.size + 1, seeds.size), dtype=np.uint64)
    blocks[:-1] = _mix64_vec(seeds + j[:, None] * _V_GOLDEN)
    row = (start >> 6) - first
    off = (start & 63).astype(np.uint64)[:, None]
    lo = blocks[row + 1]
    lo >>= _V1  # (lo >> 1) >> (63 - off) == lo >> (64 - off), as in stream_window64
    lo >>= _V63 - off
    w = blocks[row]
    w <<= off
    w |= lo
    w >>= _V11
    out = w.astype(np.float64)
    out *= _U53
    return out


def _popcount64(x: np.ndarray) -> np.ndarray:
    # SWAR: 2-bit, 4-bit and byte counts, then one multiply sums the bytes
    # into the top byte
    x = x - ((x >> _V1) & _V_M1)
    x = (x & _V_M2) + ((x >> _V2) & _V_M2)
    x = (x + (x >> _V4)) & _V_M4
    return (x * _V_H01) >> _V56


def _bit_length64(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each uint64.

    A float image is exact only below 2**53, and a long run of 1s can
    round it up to the next power of two.  x & ~(x >> 1) keeps the top bit
    of each run of 1s: the highest bit stays and no two kept bits are
    adjacent, so the image cannot round past the highest bit, and its
    binary exponent is the bit length.
    """
    return np.frexp((x & ~(x >> _V1)).astype(np.float64))[1].astype(np.uint64)


# row i, column t: the shift of doubling step i toward a run of t zeros;
# a run of c = 2**i grows by min(c, t - c), so six steps reach 64
_SCAN_STEPS = np.array(
    [np.clip(np.arange(MAX_SCAN + 1) - c, 0, c) for c in (1, 2, 4, 8, 16, 32)],
    dtype=np.uint64,
)


def stream_skip(
    seeds: np.ndarray, pos: np.ndarray, t: np.ndarray, limit: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Up to `limit` ``bernoulli_pow2(t)`` scans from bit `pos` of each stream.

    The scans run until the first success, the limit, or the end of the
    64-bit window at `pos`, whichever comes first, and take only whole
    scans inside the window.  Returns (advanced, scans, used): whether
    the last scan succeeded, the scans done, and the bits they consumed.
    Requires 1 <= t <= MAX_SCAN and limit >= 1.

    A failed scan is a token ``0^j 1`` with j < t and a success is ``0^t``,
    so the success starts at the first all-zero t-bit window, which is
    found by at most six shift-ANDs of the complement, and the failures
    before it are the 1s before it.  With no such window the scans run
    through the window's last 1; with `limit` failures or more they stop
    just past the limit-th 1.
    """
    top = int(t.max())
    if top > MAX_SCAN:
        raise OverflowError("scan length beyond the 64-bit window")
    w = stream_window64(seeds, pos)
    # bit 63 - s of z: stream bits s .. s + t - 1 of the window are all 0
    z = ~w
    steps = _SCAN_STEPS[:, t]
    for i in range((top - 1).bit_length()):
        z &= z << steps[i]
    length = _bit_length64(z)  # the first window starts at 64 - length
    # the 1s before it, or in the whole window if there is none
    # (two shifts, since a shift by 64 is undefined)
    half = length >> _V1
    failures = _popcount64((w >> half) >> (length - half))
    found = length != 0
    advanced = found & (failures < limit)
    scans = np.minimum(failures, limit) + advanced
    last = _V65 - _bit_length64(w & (~w + _V1))  # just past the window's last 1
    used = np.where(advanced, _V64 - length + t, last)
    # the limit-th failure comes before the success or the last 1
    for i in np.flatnonzero(failures + found > limit):
        used[i] = _after_ones(int(w[i]), 64, int(limit[i]))
    return advanced, scans, used


def _after_ones(x: int, n: int, r: int) -> int:
    """Offset just past the r-th 1 of the n-bit x, counting from its first bit.

    Requires 1 <= r <= x.bit_count(); a bisection on prefix popcounts.
    """
    lo, hi = 0, n
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if (x >> (n - mid)).bit_count() < r:
            lo = mid
        else:
            hi = mid
    return hi


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

    Subclasses provide :meth:`next_bit`; the samplers here derive from
    it bit by bit.  :class:`BitSource` overrides them with word-at-a-time
    forms, so on a scripted stream these loops are the reference that
    tests pin those forms against, not shared code.
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
        return self.take_bits(UNIFORM_BITS) * _U53

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

    The unread bits of the buffered span are the low
    ``_end - stream_position`` bits of ``_span``, a run of whole blocks
    ending at the block boundary ``_end``.  ``take_bits`` and
    ``bernoulli_pow2`` refill an empty span with block
    ``stream_position >> 6``; :meth:`skip` sizes its spans to the scan.
    """

    __slots__ = ("seed", "stream_position", "_span", "_end")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.stream_position = 0
        self._span = 0  # stream bits up to _end, first bit highest
        self._end = 0

    def next_bit(self) -> int:
        return self.take_bits(1)

    def take_bits(self, count: int) -> int:
        out = 0
        pos = self.stream_position
        span, end = self._span, self._end
        while count:
            avail = end - pos
            if not avail:
                self._span = span = stream_block(self.seed, pos >> 6)
                self._end = end = pos + 64
                avail = 64
            grab = count if count < avail else avail
            out = (out << grab) | ((span >> (avail - grab)) & ((1 << grab) - 1))
            pos += grab
            count -= grab
        self.stream_position = pos
        return out

    def bernoulli_pow2(self, t: int) -> bool:
        pos = self.stream_position
        span, end = self._span, self._end
        while t:
            avail = end - pos
            if not avail:
                self._span = span = stream_block(self.seed, pos >> 6)
                self._end = end = pos + 64
                avail = 64
            grab = t if t < avail else avail
            chunk = (span >> (avail - grab)) & ((1 << grab) - 1)
            pos += grab
            if chunk:
                # the first 1 sits chunk.bit_length() bits from the span's end
                self.stream_position = pos - chunk.bit_length() + 1
                return False
            t -= grab
        self.stream_position = pos
        return True

    def skip(self, t: int, limit: int) -> tuple[bool, int]:
        """Up to `limit` ``bernoulli_pow2(t)`` scans, stopping after a success.

        Returns (advanced, scans): whether the last scan succeeded and
        how many ran.  Requires t >= 1 and limit >= 1.  The scalar form of
        :func:`stream_skip`, over spans of about four mean waits.
        """
        scans = 0
        while True:
            pos = self.stream_position
            n = self._end - pos
            ones = (1 << n) - 1
            x = self._span & ones
            # bit n - 1 - s of z: stream bits s .. s + t - 1 of x are all 0
            z = x ^ ones
            c = 1
            while c < t:
                step = min(c, t - c)
                z &= z << step
                c += step
            length = z.bit_length()
            failures = (x >> length).bit_count()
            if length and scans + failures < limit:
                self.stream_position = pos + n - length + t
                return True, scans + failures + 1
            if scans + failures >= limit:
                self.stream_position = pos + _after_ones(x, n, limit - scans)
                return False, limit
            # no window: run through the last 1, then read on with a new span
            scans += failures
            if x:
                pos += n + 1 - (x & -x).bit_length()
            self.stream_position = pos
            self._fill(pos, t)

    def _fill(self, pos: int, t: int) -> None:
        first = pos >> 6
        count = min(_SPAN_BLOCKS, max(4, 1 << max(0, t - 3)))
        j = np.arange(first + 1, first + count + 1, dtype=np.uint64)
        blocks = _mix64_vec(np.uint64(self.seed) + j * _V_GOLDEN)
        self._span = int.from_bytes(blocks.astype(">u8").tobytes(), "big")
        self._end = (first + count) << 6


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
