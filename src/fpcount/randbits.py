"""Seedable random-bit streams with exact consumed-bit accounting.

The canonical stream for a 64-bit seed is defined by the splitmix64
output function: block j (j = 0, 1, ...) of the stream is

    mix64((seed + (j + 1) * 0x9E3779B97F4A7C15) mod 2**64)

and bits are delivered most-significant-bit first within each block, so
stream bit ``pos`` is bit ``63 - (pos & 63)`` of block ``pos >> 6``.
This module alone computes blocks, and alone decides how many bits a
scan or a uniform draw consumes, in every form.  Blocks are computed
from (seed, j) directly, so a reader's state is its position.

* :class:`BitSource` reads one seed's stream in order and keeps its
  unread bits as one int: ``take_bits`` cuts a run off its top, and a
  ``bernoulli_pow2`` scan is one ``bit_length``, which places the first
  1, so each consumes exactly the bits the bit-by-bit loops of
  :class:`BitStream` would.
* :func:`stream_uniforms53` reads runs of uniform draws for many seeds
  from one position, mixing each block once.
* :func:`stream_skip` runs ``bernoulli_pow2`` scans for many seeds, each
  from its own position, over a span of blocks, one level batch per
  call: every whole scan at one scan length, up to a quota of successes.
  It reports the successes and the position after any scan counts asked
  for.

Every consumer counts consumed bits exactly (``stream_position``), so
identical call sequences from identical seeds replay bit-for-bit and
bit budgets can be audited.
"""

from __future__ import annotations

import math

import numpy as np

from .chain import _integer

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
UNIFORM_BITS = 53  # the bits a uniform draw consumes
_U53 = 2.0**-UNIFORM_BITS
MAX_SCAN = 64  # the longest scan stream_skip takes
SPAN_WORDS = 1 << 14  # the most blocks a stream_skip span holds, over all streams
# n streams of at most _INT_WORDS >> n blocks each take the windows, marks
# and search in Python ints: a few dozen int operations per stream, where
# the word form makes about sixty numpy calls of 5 to 25 us each when cold;
# timed, the word form won from about the bound on, the int form below it
_INT_WORDS = 2048

# uint64 images for the vectorized reader, made once so that no array
# operation has to convert a Python int
_V_GOLDEN, _V_MIX1, _V_MIX2, _V_ALL = map(np.uint64, (_GOLDEN, _MIX1, _MIX2, _MASK64))
_V1, _V2, _V3, _V4, _V6, _V8, _V11, _V27, _V30, _V31, _V56, _V63, _V255 = map(
    np.uint64, (1, 2, 3, 4, 6, 8, 11, 27, 30, 31, 56, 63, 255)
)
# SWAR masks: 0x55.., 0x33.., 0x0F.., 0x0101..01 and 0x8080..80
_V_M1, _V_M2, _V_M4, _V_H01, _V_H80 = (
    np.uint64(0x0101010101010101 * b) for b in (0x55, 0x33, 0x0F, 1, 0x80)
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


def stream_block(seed: int, index: int) -> int:
    """64-bit block `index` of the canonical stream for `seed`."""
    return mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def _blocks(seeds: np.ndarray, first: np.ndarray, count: int) -> np.ndarray:
    """Blocks first .. first + count - 1 of each stream, one row per block.

    `first` holds each stream's first block index.  The counters wrap
    mod 2**64 in uint64 arithmetic, and the mix is ``mix64`` op for op,
    in place.
    """
    # row j: the counter step from a stream's block first - 1 to block first + j
    z = np.arange(1, count + 1, dtype=np.uint64)[:, None] * _V_GOLDEN
    z = z + (seeds + first * _V_GOLDEN)
    z ^= z >> _V30
    z *= _V_MIX1
    z ^= z >> _V27
    z *= _V_MIX2
    z ^= z >> _V31
    return z


def stream_uniforms53(seeds: np.ndarray, pos: int, count: int) -> np.ndarray:
    """`count` successive ``next_uniform53`` draws from bit `pos` of each stream.

    Returns a (count, seeds.size) array: row i holds the draws at bit
    pos + 53 * i.  Requires count >= 1.  Each block the draws touch is
    mixed once, and draw i is bits off .. off + 52 of the block
    pair it starts in.  A zero row stands past the last block; only a draw
    that ends inside its first block reads it, and those bits fall below
    the draw.
    """
    start = pos + UNIFORM_BITS * np.arange(count, dtype=np.int64)
    first = pos >> 6
    last = (int(start[-1]) + UNIFORM_BITS - 1) >> 6
    blocks = np.zeros((last - first + 2, seeds.size), dtype=np.uint64)
    blocks[:-1] = _blocks(seeds, np.full(seeds.size, first, dtype=np.uint64), last - first + 1)
    row = (start >> 6) - first
    off = (start & 63).astype(np.uint64)[:, None]
    lo = blocks[row + 1]
    # (lo >> 1) >> (63 - off) == lo >> (64 - off), and is 0 at off == 0
    # without an undefined shift by 64
    lo >>= _V1
    lo >>= _V63 - off
    w = blocks[row]
    w <<= off
    w |= lo
    w >>= _V11
    out = w.astype(np.float64)
    out *= _U53
    return out


def _swar_popcount64(x: np.ndarray) -> np.ndarray:
    # SWAR: 2-bit, 4-bit and byte counts, then one multiply sums the bytes
    # into the top byte
    x = x - ((x >> _V1) & _V_M1)
    x = (x & _V_M2) + ((x >> _V2) & _V_M2)
    x = (x + (x >> _V4)) & _V_M4
    return (x * _V_H01) >> _V56


# numpy 2 counts the 1s of a word in one call; older numpy adds them by SWAR
_popcount64 = getattr(np, "bitwise_count", _swar_popcount64)

# column t: rows 0-5 the shifts s of the doubling steps toward a run of t
# zeros (a run of c = 2**i grows by min(c, t - c), so six steps reach 64),
# rows 6-11 their carries 63 - s, row 12 t - 1 and row 13 64 - t
_SCAN_STEPS = np.array(
    [np.clip(np.arange(MAX_SCAN + 1) - c, 0, c) for c in (1, 2, 4, 8, 16, 32)]
)
_SCAN_TABLE = np.vstack(
    [
        _SCAN_STEPS,
        63 - _SCAN_STEPS,
        np.arange(-1, MAX_SCAN) % 64,
        64 - np.arange(MAX_SCAN + 1),
    ]
).astype(np.uint64)


def stream_skip(
    seeds: np.ndarray,
    pos: np.ndarray,
    t: np.ndarray,
    quota: np.ndarray,
    goals: np.ndarray,
    blocks: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``bernoulli_pow2`` scans at scan length `t` from bit `pos` of each stream.

    Each stream's span is the `blocks` blocks from block ``pos >> 6`` on.
    A stream takes whole scans until its `quota`-th success, or up to the
    last whole scan in the span.  Returns (advances, ends, scans): the
    successes and the stream position after the scan numbered by each row
    of `goals` (scan counts, ascending down each column), and after the
    last scan, in one more row; and the scans taken.  A goal's row is
    meaningless where it exceeds the scans taken.  Requires
    1 <= t <= MAX_SCAN, quota >= 1, goals >= 1 and
    2 <= blocks <= SPAN_WORDS // seeds.size, so that at least 64 bits lie
    past `pos` and every stream takes a scan.

    A failed scan is a token ``0^j 1`` with j < t and a success is
    ``0^t``, so a run of z zeros and then a 1 is z // t successes and a
    failure.  Every scan is marked at its last bit: a failure at its 1,
    and a success at the end of the first all-zero t-bit window of each
    zero run and every t bits after it while the run lasts.  The windows,
    each marked at its last bit, come from at most six shift-ANDs of the
    complement, carried across blocks.  The bits before `pos` read as 1s:
    failed scans that are taken out again.
    """
    top = int(t.max())
    if top > MAX_SCAN:
        raise OverflowError("scan length beyond the 64-bit window")
    n = seeds.size
    # span bits before the cut read as 1s; origin: the place just past bit 0
    cut = pos & _V63
    origin = pos - cut + _V1
    bits = _blocks(seeds, pos >> _V6, blocks)
    bits[0] |= ~(_V_ALL >> cut)
    # every window starts a success where t is 1 for all, and where every
    # quota is 1 the scans stop at the first window and no later mark counts
    first_only = top == 1 or int(quota.max()) == 1
    if blocks <= _INT_WORDS >> n:
        return _level_by_ints(bits, t, first_only, cut, quota, goals, origin)
    # bit 63 - b of win[i]: span bits 64 i + b - t + 1 .. 64 i + b are
    # all 0; a zero row stands before the span
    pad = np.zeros((blocks + 1, n), dtype=np.uint64)
    win = pad[1:]
    np.invert(bits, out=win)
    tab = _SCAN_TABLE[:, t]
    for i in range((top - 1).bit_length()):
        carry = pad[:-1] << _V1
        carry <<= tab[6 + i]
        carry |= win >> tab[i]
        win &= carry
    # marks[0]: the scans' last bits; marks[1]: the successes' last bits,
    # the first window of each run of windows and every t-th one on
    marks = np.empty((2, blocks, n), dtype=np.uint64)
    starts = marks[1]
    if first_only:
        starts[:] = win
    else:
        np.right_shift(win, _V1, out=starts)
        starts |= pad[:-1] << _V63
        np.bitwise_and(win, ~starts, out=starts)
        # each pass moves the newest successes t bits on, carried across
        # blocks, between two buffers with a zero row before the span
        more, step = np.zeros((2, blocks + 1, n), dtype=np.uint64)
        more[1:] = starts
        while True:
            np.right_shift(more[1:], tab[12], out=step[1:])
            step[1:] >>= _V1
            step[1:] |= more[:-1] << tab[13]
            step[1:] &= win
            if not np.count_nonzero(step):
                break
            starts |= step[1:]
            more, step = step, more
    np.bitwise_or(bits, starts, out=marks[0])
    # the marks stream after stream, each stream's scans' then successes',
    # and their running count by word, so that one sorted search finds the
    # word of every rank sought; a stream's scans' marks count from first
    # to mid, its successes' from mid to last
    flat = marks.transpose(2, 0, 1).reshape(-1)
    counts = np.zeros(flat.size + 1, dtype=np.uint64)
    np.cumsum(_popcount64(flat), out=counts[1:])
    edge = counts[::blocks]
    first, mid, last = edge[:-1:2], edge[1::2], edge[2::2]
    # each goal's scan (cut more, for the bits before the cut) or else the
    # last one, and the stop: the quota-th success if the span holds it,
    # or else the last scan
    hit = last - mid >= quota
    sought = np.empty((len(goals) + 1, n), dtype=np.uint64)
    np.minimum(goals + (cut + first), mid, out=sought[:-1])
    np.add(mid, quota * hit, out=sought[-1])
    at = np.searchsorted(counts[1:], sought)
    # the other marks up to each mark found, from the word at the same
    # place: a scan's are the successes', and a success's the scans'
    other = at + blocks
    other[-1] -= hit * (2 * blocks)
    b = _nth_one(flat[at], sought - counts[at])
    upto = counts[other] + _popcount64(flat[other] >> (_V63 - b))
    ends = ((at % blocks).astype(np.uint64) << _V6) + b + origin
    advances = upto - mid
    advances[-1] += hit * (quota - advances[-1])
    scans = mid + hit * (upto[-1] - mid) - first - cut
    return advances, ends, scans


def _level_by_ints(bits, t, first_only, cut, quota, goals, origin):
    """The search of stream_skip for a few streams, stream by stream in
    Python ints: a stream's span bits and windows each as one int, first
    bit highest.

    The windows, the complement shift-ANDed in the word form's doubling
    steps, start within the span and are marked at their last bits; the
    successes' marks and the search follow the word form: the first window
    of each run of windows and every t-th one on, and the r-th mark found
    by halving on prefix counts.
    """
    size = 64 * len(bits)
    full = (1 << size) - 1
    advances, ends, scans = [], [], []
    for ones, t_i, cut_i, quota_i, goals_i, origin_i in zip(
        _ints(bits), t.tolist(), cut.tolist(), quota.tolist(), goals.T.tolist(),
        origin.tolist(),
    ):
        zeros = _runs(full ^ ones, t_i)
        if first_only:
            started = zeros
        else:
            started = more = zeros & ~(zeros >> 1)
            while more:
                more = (more >> t_i) & zeros
                started |= more
        marked = ones | started
        total = marked.bit_count()
        hit = started.bit_count() >= quota_i
        # each goal's scan (cut more) or else the last one, then the stop
        places = [_after_ones(marked, size, min(g + cut_i, total)) for g in goals_i]
        stop = _after_ones(started, size, quota_i) if hit else _after_ones(marked, size, total)
        places.append(stop)
        advances.append([(started >> (size - place)).bit_count() for place in places])
        ends.append([place - 1 + origin_i for place in places])
        scans.append((marked >> (size - places[-1])).bit_count() - cut_i)
    return tuple(np.array(a, dtype=np.uint64).T.copy() for a in (advances, ends, scans))


def _runs(x: int, width: int) -> int:
    """The bits of x that start `width` 1s reading up: bit j stays where
    bits j .. j + width - 1 are all set, x ANDed with itself shifted down
    by doubling runs."""
    run = 1
    while run < width:
        x &= x >> min(run, width - run)
        run <<= 1
    return x


def _ints(words: np.ndarray) -> list[int]:
    """Each column of `words` as one int, its first row highest."""
    data, step = words.T.astype(">u8").tobytes(), 8 * len(words)
    return [int.from_bytes(data[i : i + step], "big") for i in range(0, len(data), step)]


def _after_ones(x: int, n: int, r: int) -> int:
    """Offset just past the r-th 1 of the n-bit x, counting from its first bit.

    Requires 1 <= r <= x.bit_count(); each step keeps the half of what is
    left that holds that 1, so the steps read about 2n bits in all.
    """
    before = 0
    while n > 1:
        half = n >> 1
        ones = (x >> (n - half)).bit_count()
        if ones < r:
            x &= (1 << (n - half)) - 1
            r, before, n = r - ones, before + half, n - half
        else:
            x, n = x >> (n - half), half
    return before + 1


# _BYTE_ONES[v]: the 1s of byte v; _BYTE_NTH[v, r]: the offset of its r-th
# 1, first bit first, or 8 where it has fewer
_BYTE_ONES = np.array([v.bit_count() for v in range(256)], dtype=np.uint8)
_BYTE_NTH = np.full((256, 9), 8, dtype=np.uint8)
for _v in range(256):
    _offsets = [i for i in range(8) if _v >> (7 - i) & 1]
    _BYTE_NTH[_v, 1 : len(_offsets) + 1] = _offsets


def _nth_one(words: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Offset of the r-th 1 of each word, first bit first, for r <= 64.

    Meaningless where the word has fewer than r 1s, or r is 0.  Running
    byte counts, summed in place by one multiply as in a SWAR popcount,
    find its byte, and a table the bit in that byte.
    """
    # the 1s of each byte, first byte lowest, then the running sums
    run = _BYTE_ONES[words.astype(">u8").view(np.uint8)].view("<u8")
    run *= _V_H01
    # a byte's top bit is set where the running sum has reached r
    byte = _V8 - _popcount64(((run | _V_H80) - r * _V_H01) & _V_H80)
    shift = byte << _V3
    before = ((run << _V8) >> shift) & _V255
    value = (words >> (_V56 - shift)) & _V255
    return shift + _BYTE_NTH[value, np.minimum(r - before, _V8)]


def child_seed(seed: int, index: int) -> int:
    """Derived seed for replicate `index` of an ensemble run.

    Defined as mix64(stream_block(seed, index)); the second mixing round
    keeps child streams distinct from the parent's own bit blocks.  The
    mapping is fixed: ensemble reports depend on it byte-for-byte.  Both
    are integers, and `index` is nonnegative.
    """
    if seed.__class__ is not int or index.__class__ is not int or index < 0:
        seed = _integer(seed, "seed", -math.inf)
        index = _integer(index, "replicate index", 0)
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
        if count < 0:
            raise ValueError(f"bit count {count} is negative")
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
        if t < 0:
            raise ValueError(f"scan length {t} is negative")
        for _ in range(t):
            if self.next_bit():
                return False
        return True


class BitSource(BitStream):
    """Deterministic bit stream over the canonical splitmix64 blocks.

    The unread bits are one int ``_rest`` below ``2**_avail``, first bit
    highest, and ``_next`` indexes the next block to load.  A scan is one
    ``bit_length``, which places the first 1; blocks are loaded only when
    every unread bit is 0.
    """

    __slots__ = ("seed", "_rest", "_avail", "_next")

    def __init__(self, seed: int):
        if seed.__class__ is not int:
            seed = _integer(seed, "seed", -math.inf)
        self.seed = seed & _MASK64
        self._rest = self._avail = self._next = 0

    @property
    def stream_position(self) -> int:
        return (self._next << 6) - self._avail

    def next_bit(self) -> int:
        return self.take_bits(1)

    def take_bits(self, count: int) -> int:
        if count < 0:
            raise ValueError(f"bit count {count} is negative")
        rest, avail = self._rest, self._avail - count
        while avail < 0:
            rest = (rest << 64) | stream_block(self.seed, self._next)
            self._next += 1
            avail += 64
        self._rest, self._avail = rest & ((1 << avail) - 1), avail
        return rest >> avail

    def bernoulli_pow2(self, t: int) -> bool:
        if t < 0:
            raise ValueError(f"scan length {t} is negative")
        rest, avail = self._rest, self._avail
        n = rest.bit_length()
        while avail - n < t:
            if n:
                # the scan ends at the first 1, which goes with it
                self._rest, self._avail = rest ^ (1 << (n - 1)), n - 1
                return False
            # every unread bit is 0 and the scan runs past them
            t -= avail
            self._rest = rest = stream_block(self.seed, self._next)
            self._next += 1
            avail, n = 64, rest.bit_length()
        self._avail = avail - t
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
