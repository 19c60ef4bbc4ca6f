"""Counter-based deterministic 64-bit generator (splitmix64).

The generator is a pure function of (seed, counter), so any slice of the
stream can be produced independently and in any order: word k of the stream
seeded by s is

    word(s, k) = finalize((s + (k + 1) * GOLDEN) mod 2^64)

where GOLDEN = 0x9E3779B97F4A7C15 and finalize is the splitmix64 output
mix. This is exactly the sequential splitmix64 generator of Steele,
Lea & Flood with initial state s, reindexed by counter.

Reference vectors (seed 0): the first three words are
0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.

Bounded integers come from the multiply-shift map
((word * r) >> 64), which sends a 64-bit word to [0, r) with bias below
r / 2^64 (Lemire, "Fast Random Integer Generation in an Interval", ACM
TOMACS 2019). For r <= 2^64 a draw consumes exactly one word. Larger r
would leave most of [0, r) unreachable from one word, so a draw then
consumes m = ceil(bits(r) / 64) + 1 consecutive words w_0 .. w_(m-1),
read as the big-endian integer W = w_0 * 2^(64(m-1)) + ... + w_(m-1), and
maps it to (W * r) >> (64 m), with bias below r / 2^(64 m) < 2^-64. Draw
number t then uses the words at counters t*m .. t*m + m - 1. m depends on
r alone, so counter layouts stay static, and a contiguous range of draws is
read as one sequential pass over its words (`draws`).

Words are computed a block of up to 2,048 counters at a time, in 128-bit
lanes of one Python integer (counter c + i in bits 128i .. 128i + 127), and
the finalizer runs on the whole integer at once. Every lane is masked back
to its low 64 bits before each multiply, so a product stays below 2^128 and
never reaches the next lane, and the bits a right shift pulls in from a
neighbour are cleared before they are used. The map (w * r) >> 64 for
r <= 2^64 is one more lane multiply whose high halves are the draws; a
plain word is the draw for r = 2^64. The values are exactly those of the
per-counter definition above; only the interpreter work per word changes.

Draws shifted onto [-b, b) (`signed_draws`) come from the same lanes for
2b <= 2^64. A high half holds d in [0, 2b); adding 2^63 - b to it gives
d - b + 2^63, which lies in [2^63 - b, 2^63 + b) and so below 2^64 while
b <= 2^63: no lane carries into its neighbour. Flipping bit 63 of the
half then leaves the two's complement of d - b, which reads back as a
signed 64-bit value. Larger bounds take m words per draw and subtract b
from each draw.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from typing import Iterator

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_BLOCK = 2048
# _BLOCK lanes of 128 bits: _ONES holds 1 in every lane, _STEPS holds
# (i * GOLDEN) mod 2^64 in lane i and _LANES holds 2^64 - 1 in every lane
_ONES = int.from_bytes((b"\1" + b"\0" * 15) * _BLOCK, "little")
_STEPS = int.from_bytes(
    b"".join(((i * GOLDEN) & _MASK64).to_bytes(16, "little") for i in range(_BLOCK)), "little"
)
_LANES = _ONES * _MASK64
_SIGNS = _ONES << 127  # bit 63 of every lane's high half


def _blocks(seed: int, start: int, count: int, r: int, offset: int = 0) -> Iterator[array]:
    """((word * r) >> 64) - offset for the words at counters
    start .. start+count-1, r <= 2^64, as one array per block: of unsigned
    64-bit values for offset 0, else of signed ones, which needs
    r - 2^63 <= offset <= 2^63 (see the module docstring)."""
    end = start + count
    lift = (((1 << 63) - offset) << 64) * _ONES if offset else 0
    signs = _SIGNS
    for c in range(start, end, _BLOCK):
        n = min(_BLOCK, end - c)
        ones, steps, lanes = _ONES, _STEPS, _LANES
        if n < _BLOCK:
            cut = (1 << 128 * n) - 1
            ones, steps, lanes = ones & cut, steps & cut, lanes & cut
            lift, signs = lift & cut, signs & cut
        z = (((seed + (c + 1) * GOLDEN) & _MASK64) * ones + steps) & lanes
        z = (((z ^ (z >> 30)) & lanes) * _MIX1) & lanes
        z = (((z ^ (z >> 27)) & lanes) * _MIX2) & lanes
        z = ((z ^ (z >> 31)) & lanes) * r
        if offset:
            z = (z + lift) ^ signs
        halves = array("q" if offset else "Q")
        halves.frombytes(z.to_bytes(16 * n, "little"))
        if sys.byteorder == "big":
            halves.byteswap()
        yield halves[1::2]


def words(seed: int, start: int, count: int) -> Iterator[int]:
    """Words start .. start+count-1 of the stream, as a lazy iterator."""
    return chain.from_iterable(_blocks(seed, start, count, 1 << 64))


def word(seed: int, counter: int) -> int:
    """The counter-th 64-bit word of the stream seeded by seed."""
    return next(words(seed, counter, 1))


def bounded(w: int, r: int) -> int:
    """Map a 64-bit word to [0, r) by multiply-shift."""
    return (w * r) >> 64


def derive_seed(seed: int, index: int, salt: int) -> int:
    """A sub-seed for stream number index, domain-separated by salt.

    Used to give each bound in a sweep its own stream while everything still
    flows from one base seed.
    """
    return word((seed ^ salt) & _MASK64, index)


def words_per_draw(r: int) -> int:
    """Stream words consumed by one draw on [0, r): 1 up to r = 2^64, else
    ceil(bits(r) / 64) + 1."""
    return 1 if r <= 1 << 64 else (r.bit_length() + 63) // 64 + 1


def draws(seed: int, start: int, count: int, r: int) -> Iterator[int]:
    """Draws start .. start+count-1 on [0, r) of the stream seeded by seed,
    as a lazy iterator over one sequential pass of the words they use."""
    m = words_per_draw(r)
    if m == 1:
        return chain.from_iterable(_blocks(seed, start, count, r))
    ws = words(seed, start * m, count * m)
    return ((_big_endian(group) * r) >> (64 * m) for group in zip(*[ws] * m))


def signed_draws(seed: int, start: int, count: int, b: int) -> Iterator[int]:
    """Draws start .. start+count-1 on [0, 2b) of the stream seeded by seed,
    each minus b: the entries of a box [-b, b), as a lazy iterator."""
    if 2 * b <= 1 << 64:
        return chain.from_iterable(_blocks(seed, start, count, 2 * b, b))
    return map(b.__rsub__, draws(seed, start, count, 2 * b))


def _big_endian(group: tuple[int, ...]) -> int:
    big = 0
    for w in group:
        big = (big << 64) | w
    return big
