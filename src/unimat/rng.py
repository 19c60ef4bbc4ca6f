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
"""

from __future__ import annotations

from typing import Iterator

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def words(seed: int, start: int, count: int) -> Iterator[int]:
    """Words start .. start+count-1 of the stream, as a generator."""
    z = (seed + start * GOLDEN) & _MASK64
    for _ in range(count):
        z = (z + GOLDEN) & _MASK64
        w = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        w = ((w ^ (w >> 27)) * _MIX2) & _MASK64
        yield w ^ (w >> 31)


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
    ws = words(seed, start * m, count * m)
    if m == 1:
        return ((w * r) >> 64 for w in ws)
    return ((_big_endian(group) * r) >> (64 * m) for group in zip(*[ws] * m))


def _big_endian(group: tuple[int, ...]) -> int:
    big = 0
    for w in group:
        big = (big << 64) | w
    return big
