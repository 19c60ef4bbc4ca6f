"""Stream words must be pure functions of (seed, counter) and match the
published splitmix64 outputs, since reproducibility across machines and
languages rests entirely on this module."""

import random

import pytest

from unimat import rng

_M = (1 << 64) - 1

# first three splitmix64 outputs for state 0, widely published reference values
SEED0_WORDS = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def _reference_stream(state: int):
    """Textbook stateful splitmix64, written independently of rng.word."""

    def nxt() -> int:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & _M
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M
        return z ^ (z >> 31)

    return nxt


def test_published_seed0_vectors():
    for i, expect in enumerate(SEED0_WORDS):
        assert rng.word(0, i) == expect


@pytest.mark.parametrize("seed", [0, 1, 42, 0xDEADBEEF, _M])
def test_counter_form_matches_stateful_reference(seed):
    nxt = _reference_stream(seed)
    for counter in range(64):
        assert rng.word(seed, counter) == nxt()


def test_words_equals_individual_calls():
    seq = list(rng.words(7, 100, 20))
    assert seq == [rng.word(7, 100 + i) for i in range(20)]


def test_words_empty_and_single():
    assert list(rng.words(3, 5, 0)) == []
    assert list(rng.words(3, 5, 1)) == [rng.word(3, 5)]


def test_word_range_and_purity():
    r = random.Random(1)
    for _ in range(200):
        seed, counter = r.getrandbits(64), r.getrandbits(32)
        w = rng.word(seed, counter)
        assert 0 <= w <= _M
        assert rng.word(seed, counter) == w


@pytest.mark.parametrize("r", [1, 2, 3, 7, 10, 1000, 2 * 10**6])
def test_bounded_stays_in_range(r):
    for w in rng.words(9, 0, 500):
        assert 0 <= rng.bounded(w, r) < r


def test_bounded_extremes():
    assert rng.bounded(0, 17) == 0
    assert rng.bounded(_M, 17) == 16
    # multiply-shift is exactly floor(w * r / 2^64)
    for w in rng.words(4, 0, 100):
        assert rng.bounded(w, 1000) == (w * 1000) >> 64


def test_bounded_covers_small_range():
    seen = {rng.bounded(w, 6) for w in rng.words(11, 0, 400)}
    assert seen == set(range(6))


def test_words_per_draw():
    assert [rng.words_per_draw(r) for r in (1, 2**63, 2**64)] == [1, 1, 1]
    # ceil(bits(r) / 64) + 1
    assert [rng.words_per_draw(r) for r in (2**64 + 1, 2**71, 2**128 - 1, 2**128)] == [3, 3, 3, 4]


@pytest.mark.parametrize("r", [1, 6, 2**64])
def test_one_word_draws_are_bounded(r):
    assert list(rng.draws(5, 7, 30, r)) == [rng.bounded(w, r) for w in rng.words(5, 7, 30)]


def test_multi_word_draws_in_range_and_layout():
    r = 3 * 2**100 + 1  # 102 bits: m = 3
    ds = list(rng.draws(8, 10, 50, r))
    assert all(0 <= d < r for d in ds)
    assert ds[5:] == list(rng.draws(8, 15, 45, r))
    ws = [rng.word(8, 15 * 3 + t) for t in range(3)]
    assert ds[5] == (((ws[0] << 128) | (ws[1] << 64) | ws[2]) * r) >> 192


_BLOCK = rng._BLOCK  # counters per block of the lane kernel (2,048)
# counts on both sides of one and two block boundaries
BLOCK_COUNTS = [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
# (seed, start): small, a seed past 2^64, and starts whose counters wrap past 2^64
KERNEL_STARTS = [(0, 0), (0xDEADBEEF, 12345), (2**64 + 77, 3), (2**70 + 5, 9), (9, 2**64 - 1000)]


def _reference_words(seed: int, start: int, count: int) -> list[int]:
    """Words start .. start+count-1 from the stateful reference, advanced to
    state seed + start * GOLDEN."""
    nxt = _reference_stream((seed + start * 0x9E3779B97F4A7C15) & _M)
    return [nxt() for _ in range(count)]


@pytest.mark.parametrize("count", BLOCK_COUNTS)
@pytest.mark.parametrize("seed,start", KERNEL_STARTS)
def test_words_match_reference_across_blocks(seed, start, count):
    assert list(rng.words(seed, start, count)) == _reference_words(seed, start, count)


@pytest.mark.parametrize("count", BLOCK_COUNTS)
@pytest.mark.parametrize("seed,start", KERNEL_STARTS)
@pytest.mark.parametrize("r", [6, 2 * 10**6, 2**63 + 1, 2**64, 2**64 + 1])
def test_draws_match_reference_across_blocks(seed, start, count, r):
    m = rng.words_per_draw(r)  # 1 up to r = 2^64, then 3
    ws = _reference_words(seed, start * m, count * m)
    expect = [
        (int.from_bytes(b"".join(w.to_bytes(8, "big") for w in ws[t : t + m]), "big") * r) >> (64 * m)
        for t in range(0, len(ws), m)
    ]
    assert list(rng.draws(seed, start, count, r)) == expect


# 2^63 is the largest bound whose entries come from the signed lanes; one
# past it takes m = 3 words per draw and a subtraction
SIGNED_BOUNDS = [1, 2, 3, 10**6, 2**62, 2**63 - 1, 2**63, 2**63 + 1]


@pytest.mark.parametrize("count", [0, 1, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("start", [0, 3, _BLOCK - 1, _BLOCK])
@pytest.mark.parametrize("b", SIGNED_BOUNDS)
def test_signed_draws_are_draws_minus_b(b, start, count):
    got = list(rng.signed_draws(0xDEADBEEF, start, count, b))
    assert got == [x - b for x in rng.draws(0xDEADBEEF, start, count, 2 * b)]
    assert all(-b <= e < b for e in got)


def test_derive_seed_is_salted_word():
    assert rng.derive_seed(5, 3, 0xABCD) == rng.word((5 ^ 0xABCD) & _M, 3)


def test_derive_seed_separates_domains():
    base = [rng.derive_seed(0, i, 0x1111) for i in range(50)]
    other_salt = [rng.derive_seed(0, i, 0x2222) for i in range(50)]
    other_seed = [rng.derive_seed(1, i, 0x1111) for i in range(50)]
    assert len(set(base)) == 50
    assert not set(base) & set(other_salt)
    assert not set(base) & set(other_seed)


def test_disjoint_counter_blocks_are_uncorrelated_enough():
    # crude sanity: mean of 16-bit slices over two far-apart blocks
    a = [rng.word(0, c) & 0xFFFF for c in range(1000)]
    b = [rng.word(0, c) & 0xFFFF for c in range(10**9, 10**9 + 1000)]
    for block in (a, b):
        mean = sum(block) / len(block)
        assert abs(mean - 32767.5) < 2500
