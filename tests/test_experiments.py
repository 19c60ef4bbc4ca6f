"""Empirical harness: exact small-box censuses, budget refusal, and the
determinism/sharding contract of the Monte Carlo estimator.

Both censuses are checked against brute force on every matrix: the box
counts (Moebius inversion for k = 1, the prefix census for k >= 2)
against the gcd of all minors, and the mod-p census against Gaussian
elimination kept here. The Moebius values are checked against sympy's
factorizations.

The estimator's hot loop is validated against the slow reference route
(sample_matrix + is_unimodular), against hits built from the textbook
stateful splitmix64 and the gcd of all minors, and against pinned hit
counts.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import factorint

from test_rng import _reference_stream
from unimat import rng
from unimat.experiments import (
    BoxSpec,
    BudgetError,
    DEFAULT_BUDGET,
    _add_codes,
    _count_hits,
    _estimate_report,
    _mobius,
    convergence_sweep,
    estimate_density,
    exhaustive_density,
    sample_matrix,
    verify_local_density,
)
from unimat.density import count_full_rank_mod_p, is_prime
from unimat.matrix import IntMatrix, is_unimodular, minors


def test_box_spec_validation():
    with pytest.raises(ValueError):
        BoxSpec(0, 2, 5)
    with pytest.raises(ValueError):
        BoxSpec(3, 2, 5)
    with pytest.raises(ValueError):
        BoxSpec(1, 2, 0)
    assert BoxSpec(2, 3, 4).total == 8**6


def test_exhaustive_small_boxes():
    rep = exhaustive_density(BoxSpec(1, 2, 1))
    assert (rep.total, rep.hits, rep.density) == (4, 3, Fraction(3, 4))
    rep = exhaustive_density(BoxSpec(1, 2, 2))
    assert (rep.total, rep.hits, rep.density) == (16, 12, Fraction(3, 4))
    rep = exhaustive_density(BoxSpec(1, 1, 1))
    assert (rep.total, rep.hits, rep.density) == (2, 1, Fraction(1, 2))


def test_exhaustive_square_case_matches_gl2_f2():
    # entries in {-1,0}: |det| = 1 iff det is odd iff full rank mod 2
    rep = exhaustive_density(BoxSpec(2, 2, 1))
    assert (rep.hits, rep.density) == (6, Fraction(3, 8))


def test_exhaustive_budget_refusal():
    with pytest.raises(BudgetError) as exc:
        exhaustive_density(BoxSpec(2, 4, 100), budget=10**6)
    assert exc.value.required == 200**8
    assert exc.value.budget == 10**6
    assert str(exc.value.required) in str(exc.value)


@pytest.mark.parametrize("k,n,digits", [(3000, 3000, "9000000"), (10**8, 10**8, "1" + "0" * 16)])
def test_exhaustive_refuses_enormous_boxes_without_building_them(k, n, digits):
    # (2B)^(kn) was built and then printed: past 4,300 digits str() raised
    # ValueError, and at 2^(10^16) building it never finished
    with pytest.raises(BudgetError) as exc:
        exhaustive_density(BoxSpec(k, n, 1), budget=1)
    assert exc.value.required is None
    assert str(exc.value) == (
        f"enumeration needs (2B)^(kn) = 2^{digits} matrices but the budget is 1; "
        f"raise the budget to at least 2^{digits} to proceed"
    )
    with pytest.raises(BudgetError) as exc:
        verify_local_density(3, k, n, budget=DEFAULT_BUDGET)
    assert exc.value.required is None
    assert f"p^(kn) = 3^{digits} matrices" in str(exc.value)


def test_budget_allows_exactly_the_total():
    assert exhaustive_density(BoxSpec(2, 3, 2), budget=4**6).total == 4**6
    with pytest.raises(BudgetError) as exc:
        exhaustive_density(BoxSpec(2, 3, 2), budget=4**6 - 1)
    assert exc.value.required == 4**6
    assert verify_local_density(3, 2, 3, budget=3**6).total == 3**6
    with pytest.raises(BudgetError):
        verify_local_density(3, 2, 3, budget=3**6 - 1)


@lru_cache(maxsize=None)
def brute_hits(k: int, n: int, b: int) -> int:
    """Unimodular matrices in [-b, b)^(kn): the gcd of all k-minors of every
    matrix of the box, one at a time."""
    return sum(
        math.gcd(*minors(IntMatrix(k, n, flat), k).values) == 1
        for flat in product(range(-b, b), repeat=k * n)
    )


# every box of at most 2 * 10^5 matrices with 1 <= k <= n <= 4, B <= 3; the
# box [-B, B) holds -B but not B, so a census that assumes a symmetric box
# is off on it. The row boxes after them run every bound of 1x2 up to 12
# and of 1x3 up to 5, so each small d appears as a divisor of the bound,
# of the bound - 1 and of neither; n = 1 covers b = 1, where +1 is
# outside the box. The wide boxes at B = 1 come last: with 2^(k-1) column
# values and n >= 5 columns, most prefixes repeat a column, so a wrong
# multinomial weight on a column multiset shows there.
BRUTE_BOXES = [
    (k, n, b)
    for n in range(1, 5)
    for k in range(1, n + 1)
    for b in (1, 2, 3)
    if (2 * b) ** (k * n) <= 2 * 10**5
] + [(1, 1, 7)] + [(1, 2, b) for b in range(4, 13)] + [(1, 2, 30), (1, 3, 4), (1, 3, 5), (1, 3, 8)] + [
    (2, 5, 1), (2, 6, 1), (3, 5, 1)
]


@pytest.mark.parametrize("b", [1, 2, 3, 4, 30, 3000])
def test_mobius_matches_factorizations(b):
    def mu(d):
        exps = factorint(d).values()
        return 0 if any(e > 1 for e in exps) else (-1) ** len(exps)

    assert list(_mobius(b)) == [0] + [mu(d) for d in range(1, b + 1)]


@pytest.mark.parametrize("k,n,b", BRUTE_BOXES)
def test_exhaustive_density_equals_brute_force(k, n, b):
    rep = exhaustive_density(BoxSpec(k, n, b))
    assert rep.hits == brute_hits(k, n, b)
    assert rep.total == (2 * b) ** (k * n)


@pytest.mark.parametrize(
    "k,n,b,hits", [(3, 3, 2, 39036), (5, 5, 1, 9702720), (2, 4, 3, 1299948), (3, 4, 2, 8657112)]
)
def test_exhaustive_pinned_hits_past_brute_boxes(k, n, b, hits):
    # 3x3 at B = 2 is brute force over its 262,144 matrices, as in the
    # benchmark's references. The others were counted one prefix at a time,
    # each prefix against every last row; 5x5 at B = 1 is also twice the
    # 4,851,360 (0,1)-matrices of determinant 1 (OEIS A046747), since the
    # box is {-1, 0}. The k < n boxes have 1,296 and 256 last rows, more
    # than any k < n box the brute force above reaches (216)
    assert exhaustive_density(BoxSpec(k, n, b)).hits == hits


def test_exhaustive_density_is_exact_fraction():
    rep = exhaustive_density(BoxSpec(1, 3, 2))
    assert isinstance(rep.density, Fraction)
    assert rep.density == Fraction(rep.hits, rep.total)


def test_estimate_determinism_and_purity():
    spec = BoxSpec(2, 3, 1000)
    a = estimate_density(spec, 2000, seed=9, shards=3)
    b = estimate_density(spec, 2000, seed=9, shards=3)
    assert a == b


@pytest.mark.parametrize("shards", [2, 5, 8])
def test_estimate_shard_invariance(shards):
    spec = BoxSpec(1, 2, 10**6)
    base = estimate_density(spec, 3000, seed=4, shards=1)
    split = estimate_density(spec, 3000, seed=4, shards=shards)
    assert split.hits == base.hits
    assert split.estimate == base.estimate
    assert split.shards == shards


def test_estimate_seed_sensitivity():
    spec = BoxSpec(1, 2, 10**6)
    assert estimate_density(spec, 3000, seed=0).hits != estimate_density(spec, 3000, seed=1).hits


def test_estimate_matches_reference_route():
    # slow route: materialize each sample and run the library predicate
    big = 2**70
    for spec in (BoxSpec(1, 3, 9), BoxSpec(2, 3, 9), BoxSpec(3, 4, 5), BoxSpec(1, 2, big), BoxSpec(2, 3, big)):
        ref = sum(is_unimodular(sample_matrix(spec, 7, i)) for i in range(400))
        assert estimate_density(spec, 400, seed=7).hits == ref


@pytest.mark.parametrize(
    "k,n,samples,hits", [(1, 2, 15000, 9257), (2, 3, 2800, 1428), (3, 4, 1800, 811), (4, 8, 240, 225)]
)
def test_estimate_pinned_hits(k, n, samples, hits):
    # recorded from the stream definition; the benchmark's references agree
    assert estimate_density(BoxSpec(k, n, 10**6), samples, seed=0, shards=2).hits == hits


@pytest.mark.parametrize("bound", [10**6, 2**70])
@pytest.mark.parametrize("k,n", [(1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (4, 8)])
def test_count_hits_matches_textbook_stream(k, n, bound):
    # samples lo .. hi-1 rebuilt from the stateful generator, skipping the
    # words of samples before lo; m words per draw, big-endian
    seed, lo, hi = 0xDEADBEEF12345, 37, 337
    r = 2 * bound
    m = 1 if r <= 2**64 else (r.bit_length() + 63) // 64 + 1
    nxt = _reference_stream(seed)
    for _ in range(lo * k * n * m):
        nxt()
    expect = 0
    for _ in range(lo, hi):
        ents = []
        for _ in range(k * n):
            w = 0
            for _ in range(m):
                w = (w << 64) | nxt()
            ents.append(((w * r) >> (64 * m)) - bound)
        expect += math.gcd(*minors(IntMatrix(k, n, tuple(ents)), k).values) == 1
    assert _count_hits(BoxSpec(k, n, bound), seed, lo, hi) == expect


def test_estimate_report_fields():
    spec = BoxSpec(1, 2, 10**6)
    rep = estimate_density(spec, 5000, seed=1)
    assert rep.spec == spec and rep.samples == 5000 and rep.seed == 1
    assert 0 <= rep.hits <= 5000
    assert rep.estimate == rep.hits / 5000
    assert rep.std_error == math.sqrt(rep.estimate * (1 - rep.estimate) / 5000)
    assert abs(rep.theory_value - 0.6079271018540266) < 1e-12
    assert rep.z_score == (rep.estimate - rep.theory_value) / rep.std_error


def test_estimate_z_score_none_when_degenerate():
    # 1x1 box, one sample that is a hit: the theory value d_{1,1} is
    # exactly 0 and the std error is 0
    rep = _estimate_report(BoxSpec(1, 1, 1), 1, 1, seed=0, shards=1)
    assert rep.estimate == 1.0
    assert rep.std_error == 0.0
    assert rep.theory_value == 0.0
    assert rep.z_score is None


def test_estimate_validation():
    spec = BoxSpec(1, 2, 10)
    with pytest.raises(ValueError):
        estimate_density(spec, 99, seed=0)
    with pytest.raises(ValueError):
        estimate_density(spec, 1000, seed=0, shards=0)
    with pytest.raises(ValueError):
        estimate_density(spec, 1000, seed=-1)


def test_sample_matrix_layout():
    # sample i consumes exactly the words at counters i*k*n .. i*k*n + k*n - 1
    spec = BoxSpec(2, 3, 50)
    m = sample_matrix(spec, seed=11, index=4)
    words = list(rng.words(11, 4 * 6, 6))
    expect = [rng.bounded(w, 100) - 50 for w in words]
    assert list(m.entries) == expect
    assert m.rows == 2 and m.cols == 3
    assert all(-50 <= e < 50 for e in m.entries)


def test_sample_matrix_layout_past_one_word():
    # 2B = 2^71 takes m = ceil(72 / 64) + 1 = 3 words per entry: entry e of
    # sample i reads counters (i*k*n + e)*3 + t, t < 3, as one big-endian
    # 192-bit integer W, and is (W * 2B) >> 192 shifted by -B
    b = 2**70
    m = sample_matrix(BoxSpec(2, 3, b), seed=11, index=4)
    expect = []
    for e in range(6):
        w0, w1, w2 = (rng.word(11, (4 * 6 + e) * 3 + t) for t in range(3))
        expect.append(((((w0 << 128) | (w1 << 64) | w2) * 2 * b) >> 192) - b)
    assert list(m.entries) == expect
    assert all(-b <= e < b for e in m.entries)
    # the entries use the whole range, not one residue class mod 2^7
    assert len({e % 2**7 for e in m.entries}) > 1


def test_estimate_past_one_word_bound_matches_theory():
    # one word per entry put every entry in one residue class mod 2^7 and
    # reported 0 coprime pairs
    rep = estimate_density(BoxSpec(1, 2, 2**70), 20000, seed=0, shards=2)
    assert rep.z_score is not None and abs(rep.z_score) <= 5


def test_sweep_structure_and_fallback():
    reps = convergence_sweep(1, 2, (1, 2, 3, 1000), samples=2000, seed=5)
    assert [r.spec.bound for r in reps] == [1, 2, 3, 1000]
    # boxes no larger than the budget are enumerated exactly
    assert (reps[0].samples, reps[0].hits) == (4, 3)
    assert (reps[1].samples, reps[1].hits) == (16, 12)
    assert reps[2].samples == 36
    assert reps[3].samples == 2000
    # per-bound sub-seeds come from the documented derivation
    assert reps[3].seed == rng.derive_seed(5, 3, 0x53574545502D5631)


def test_sweep_single_bound():
    reps = convergence_sweep(2, 3, (500,), samples=300, seed=1)
    assert len(reps) == 1
    assert reps[0].spec == BoxSpec(2, 3, 500)


def test_sweep_validation():
    with pytest.raises(ValueError):
        convergence_sweep(1, 2, (), samples=500, seed=0)
    with pytest.raises(ValueError):
        convergence_sweep(1, 2, (5, 5), samples=500, seed=0)
    with pytest.raises(ValueError):
        convergence_sweep(1, 2, (10, 2), samples=500, seed=0)
    with pytest.raises(ValueError):
        convergence_sweep(1, 2, (2, 10), samples=50, seed=0)


def test_sweep_deterministic():
    a = convergence_sweep(1, 3, (10, 100), samples=400, seed=2)
    b = convergence_sweep(1, 3, (10, 100), samples=400, seed=2)
    assert a == b


@pytest.mark.parametrize("p,k,n,expect", [(2, 1, 2, Fraction(3, 4)), (3, 1, 2, Fraction(8, 9)), (2, 2, 2, Fraction(3, 8))])
def test_verify_local_density_examples(p, k, n, expect):
    chk = verify_local_density(p, k, n)
    assert chk.matches
    assert chk.empirical == expect
    assert chk.formula == expect
    assert chk.counted == chk.expected_count
    assert chk.total == p ** (k * n)


def test_verify_local_density_wider_shapes():
    for p in (2, 3):
        for k, n in ((1, 3), (2, 3), (3, 4)):
            assert verify_local_density(p, k, n).matches


def test_verify_local_density_errors():
    with pytest.raises(ValueError):
        verify_local_density(6, 1, 2)
    with pytest.raises(ValueError):
        verify_local_density(2, 3, 2)
    with pytest.raises(BudgetError):
        verify_local_density(5, 3, 3, budget=10**5)


def _full_rank_mod_p(flat: tuple[int, ...], k: int, n: int, p: int) -> bool:
    """Rank of a k x n matrix over Z/pZ equals k? Entries arrive in [0, p).
    Gaussian elimination, independent of the library's enumerated spans."""
    if k == 1:
        return any(flat)
    m = [list(flat[t * n : (t + 1) * n]) for t in range(k)]
    row = 0
    for c in range(n):
        pr = next((rr for rr in range(row, k) if m[rr][c]), None)
        if pr is None:
            continue
        m[row], m[pr] = m[pr], m[row]
        inv = pow(m[row][c], -1, p)
        for rr in range(row + 1, k):
            f = m[rr][c] * inv % p
            if f:
                m[rr] = [(x - f * y) % p for x, y in zip(m[rr], m[row])]
        row += 1
        if row == k:
            return True
    return False


# every (p, k, n) with p^(kn) <= 5 * 10^4 and p < 224; from p = 227 on only
# 1 x 1 fits, whose census is the one any() test of the oracle
LOCAL_CENSUSES = [
    (p, k, n)
    for p in range(2, 224)
    if is_prime(p)
    for n in range(1, 16)
    for k in range(1, n + 1)
    if p ** (k * n) <= 5 * 10**4
]


@pytest.mark.parametrize("p,k,n", LOCAL_CENSUSES)
def test_verify_local_density_equals_elimination(p, k, n):
    chk = verify_local_density(p, k, n)
    assert chk.counted == sum(_full_rank_mod_p(f, k, n, p) for f in product(range(p), repeat=k * n))
    assert chk.matches


# past the oracle's range: 10^6, 10^6, 10^6, 5.3 * 10^5, 3.9 * 10^5 and
# 1.2 * 10^5 matrices, against the closed form prod_j (p^n - p^j)
@pytest.mark.parametrize("p,k,n", [(2, 1, 20), (2, 2, 10), (2, 4, 5), (3, 3, 4), (5, 2, 4), (7, 2, 3)])
def test_verify_local_density_past_the_oracle(p, k, n):
    chk = verify_local_density(p, k, n)
    assert chk.counted == count_full_rank_mod_p(p, k, n)
    assert chk.matches


def _code(digits: tuple[int, ...], p: int) -> int:
    """sum v_i p^(n-1-i), the census's integer code of the row v."""
    code = 0
    for x in digits:
        code = code * p + x
    return code


def _decode(code: int, p: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        code, x = divmod(code, p)
        digits.append(x)
    return tuple(reversed(digits))


@st.composite
def _digit_pairs(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, 8))
    row = st.tuples(*[st.integers(0, p - 1)] * n)
    return p, draw(row), draw(row)


@settings(max_examples=500, deadline=None)
@given(case=_digit_pairs())
def test_add_codes_is_digitwise_addition_mod_p(case):
    p, a, b = case
    assert _add_codes(_code(a, p), _code(b, p), p) == _code(tuple((x + y) % p for x, y in zip(a, b)), p)


@pytest.mark.parametrize("p,n", [(p, n) for p in (2, 3, 5, 7, 11) for n in range(1, 9) if p**n <= 2 * 10**4])
def test_codes_enumerate_rows_in_product_order(p, n):
    rows = list(product(range(p), repeat=n))
    assert [_decode(c, p, n) for c in range(p**n)] == rows
    assert [_code(v, p) for v in rows] == list(range(p**n))
