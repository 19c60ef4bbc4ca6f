"""CLI contract: subcommand output shapes, the decimal-string convention
for exact quantities, the exit-code mapping, and byte determinism. All
invocations run main() in-process."""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_experiments import brute_hits
from unimat import cli
from unimat.cli import main
from unimat.density import PrimeSet, is_prime, local_density
from unimat.matrix import IntMatrix
from unimat.normal_forms import snf

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _in_process(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """main(argv) on the given stdin with its stdout and stderr captured;
    raises what main raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_analyze_unimodular(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "1 2\n2 3\n")
    code, out, _ = _run(capsys, "analyze", path, "--mode", "unimodular")
    assert code == 0
    data = json.loads(out)
    assert data == {"rows": 1, "cols": 2, "minor_gcd": "1", "unimodular": True}


def test_analyze_hnf(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "1 2\n4 6\n")
    code, out, _ = _run(capsys, "analyze", path, "--mode", "hnf")
    assert code == 0
    data = json.loads(out)
    assert data["H"] == [["0", "2"]]
    assert data["det_U"] in ("1", "-1")
    assert data["trivial"] is False
    # round-trip through the reported transform
    u = [[int(e) for e in row] for row in data["U"]]
    assert [0 * u[0][0] + 2 * u[1][0], 0 * u[0][1] + 2 * u[1][1]] == [4, 6]


def test_analyze_snf(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "2 2\n2 0\n0 3\n")
    code, out, _ = _run(capsys, "analyze", path, "--mode", "snf")
    assert code == 0
    data = json.loads(out)
    assert data["S"] == [["1", "0"], ["0", "6"]]
    assert data["invariant_factors"] == ["1", "6"]
    assert "L" in data and "R" in data


def test_analyze_complete_success(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "1 2\n2 3\n")
    code, out, _ = _run(capsys, "analyze", path, "--mode", "complete")
    assert code == 0
    comp = [[int(e) for e in row] for row in json.loads(out)["completion"]]
    assert comp[1] == [2, 3]
    assert abs(comp[0][0] * comp[1][1] - comp[0][1] * comp[1][0]) == 1


def test_analyze_complete_not_unimodular_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "1 2\n2 4\n")
    code, out, _ = _run(capsys, "analyze", path, "--mode", "complete")
    assert code == 3
    data = json.loads(out)
    assert data["error"] == "not_unimodular"
    assert data["minor_gcd"] == "2"


def test_analyze_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2\n2 3\n"))
    code, out, _ = _run(capsys, "analyze", "-", "--mode", "unimodular")
    assert code == 0
    assert json.loads(out)["unimodular"] is True


def test_analyze_parse_error_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "m.txt", "1 2\n1 z\n")
    code, out, err = _run(capsys, "analyze", path, "--mode", "hnf")
    assert code == 2
    assert out == ""
    assert "line 2, column 3" in err


def test_analyze_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, "analyze", "nope.txt", "--mode", "hnf")
    assert code == 2
    assert "error:" in err


def test_density_command(capsys):
    code, out, _ = _run(capsys, "density", "--k", "1", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert abs(Decimal(data["value"]) - Decimal("0.607927101854")) < Decimal("1e-9")
    assert Decimal(data["abs_error_bound"]) <= Decimal("1e-12")
    assert data["terms"]["zeta_series_cutoffs"].keys() == {"2"}


def test_density_square_zero(capsys):
    code, out, _ = _run(capsys, "density", "--k", "3", "--n", "3")
    assert code == 0
    assert json.loads(out)["value"] == "0"


def test_density_domain_error_exits_2(capsys):
    code, _, err = _run(capsys, "density", "--k", "3", "--n", "2")
    assert code == 2
    assert "k" in err


def test_limit_command(capsys):
    code, out, _ = _run(capsys, "limit", "--d", "1", "--tol", "1e-10")
    assert code == 0
    data = json.loads(out)
    assert abs(Decimal(data["value"]) - Decimal("0.43575707677")) < Decimal("1e-10")
    assert data["terms"]["product_cutoff"] is not None


def _mp_inverse_zeta_product(lo: int, dps: int, hi: int | None = None) -> Decimal:
    """prod_{j=lo}^{hi} zeta(j)^(-1) to dps digits. Without hi, the limit
    prod_{j>=lo}: the factors past lo + 3.33 dps + 9 lie within 2^(-j) of 1,
    so dropping them costs below 10^(-dps)."""
    if hi is None:
        hi = lo + int(3.33 * dps) + 9
    with mpmath.workdps(dps + 10):
        prod = mpmath.fprod(1 / mpmath.zeta(j) for j in range(lo, hi + 1))
        return Decimal(mpmath.nstr(prod, dps, strip_zeros=False))


def _assert_within_bound(data: dict, oracle: Decimal, tol: float) -> None:
    with localcontext() as ctx:
        ctx.prec = 400
        bound = Decimal(data["abs_error_bound"])
        assert bound <= Decimal(tol), (bound, tol)
        assert abs(Decimal(data["value"]) - oracle) <= bound, (data["value"], oracle, bound)


@pytest.mark.parametrize("d", [41, 42, 43, 100])
def test_limit_at_and_past_the_default_product_cutoff(capsys, d):
    # the default tolerance cuts the product at j = 42; d at or past it
    # must still take at least the factor zeta(d+1)
    code, out, err = _run(capsys, "limit", "--d", str(d))
    assert code == 0, err
    data = json.loads(out)
    assert str(d + 1) in data["terms"]["zeta_series_cutoffs"]
    assert data["terms"]["product_cutoff"] >= d + 1
    _assert_within_bound(data, _mp_inverse_zeta_product(d + 1, 40), 1e-12)


def test_limit_huge_codimension_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = _run(capsys, "limit", "--d", "1000000")
    assert code == 0
    assert time.perf_counter() - t0 < 1.0
    data = json.loads(out)
    assert Decimal(data["abs_error_bound"]) <= Decimal(1e-12)
    assert abs(Decimal(data["value"]) - 1) <= Decimal(data["abs_error_bound"])


def _cli_subprocess(argv: list[str], timeout: float,
                    extra_env: dict[str, str] | None = None) -> tuple[subprocess.CompletedProcess, float]:
    """Run the CLI in a fresh interpreter, with extra_env added to its
    environment, killed after timeout seconds."""
    env = {**os.environ, **(extra_env or {})}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "unimat.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)
    return proc, time.perf_counter() - t0


def test_density_tol_1e30_within_one_second():
    proc, elapsed = _cli_subprocess(["density", "--k", "1", "--n", "2", "--tol", "1e-30"], 1.0)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 1.0
    _assert_within_bound(json.loads(proc.stdout), _mp_inverse_zeta_product(2, 50, hi=2), 1e-30)


@pytest.mark.parametrize("argv", [["density", "--k", "1", "--n", str(10**400)],
                                  ["limit", "--d", str(10**400)]])
def test_density_and_limit_answer_at_400_digit_arguments(capsys, argv):
    # the zeta sweep once exited 2 with "int too large to convert to float"
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    data = json.loads(out)
    assert data["value"] == "1"
    assert Decimal(data["abs_error_bound"]) <= Decimal(1e-12)
    if argv[0] == "limit":
        # a plain JSON number, exact as Python's json reads it
        d = int(argv[2])
        assert data["terms"]["product_cutoff"] == d + 1


def test_density_cost_independent_of_k():
    argv = ["density", "--k", "1000000000", "--n", "1000000001"]
    proc, elapsed = _cli_subprocess(argv, 2.0)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.0
    data = json.loads(proc.stdout)
    assert data["terms"]["product_cutoff"] == 42
    _assert_within_bound(data, _mp_inverse_zeta_product(2, 40), 1e-12)


# Every tolerance the CLI accepts is answered in bounded time. 5e-324 is the
# smallest positive float; a smaller --tol parses to 0.0 and exits 2.
TINY_TOL_SECONDS = 10.0


@pytest.mark.parametrize("tol", ["1e-300", "5e-324"])
@pytest.mark.parametrize("command", ["density", "limit"])
def test_tiny_tolerance_answers_in_bounded_time(command, tol):
    if command == "density":
        argv, oracle = ["density", "--k", "1", "--n", "2"], _mp_inverse_zeta_product(2, 340, hi=2)
    else:
        argv, oracle = ["limit", "--d", "1"], _mp_inverse_zeta_product(2, 340)
    proc, elapsed = _cli_subprocess([*argv, "--tol", tol], TINY_TOL_SECONDS)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < TINY_TOL_SECONDS
    _assert_within_bound(json.loads(proc.stdout), oracle, float(tol))


def test_tolerance_below_float_range_exits_2(capsys):
    code, _, err = _run(capsys, "density", "--k", "1", "--n", "2", "--tol", "1e-400")
    assert code == 2
    assert "5e-324" in err


def test_local_command(capsys):
    code, out, _ = _run(capsys, "local", "--primes", "2,3", "--k", "1", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["density"] == "2/3"
    assert data["primes"] == ["2", "3"]


def test_local_rejects_composite(capsys):
    code, _, err = _run(capsys, "local", "--primes", "2,4", "--k", "1", "--n", "2")
    assert code == 2
    assert "prime" in err


def test_local_large_prime_answers_within_two_seconds():
    p = 10**18 + 3  # prime
    proc, elapsed = _cli_subprocess(["local", "--primes", str(p), "--k", "1", "--n", "2"], 2.0)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 2.0
    assert json.loads(proc.stdout)["density"] == f"{p * p - 1}/{p * p}"


def test_local_refuses_primes_past_the_primality_limit(capsys):
    code, _, err = _run(capsys, "local", "--primes", "3317044064679887385961981", "--k", "1", "--n", "2")
    assert code == 2
    assert "3317044064679887385961981" in err


def _dec_refusal(digits: int) -> str:
    return (
        f"error: an output entry has {digits} digits, past the limit of "
        f"{sys.get_int_max_str_digits()} digits for integer string conversion; raise the "
        "limit with the PYTHONINTMAXSTRDIGITS environment variable (0 removes it)\n"
    )


LOCAL_CAP_REFUSAL = (
    "error: the exact density's unreduced denominator, prod_p p^S with "
    "S = (n-k+1) + ... + n, is past the limit of 100000 digits that local builds; "
    "use smaller k, n or primes\n"
)


# the density's denominator is 2^(k(k+1)/2): 6,051 digits at k = 200, past
# the str limit, and 1,505,165,030 at k = 100000, past local's cap
@pytest.mark.parametrize("k", [200, 100000])
def test_local_refuses_past_the_str_digits_limit_within_two_seconds(k):
    proc, elapsed = _cli_subprocess(["local", "--primes", "2", "--k", str(k), "--n", str(k)], 2.0)
    assert proc.returncode == 2
    assert elapsed < 2.0
    assert proc.stderr == (_dec_refusal(6051) if k == 200 else LOCAL_CAP_REFUSAL)


def test_local_answers_just_below_the_str_digits_limit(capsys):
    # 2^(168*169/2) has 4,274 digits, 2^(169*170/2) has 4,325
    code, out, _ = _run(capsys, "local", "--primes", "2", "--k", "168", "--n", "168")
    assert code == 0
    assert json.loads(out)["density"].endswith("/" + str(2 ** (168 * 169 // 2)))
    code, _, err = _run(capsys, "local", "--primes", "2", "--k", "169", "--n", "169")
    assert code == 2
    assert "4325 digits" in err


SEVENTEEN_PRIMES = "2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59"


# unreduced denominators of 4,470, 4,449 and 4,896 digits; reduced 3,587,
# 3,575 and 3,960
@pytest.mark.parametrize("k,n", [(20, 20), (19, 20), (20, 21)])
def test_local_prints_when_only_the_reduced_fraction_fits(capsys, k, n):
    code, out, err = _run(capsys, "local", "--primes", SEVENTEEN_PRIMES, "--k", str(k), "--n", str(n))
    assert code == 0, err
    want = local_density(PrimeSet.from_iterable(map(int, SEVENTEEN_PRIMES.split(","))), k, n)
    assert json.loads(out)["density"] == f"{want.numerator}/{want.denominator}"


def test_local_refusal_names_the_reduced_digit_count(capsys):
    code, _, err = _run(capsys, "local", "--primes", SEVENTEEN_PRIMES, "--k", "25", "--n", "25")
    assert code == 2
    assert "an output entry has 5720 digits" in err


# both unreduced denominators are past local's cap, so neither density is built
@pytest.mark.parametrize("primes,k", [("2,3", "1000000000"), ("2,1000000007", "1")])
def test_local_refuses_huge_n_within_one_second(primes, k):
    argv = ["local", "--primes", primes, "--k", k, "--n", "1000000000"]
    proc, elapsed = _cli_subprocess(argv, 1.0)
    assert proc.returncode == 2
    assert elapsed < 1.0
    assert "past the limit" in proc.stderr


# 2^(815*816/2) has 100,099 digits; 2^(10^400) and 6^(10^400) are past any cap
@pytest.mark.parametrize("primes,k,n", [("2", 815, 815), ("2", 1, 10**400), ("2,3", 10**400, 10**400)])
def test_local_refuses_past_the_cap_within_one_second(primes, k, n):
    proc, elapsed = _cli_subprocess(["local", "--primes", primes, "--k", str(k), "--n", str(n)], 1.0)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert elapsed < 1.0
    assert proc.stderr == LOCAL_CAP_REFUSAL


# 2^(814*815/2) has 99,854 digits, just under local's cap: the density is
# built, and printed unless the str limit refuses it
@pytest.mark.parametrize("str_digits", [None, "0"])
def test_local_just_under_the_cap_answers_or_refuses_within_two_seconds(str_digits):
    extra_env = {} if str_digits is None else {"PYTHONINTMAXSTRDIGITS": str_digits}
    argv = ["local", "--primes", "2", "--k", "814", "--n", "814"]
    proc, elapsed = _cli_subprocess(argv, 2.0, extra_env)
    assert elapsed < 2.0
    if proc.returncode == 2:
        assert str_digits is None
        assert proc.stderr == _dec_refusal(99854)
        return
    assert proc.returncode == 0, proc.stderr
    den = json.loads(proc.stdout)["density"].split("/")[1]
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert den == str(2 ** (814 * 815 // 2))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_local_prints_the_reduced_fraction_or_names_its_digit_count(capsys):
    # local builds each density and prints it, or names the digit count of
    # its reduced denominator when that is past the str limit; the random
    # cases all print, the last two of 4,325 and 5,720 digits do not
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    r = random.Random(1311)
    primes = [p for p in range(2, 200) if is_prime(p)]
    cases = []
    for _ in range(250):
        s = PrimeSet(tuple(sorted(r.sample(primes, r.randint(1, 8)))))
        n = r.randint(1, 24)
        cases.append((s, r.randint(1, n), n))
    seventeen = PrimeSet.from_iterable(map(int, SEVENTEEN_PRIMES.split(",")))
    cases += [(seventeen, 20, 20), (PrimeSet((2,)), 169, 169), (seventeen, 25, 25)]
    refused = 0
    for s, k, n in cases:
        want = local_density(s, k, n)
        digits = Decimal(want.denominator).adjusted() + 1
        argv = ["local", "--primes", ",".join(map(str, s.primes)), "--k", str(k), "--n", str(n)]
        code, out, err = _run(capsys, *argv)
        if limit and digits > limit:
            assert (code, out) == (2, ""), argv
            assert err == _dec_refusal(digits), argv
            refused += 1
        else:
            assert code == 0, (argv, err)
            assert json.loads(out)["density"] == f"{want.numerator}/{want.denominator}", argv
    # at the default limit of 4,300 digits both fixed cases are refused
    assert limit != 4300 or refused == 2


def test_estimate_json_and_determinism(capsys):
    args = ("estimate", "--k", "1", "--n", "2", "--bound", "1000000",
            "--samples", "2000", "--seed", "42")
    code, out1, _ = _run(capsys, *args)
    assert code == 0
    code, out2, _ = _run(capsys, *args)
    assert out1 == out2
    data = json.loads(out1)
    assert data["bound"] == "1000000"
    assert data["samples"] == 2000
    assert int(data["hits"]) > 0
    assert isinstance(data["estimate"], float)
    assert data["seed"] == "42"


def test_estimate_shard_flag_leaves_hits_unchanged(capsys):
    base = ("estimate", "--k", "1", "--n", "2", "--bound", "1000000",
            "--samples", "2000", "--seed", "7")
    _, out1, _ = _run(capsys, *base, "--shards", "1")
    _, out8, _ = _run(capsys, *base, "--shards", "8")
    assert json.loads(out1)["hits"] == json.loads(out8)["hits"]


@pytest.mark.parametrize("command,box", [("estimate", "--bound"), ("sweep", "--bounds")])
def test_shards_past_the_samples_answer_in_bounded_time(capsys, command, box):
    # shards only partition the samples; every empty shard past them cost
    # one pass of a serial loop, so 10^8 shards ran for minutes
    argv = [command, "--k", "1", "--n", "2", box, "10", "--samples", "100", "--seed", "3"]
    proc, elapsed = _cli_subprocess([*argv, "--shards", "100000000"], 5.0)
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 5.0
    many = json.loads(proc.stdout)
    one = json.loads(_run(capsys, *argv)[1])
    assert many["shards"] == 100000000 and one["shards"] == 1
    if command == "sweep":
        many, one = many["rows"][0], one["rows"][0]
    assert many["hits"] == one["hits"] and many["estimate"] == one["estimate"]


@pytest.mark.parametrize("command,box", [("estimate", "--bound"), ("sweep", "--bounds")])
def test_samples_past_the_budget_exit_4(command, box):
    # samples * k * n entries are counted against --budget before anything
    # is drawn; 10^30 samples used to run until killed
    samples = 10**30
    argv = [command, "--k", "2", "--n", "3", box, "10", "--samples", str(samples)]
    proc, elapsed = _cli_subprocess(argv, 5.0)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert elapsed < 5.0
    need = samples * 6
    assert proc.stderr == (
        f"error: sampling needs samples*k*n = {samples}*2*3 = {need} entries but the "
        f"budget is 100000000; raise the budget to at least {need} to proceed\n"
    )
    proc, _ = _cli_subprocess([*argv[:-1], "100", "--budget", "599"], 5.0)
    assert proc.returncode == 4 and "at least 600 to proceed" in proc.stderr
    proc, _ = _cli_subprocess([*argv[:-1], "100", "--budget", "600"], 5.0)
    assert proc.returncode == 0, proc.stderr


def test_estimate_csv(capsys):
    code, out, _ = _run(capsys, "estimate", "--k", "1", "--n", "2", "--bound", "100",
                        "--samples", "500", "--seed", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "B,samples,hits,estimate,std_error,theory,z"
    assert len(lines) == 2
    assert lines[1].startswith("100,500,")


def test_estimate_k_exceeding_n_exits_2(capsys):
    code, _, err = _run(capsys, "estimate", "--k", "3", "--n", "2", "--bound", "10",
                        "--samples", "500")
    assert code == 2
    assert "k" in err


def test_exhaustive_command(capsys):
    code, out, _ = _run(capsys, "exhaustive", "--k", "1", "--n", "2", "--bound", "2")
    assert code == 0
    data = json.loads(out)
    assert data == {"k": 1, "n": 2, "bound": "2", "total": "16", "hits": "12",
                    "density": "3/4"}


def test_exhaustive_budget_exits_4(capsys):
    code, out, err = _run(capsys, "exhaustive", "--k", "2", "--n", "4", "--bound", "100")
    assert code == 4
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("k,power", [("3000", "2^9000000"), ("100000000", "2^10000000000000000")])
def test_exhaustive_refuses_enormous_boxes_within_two_seconds(k, power):
    # both exited 2 on the str-digit limit or ran past 10 s, building
    # (2B)^(kn) before comparing it with the budget
    argv = ["exhaustive", "--k", k, "--n", k, "--bound", "1", "--budget", "1"]
    proc, elapsed = _cli_subprocess(argv, 10.0)
    assert proc.returncode == 4
    assert elapsed < 2.0
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: enumeration needs (2B)^(kn) = {power} matrices but the budget is 1; "
        f"raise the budget to at least {power} to proceed\n"
    )


def test_exhaustive_refuses_bounds_past_the_str_digits_limit(capsys):
    # 2B has 4,301 digits: printing it in the refusal exited 2 instead
    bound = "9" * 4300
    code, out, err = _run(capsys, "exhaustive", "--k", "1", "--n", "1", "--bound", bound, "--budget", bound)
    assert (code, out) == (4, "")
    assert err == (
        "error: enumeration needs (2B)^(kn) = (about 2^14285)^1 matrices but the budget is "
        "(about 2^14284); raise the budget to at least (about 2^14285)^1 to proceed\n"
    )


@pytest.mark.parametrize("argv,hits", [
    # 2.7 s, 2.2 s and a hang when each gcd prefix was enumerated against a
    # period of the last entry; these are the largest boxes the budgets allow
    (["--k", "1", "--n", "2", "--bound", "5000"], "60795664"),
    (["--k", "1", "--n", "1", "--bound", "10000000", "--budget", "20000000"], "2"),
    (["--k", "1", "--n", "1", "--bound", "10" + "0" * 11, "--budget", "20" + "0" * 11], "2"),
], ids=["1x2-B5000", "1x1-B10000000", "1x1-B10^12"])
def test_exhaustive_row_boxes_answer_within_one_second(argv, hits):
    proc, elapsed = _cli_subprocess(["exhaustive", *argv], 10.0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["hits"] == hits
    assert elapsed < 1.0


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 4),
    n=st.integers(1, 4),
    bound=st.integers(0, 3),
    budget=st.integers(0, 2 * 10**5),
)
def test_exhaustive_fuzz(k, n, bound, budget):
    # every input exits 0, 2 or 4 without a traceback, and an answer equals
    # brute force; main() raising anything fails the test. k > n, bound 0 and
    # budget 0 are usage errors; the budget keeps answered boxes small enough
    # for the oracle.
    argv = ["exhaustive", "--k", str(k), "--n", str(n), "--bound", str(bound), "--budget", str(budget)]
    code, out, err = _in_process(argv)
    assert code in (0, 2, 4)
    assert "Traceback" not in err
    if code == 0:
        data = json.loads(out)
        assert int(data["hits"]) == brute_hits(k, n, bound)
        assert int(data["total"]) == (2 * bound) ** (k * n) <= budget
    else:
        assert out == ""
        assert err.startswith(("error: ", "usage: "))


def test_python_dash_m_unimat_runs_the_cli(capsys):
    argv = ["exhaustive", "--k", "2", "--n", "3", "--bound", "1"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "unimat", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert (0, proc.stdout) == _run(capsys, *argv)[:2]


def test_sweep_json(capsys):
    code, out, _ = _run(capsys, "sweep", "--k", "1", "--n", "2", "--bounds", "1,2,50",
                        "--samples", "400", "--seed", "5")
    assert code == 0
    data = json.loads(out)
    assert [r["bound"] for r in data["rows"]] == ["1", "2", "50"]
    assert data["rows"][0]["hits"] == "3"
    assert data["rows"][1]["hits"] == "12"


def test_sweep_csv(capsys):
    code, out, _ = _run(capsys, "sweep", "--k", "1", "--n", "2", "--bounds", "1,2,50",
                        "--samples", "400", "--seed", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "B,samples,hits,estimate,std_error,theory,z"
    assert len(lines) == 4
    assert lines[1].split(",")[:3] == ["1", "4", "3"]


def test_usage_errors_exit_2(capsys):
    assert _run(capsys, "bogus")[0] == 2
    assert _run(capsys, "density", "--k", "1")[0] == 2
    assert _run(capsys, "estimate", "--k", "1", "--n", "2", "--bound", "0",
                "--samples", "500")[0] == 2
    assert _run(capsys, "estimate", "--k", "1", "--n", "2", "--bound", "10",
                "--samples", "500", "--seed", "-1")[0] == 2
    assert _run(capsys)[0] == 2


def test_help_exits_0(capsys):
    assert _run(capsys, "--help")[0] == 0


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter reads integers of any length")
def test_analyze_entry_past_the_str_digits_limit_exits_2(tmp_path, capsys):
    # the entry is an integer, only too long to read: the message said it was
    # not an integer and echoed all of its digits
    limit = sys.get_int_max_str_digits()
    digits = limit + 700
    path = _write(tmp_path, "m.txt", f"1 2\n{'1' * digits} 3\n")
    code, out, err = _run(capsys, "analyze", path, "--mode", "unimodular")
    assert (code, out) == (2, "")
    assert err == (
        f"error: line 2, column 1: entry has {digits} digits, past the limit of {limit} "
        "digits for reading an integer; raise the limit with the PYTHONINTMAXSTRDIGITS "
        "environment variable (0 removes it), got '11111111111111111111'...\n"
    )


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter prints integers of any length")
def test_analyze_output_past_the_str_digits_limit_names_it(tmp_path, capsys):
    # entries of about a quarter of the limit (1,075 digits by default) are
    # read, but the 6 x 6 minors in R are about 6 times as long; the message
    # was Python's own, which names neither the length nor how to lift it
    limit = sys.get_int_max_str_digits()
    rnd = random.Random(14)
    digits = limit // 4
    rows = [[rnd.randrange(10 ** (digits - 1), 10**digits) for _ in range(14)] for _ in range(6)]
    path = _write(tmp_path, "m.txt", "6 14\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    code, out, err = _run(capsys, "analyze", path, "--mode", "snf")
    assert (code, out) == (2, "")
    m = re.fullmatch(
        r"error: an output entry has (\d+) digits, past the limit of (\d+) digits for "
        r"integer string conversion; raise the limit with the PYTHONINTMAXSTRDIGITS "
        r"environment variable \(0 removes it\)\n",
        err,
    )
    # the entry named is the first one past the limit in the order the
    # report holds them: S, the invariant factors, L, R
    res = snf(IntMatrix.from_rows(rows))
    entries = [*res.S.entries, *res.invariant_factors, *res.L.entries, *res.R.entries]
    sys.set_int_max_str_digits(0)
    try:
        first = next(d for d in (len(str(abs(e))) for e in entries) if d > limit)
    finally:
        sys.set_int_max_str_digits(limit)
    assert m and (int(m[1]), int(m[2])) == (first, limit), err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter prints integers of any length")
@pytest.mark.parametrize("mode", ["unimodular", "complete"])
def test_analyze_minor_gcd_past_the_str_digits_limit_names_it(tmp_path, capsys, mode):
    # the minor gcd 10^(2e) has 2e + 1 digits, past the limit; in complete
    # mode the refusal carries it
    e = sys.get_int_max_str_digits() // 2 + 1
    path = _write(tmp_path, "m.txt", f"2 3\n1{'0' * e} 0 0\n0 1{'0' * e} 0\n")
    code, out, err = _run(capsys, "analyze", path, "--mode", mode)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: an output entry has {2 * e + 1} digits, past the limit")


def _csv(values: list[int]) -> str:
    return ",".join(map(str, values))


# Bad values for any one option: junk, or out of range. None of them is
# large, since 10^30 samples or columns would run for hours.
_BAD = st.sampled_from(["", "x", "0", "-1", "-0", "1.5", "1e3", "0x10", "nan", "inf",
                        "1e-400", "--k", " 3", "3,2", "2,4", "0,1", "xml"])
_TOL = st.sampled_from(["1e-3", "1e-12", "1e-17"])
_SAMPLES = st.integers(100, 1000).map(str)
_SEED = st.integers(0, 10**6).map(str)
_SHARDS = st.integers(1, 4).map(str)
_FORMAT = st.sampled_from(["json", "csv"])
_VALID = {
    "density": {"k": st.integers(1, 4).map(str), "n": st.integers(1, 6).map(str), "tol": _TOL},
    "limit": {"d": st.integers(1, 10).map(str), "tol": _TOL},
    "local": {
        "primes": st.sets(st.sampled_from([2, 3, 5, 7, 11]), min_size=1).map(sorted).map(_csv),
        "k": st.integers(1, 3).map(str),
        "n": st.integers(1, 4).map(str),
    },
    "estimate": {
        "k": st.integers(1, 3).map(str), "n": st.integers(1, 4).map(str),
        "bound": st.integers(1, 10).map(str), "samples": _SAMPLES,
        "seed": _SEED, "shards": _SHARDS, "format": _FORMAT,
    },
    "sweep": {
        "k": st.integers(1, 2).map(str), "n": st.integers(1, 3).map(str),
        "bounds": st.sets(st.integers(1, 10), min_size=1, max_size=3).map(sorted).map(_csv),
        "samples": _SAMPLES, "seed": _SEED, "shards": _SHARDS, "format": _FORMAT,
    },
}


@st.composite
def _small_argv(draw) -> list[str]:
    """A valid argv for one of the subcommands above, or one with one
    option dropped or given a bad value."""
    command = draw(st.sampled_from(sorted(_VALID)))
    values = {name: draw(v) for name, v in _VALID[command].items()}
    broken = draw(st.sampled_from([None, *values]))
    if broken is not None:
        values[broken] = draw(st.none() | _BAD)
    return [command, *(t for name, v in values.items() if v is not None for t in (f"--{name}", v))]


@settings(max_examples=300, deadline=None)
@given(argv=_small_argv())
def test_small_subcommands_fuzz(argv):
    # every argv exits with a documented code and nothing escapes main();
    # the calls share main()'s one parser
    code, out, err = _in_process(argv)
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert out and err == ""
    else:
        assert out == ""
        assert err.startswith(("error: ", "usage: ")) and "Traceback" not in err


_BAD_ENTRY = st.sampled_from(["x", "1.5", "--", "0x1", "\u0663", "1_0", "+-1", "9" * 4400, "-" + "9" * 4400])


@st.composite
def _matrix_text(draw) -> str:
    """A k x n matrix file with small entries, or one with one token
    replaced by a bad one (junk, or more digits than str() reads by
    default), dropped, or added."""
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    toks = [str(k), str(n), *(str(draw(st.integers(-4, 4))) for _ in range(k * n))]
    where = draw(st.integers(0, len(toks)))
    how = draw(st.sampled_from(["keep", "replace", "drop", "add"]))
    if how == "replace" and where < len(toks):
        toks[where] = draw(_BAD_ENTRY)
    elif how == "drop" and where < len(toks):
        del toks[where]
    elif how == "add":
        toks.insert(where, draw(st.integers(-4, 4).map(str) | _BAD_ENTRY))
    return " ".join(toks[:2]) + "\n" + " ".join(toks[2:]) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=_matrix_text(), mode=st.sampled_from(["unimodular", "hnf", "snf", "complete"]))
def test_analyze_matrix_text_fuzz(text, mode):
    # every file exits 0, 2 or 3; an error names its token in a few dozen
    # characters however long the token is
    code, out, err = _in_process(["analyze", "-", "--mode", mode], stdin=text)
    assert code in (0, 2, 3)
    if code == 2:
        assert out == "" and err.startswith("error: ") and len(err) < 400
    else:
        assert err == "" and json.loads(out)


def _fresh(argv: list[str]) -> tuple[int, str, str]:
    """argv run alone by python -m unimat in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "unimat", *argv], env=env,
                          capture_output=True, text=True, timeout=30)
    return proc.returncode, proc.stdout, proc.stderr


def test_main_reuses_one_parser_with_the_output_of_fresh_runs(tmp_path, monkeypatch):
    # --help wraps to the terminal width: make it the same in both processes
    monkeypatch.setenv("COLUMNS", "80")
    uni = _write(tmp_path, "uni.txt", "2 3\n1 2 3\n4 5 7\n")
    non = _write(tmp_path, "non.txt", "1 2\n2 4\n")
    est = ["estimate", "--k", "2", "--n", "3", "--bound", "10", "--samples", "300"]
    sweep = ["sweep", "--k", "1", "--n", "2", "--bounds", "1,5,9", "--samples", "200"]
    # each option set by one call is left out of a later one, so a value
    # that survived into the next parse would show
    sequence = [
        [*est, "--seed", "5", "--shards", "3", "--format", "csv"],
        ["analyze", uni, "--mode", "unimodular"],
        ["density", "--k", "2", "--n", "3", "--tol", "1e-15"],
        [*est],
        ["density", "--k", "1"],
        ["analyze", uni, "--mode", "hnf"],
        ["--help"],
        ["density", "--k", "2", "--n", "3"],
        ["analyze", non, "--mode", "complete"],
        ["limit", "--d", "2", "--tol", "1e-5"],
        ["estimate", "--help"],
        ["limit", "--d", "2"],
        ["local", "--primes", "2,3,5", "--k", "2", "--n", "3"],
        ["exhaustive", "--k", "2", "--n", "4", "--bound", "3", "--budget", "1000"],
        ["analyze", uni, "--mode", "snf"],
        ["exhaustive", "--k", "2", "--n", "2", "--bound", "2"],
        ["bogus"],
        [*sweep, "--seed", "7", "--format", "csv"],
        ["analyze", uni, "--mode", "complete"],
        [*sweep],
        ["local", "--primes", "2,4", "--k", "1", "--n", "2"],
        [],
    ]
    builds = []
    real_build = cli.build_parser

    def counting_build():
        builds.append(1)
        return real_build()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting_build)
    try:
        runs = [_in_process(argv) for argv in sequence]
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1
    assert {code for code, _, _ in runs} == {0, 2, 3, 4}
    for argv, run in zip(sequence, runs):
        assert run == _fresh(argv), argv
    # callers of build_parser own what they get
    assert len({id(p) for p in (real_build(), real_build(), cli._parser())}) == 3


# Leaves of every kind a report can hold, and the edge cases of each:
# strings json must escape, ints past 64 bits, floats json spells apart.
_JSON_LEAF = (
    st.text()
    | st.sampled_from(["", "\"", "\\", "\x00\x1f\x7f", "\t\n\r\b\f", "\u00e9\u2028\U0001f600", "</"])
    | st.integers()
    | st.sampled_from([-1, 0, 10**100, -(10**100)])
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")])
    | st.booleans()
    | st.none()
)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(obj=_JSON)
def test_json_writer_matches_the_stdlib_encoder(obj):
    assert cli._json(obj, "\n") == json.dumps(obj, indent=2)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers() | st.sampled_from([10**40, -(10**40)]), min_size=n, max_size=n),
                       min_size=1, max_size=4)))
def test_json_writer_writes_a_matrix_as_rows_of_decimal_strings(rows):
    a = IntMatrix.from_rows(rows)
    as_lists = [[str(e) for e in row] for row in rows]
    assert cli._report({"H": a, "k": [a]}) == json.dumps({"H": as_lists, "k": [as_lists]}, indent=2) + "\n"


def _parsed(parse, argv: list[str]) -> tuple[object, str, str]:
    """vars() of parse(argv), or the code it exits with, and what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["--help"],
    ["-x"],
    ["bogus"],
    ["bogus", "--k", "1"],
    ["analyze"],
    ["analyze", "-h"],
    ["analyze", "m.txt", "--mo", "snf"],
    ["analyze", "m.txt", "--mode=hnf"],
    ["analyze", "m.txt", "--mode", "lll"],
    ["analyze", "m.txt", "extra.txt", "--mode", "snf"],
    ["analyze", "--", "m.txt", "--mode", "snf"],
    ["--", "density", "--k", "1", "--n", "2"],
    ["density", "--k", "1", "--n", "2", "--unknown"],
    ["density", "--k", "1", "--n", "2", "--he"],
    ["density", "--k", "1", "--k", "2", "--n", "3"],
    ["density", "--k", "x", "--n", "2"],
    ["density", "--k", "1"],
    ["limit", "--d", "1", "--tol", "1e-17"],
    ["local", "--pr", "2,3", "--k", "1", "--n", "2"],
    ["estimate", "--help"],
    ["estimate", "--k", "1", "--n", "2", "--bound", "9", "--samples", "5", "--format", "csv"],
    ["sweep", "--k", "1", "--n", "2", "--bounds", "1,5", "--samples", "5", "-h", "--unknown"],
    ["exhaustive", "--k", "2", "--n", "2", "--bound", "2", "--budget", "0"],
])
def test_main_parses_like_the_full_parser(argv, monkeypatch):
    # main parses the words after a subcommand's name with that
    # subcommand's parser alone; help texts, usage errors and the parsed
    # arguments must be those of the full parser
    monkeypatch.setenv("COLUMNS", "80")
    full = _parsed(cli.build_parser().parse_args, argv)
    assert _parsed(cli._parse, argv) == full
    if not isinstance(full[0], dict):
        assert _in_process(argv) == full
