"""Command line interface.

Reports go to stdout as JSON (or CSV where offered); diagnostics go to
stderr. Integers carrying exact arithmetic content (entries, gcds,
determinants, counts, bounds, seeds) are encoded as decimal strings so no
consumer ever rounds them through floating point. Shape and configuration
fields (k, n, d, shards, samples) and the zeta cutoffs of density and limit
(terms.zeta_series_cutoffs, terms.product_cutoff) stay plain JSON numbers:
exact for Python's json, but rounded past 2^53 by readers that hold
numbers as doubles, as limit's product cutoff is at d = 10^400. Exact
rationals are "numerator/denominator" strings, high-precision decimals are
decimal strings. Identical invocations produce byte-identical output.

Exit codes: 0 success, 2 usage or input errors, 3 completion refused
because the matrix is not unimodular, 4 enumeration or sampling budget
exceeded.

main() may be called any number of times in one process; every call
parses with the one parser built on the first. A call whose first word
names a subcommand parses the words after it with that subcommand's parser
alone, as the full parser would; an empty argv, any other first word, or
words the subcommand leaves over go through the full parser, which writes
every help text and usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .density import PrimeSet, density_exact, density_limit, local_density
from .experiments import (
    DEFAULT_BUDGET,
    BoxSpec,
    BudgetError,
    EstimateReport,
    convergence_sweep,
    estimate_density,
    exhaustive_density,
)
from .matrix import IntMatrix, full_rank_minor_gcd
from .matrixfile import parse_matrix
from .normal_forms import (
    NotUnimodularError,
    _is_oi_block,
    complete_to_gl,
    hnf,
    is_trivial_hnf,  # not called here; kept as a boundary perfbench traces
    snf,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_UNIMODULAR = 3
EXIT_BUDGET = 4


def _dec(e: int) -> str:
    """str(e), or a ValueError that names e's digit count, the limit str()
    has on it, and how to lift the limit."""
    try:
        return str(e)
    except ValueError:
        e, limit = abs(e), sys.get_int_max_str_digits()
        # from the bit length, then exact: 10^(digits - 1) <= e < 10^digits
        digits = int((e.bit_length() - 1) * math.log10(2)) + 1
        while 10 ** (digits - 1) > e:
            digits -= 1
        while 10**digits <= e:
            digits += 1
        raise ValueError(
            f"an output entry has {digits} digits, past the limit of {limit} digits for "
            f"integer string conversion; raise the limit with the PYTHONINTMAXSTRDIGITS "
            f"environment variable (0 removes it)"
        ) from None


def _json(obj: Any, nl: str) -> str:
    """obj as json.dumps(obj, indent=2) writes it, each line after its
    first starting with nl, a newline and the current indent. An IntMatrix
    is written as its rows of decimal strings, and its first entry past the
    int-to-str limit raises _dec's error. Types are matched exactly, as a
    report holds no subclasses. (With indent, json.dumps runs in pure
    Python.)"""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return repr(obj)
    inner = nl + "  "
    if t is dict:
        items = [_quote(k) + ": " + _json(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if t is list:
        items = [_json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if items else "[]"
    if t is IntMatrix:
        e, c, cell = obj.entries, obj.cols, inner + "  "
        try:
            rows = [('",' + cell + '"').join(map(str, e[i : i + c])) for i in range(0, len(e), c)]
        except ValueError:
            for x in e:
                _dec(x)
            raise
        return "[" + inner + ("," + inner).join(f'[{cell}"{r}"{inner}]' for r in rows) + nl + "]"
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if t is float:
        if math.isfinite(obj):
            return repr(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _report(payload: dict[str, Any]) -> str:
    """json.dumps(payload, indent=2) + "\\n", with IntMatrix values as
    _json writes them."""
    return _json(payload, "\n") + "\n"


def _frac(q: Fraction) -> str:
    """q as "numerator/denominator"; an integer past the int-to-str limit
    raises _dec's error, which for a fraction below 1 names the denominator."""
    den = _dec(q.denominator)
    return f"{_dec(q.numerator)}/{den}"


def _density_json(rep) -> dict[str, Any]:
    terms = {
        "zeta_series_cutoffs": {str(j): m for j, m in rep.terms["zeta_series_cutoffs"].items()},
        "product_cutoff": rep.terms["product_cutoff"],
    }
    return {"value": str(rep.value), "abs_error_bound": str(rep.abs_error_bound), "terms": terms}


def _estimate_json(rep: EstimateReport) -> dict[str, Any]:
    return {
        "k": rep.spec.k,
        "n": rep.spec.n,
        "bound": str(rep.spec.bound),
        "samples": rep.samples,
        "hits": str(rep.hits),
        "estimate": rep.estimate,
        "std_error": rep.std_error,
        "seed": str(rep.seed),
        "shards": rep.shards,
        "theory_value": rep.theory_value,
        "z_score": rep.z_score,
    }


_SWEEP_COLUMNS = ("B", "samples", "hits", "estimate", "std_error", "theory", "z")


def _estimate_csv_row(rep: EstimateReport) -> list[str]:
    return [
        str(rep.spec.bound),
        str(rep.samples),
        str(rep.hits),
        repr(rep.estimate),
        repr(rep.std_error),
        repr(rep.theory_value),
        "" if rep.z_score is None else repr(rep.z_score),
    ]


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_SWEEP_COLUMNS)
    w.writerows(rows)
    return buf.getvalue()


def _read_matrix(path: str) -> IntMatrix:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_matrix(text)


def _cmd_analyze(args: argparse.Namespace) -> tuple[str, int]:
    a = _read_matrix(args.file)
    payload: dict[str, Any] = {"rows": a.rows, "cols": a.cols}
    if args.mode == "unimodular":
        g = full_rank_minor_gcd(a)
        payload["minor_gcd"] = _dec(g)
        payload["unimodular"] = g == 1
    elif args.mode == "hnf":
        res = hnf(a)
        payload["H"] = res.H
        payload["U"] = res.U
        payload["det_U"] = str(res.detU)
        payload["trivial"] = _is_oi_block(res.H.to_rows())  # H is canonical: no second hnf
    elif args.mode == "snf":
        res = snf(a)
        payload["S"] = res.S
        # the factors are S's nonzero entries in order, so converting them
        # first names the same entry past the limit that S's would
        payload["invariant_factors"] = [_dec(d) for d in res.invariant_factors]
        payload["L"] = res.L
        payload["R"] = res.R
    else:
        payload["completion"] = complete_to_gl(a)
    return _report(payload), EXIT_OK


def _cmd_density(args: argparse.Namespace) -> tuple[str, int]:
    rep = density_exact(args.k, args.n, args.tol)
    payload = {"k": args.k, "n": args.n, "tol": args.tol, **_density_json(rep)}
    return _report(payload), EXIT_OK


def _cmd_limit(args: argparse.Namespace) -> tuple[str, int]:
    rep = density_limit(args.d, args.tol)
    payload = {"d": args.d, "tol": args.tol, **_density_json(rep)}
    return _report(payload), EXIT_OK


# local builds its density only while the unreduced denominator has at most
# this many digits: about 0.3 s to build there, and as long to print, on a
# 2-core VM
_LOCAL_DIGITS = 100_000


def _cmd_local(args: argparse.Namespace) -> tuple[str, int]:
    s = PrimeSet.from_iterable(args.primes)
    k, n = args.k, args.n
    # The unreduced denominator is prod_p p^S, S = (n-k+1) + ... + n. S is
    # clamped before the float product, so a huge n cannot overflow it, and
    # as log10(p) >= 0.3 the clamp keeps the comparison's result.
    total = min(k * (2 * n - k + 1) // 2, 4 * _LOCAL_DIGITS)
    if k <= n and total * sum(map(math.log10, s.primes)) >= _LOCAL_DIGITS:
        raise ValueError(
            f"the exact density's unreduced denominator, prod_p p^S with "
            f"S = (n-k+1) + ... + n, is past the limit of {_LOCAL_DIGITS} digits "
            f"that local builds; use smaller k, n or primes"
        )
    q = local_density(s, k, n)
    payload = {
        "primes": [str(p) for p in s.primes],
        "k": k,
        "n": n,
        "density": _frac(q),
    }
    return _report(payload), EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> tuple[str, int]:
    spec = BoxSpec(args.k, args.n, args.bound)
    rep = estimate_density(spec, args.samples, args.seed, args.shards, args.budget)
    if args.format == "csv":
        return _csv_text([_estimate_csv_row(rep)]), EXIT_OK
    return _report(_estimate_json(rep)), EXIT_OK


def _cmd_exhaustive(args: argparse.Namespace) -> tuple[str, int]:
    spec = BoxSpec(args.k, args.n, args.bound)
    rep = exhaustive_density(spec, args.budget)
    payload = {
        "k": spec.k,
        "n": spec.n,
        "bound": str(spec.bound),
        "total": str(rep.total),
        "hits": str(rep.hits),
        "density": _frac(rep.density),
    }
    return _report(payload), EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> tuple[str, int]:
    reps = convergence_sweep(
        args.k, args.n, tuple(args.bounds), args.samples, args.seed, args.shards, args.budget
    )
    if args.format == "csv":
        return _csv_text([_estimate_csv_row(r) for r in reps]), EXIT_OK
    payload = {
        "k": args.k,
        "n": args.n,
        "samples": args.samples,
        "seed": str(args.seed),
        "shards": args.shards,
        "rows": [_estimate_json(r) for r in reps],
    }
    return _report(payload), EXIT_OK


def _positive_int(text: str) -> int:
    v = int(text, 10)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return v


def _nonneg_int(text: str) -> int:
    v = int(text, 10)
    if v < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return v


def _positive_float(text: str) -> float:
    v = float(text)
    if not 0 < v < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, at least 5e-324 (the smallest "
            f"positive float; smaller values round to 0), got {text}"
        )
    return v


def _int_list(text: str) -> list[int]:
    try:
        return [int(t, 10) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _add_budget(p: argparse.ArgumentParser, text: str) -> None:
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET, help=text)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the unimat command line, owned by the caller."""
    parser = argparse.ArgumentParser(
        prog="unimat",
        description="Exact unimodularity analysis and density experiments "
        "for rectangular integer matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a matrix read from a file ('-' for stdin)")
    p.add_argument("file", help="matrix file: 'k n' header then k rows of n integers")
    p.add_argument(
        "--mode",
        required=True,
        choices=("unimodular", "hnf", "snf", "complete"),
        help="unimodular: gcd of full-rank minors; hnf: column-style Hermite "
        "form with transform; snf: Smith form with transforms; complete: "
        "extend the rows to a GL_n(Z) matrix",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("density", help="density of unimodular k x n integer matrices")
    p.add_argument("--k", required=True, type=_positive_int)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--tol", type=_positive_float, default=1e-12, help="absolute error tolerance")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("limit", help="codimension-d limit of the densities as n grows")
    p.add_argument("--d", required=True, type=_positive_int, help="codimension n - k")
    p.add_argument("--tol", type=_positive_float, default=1e-12, help="absolute error tolerance")
    p.set_defaults(func=_cmd_limit)

    p = sub.add_parser("local", help="exact density of full rank mod every prime in a set")
    p.add_argument("--primes", required=True, type=_int_list, help="comma-separated primes")
    p.add_argument("--k", required=True, type=_positive_int)
    p.add_argument("--n", required=True, type=_positive_int)
    p.set_defaults(func=_cmd_local)

    p = sub.add_parser("estimate", help="seeded Monte Carlo estimate over a box")
    p.add_argument("--k", required=True, type=_positive_int)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--bound", required=True, type=_positive_int, help="entries lie in [-B, B)")
    p.add_argument("--samples", required=True, type=_positive_int)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--shards", type=_positive_int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_budget(p, "refuse to draw more entries (samples * k * n) than this")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("exhaustive", help="exact density over a box, counting every matrix")
    p.add_argument("--k", required=True, type=_positive_int)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--bound", required=True, type=_positive_int, help="entries lie in [-B, B)")
    _add_budget(p, "refuse boxes with more matrices than this")
    p.set_defaults(func=_cmd_exhaustive)

    p = sub.add_parser("sweep", help="estimates across growing bounds, one derived seed each")
    p.add_argument("--k", required=True, type=_positive_int)
    p.add_argument("--n", required=True, type=_positive_int)
    p.add_argument("--bounds", required=True, type=_int_list, help="comma-separated bounds")
    p.add_argument("--samples", required=True, type=_positive_int)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    p.add_argument("--shards", type=_positive_int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_budget(p, "refuse to draw more entries (samples * k * n) per bound than this")
    p.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() shares across calls, built on first use.

    Sharing is safe because parse_args keeps no state between calls: each
    call fills a new Namespace and every default is immutable.
    """
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """_parser().parse_args(argv), with the words after a subcommand's name
    parsed by that subcommand's parser alone, as the full parser would hand
    them on. An argv that names no subcommand, or whose subcommand leaves
    words over, goes through the full parser."""
    parser = _parser()
    if argv:
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        sub = commands.choices.get(argv[0])
        if sub is not None:
            args, rest = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
            if not rest:
                return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        out, code = args.func(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotUnimodularError as exc:
        try:
            gcd = _dec(exc.minor_gcd)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_USAGE
        payload = {"error": "not_unimodular", "minor_gcd": gcd, "message": str(exc)}
        sys.stdout.write(_report(payload))
        return EXIT_NOT_UNIMODULAR
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
