"""Self-tests for the benchmark's checks, on hand-made outputs.

    python3 perfbench/selftest.py

Each case is an output with a known right verdict: correct outputs must
pass, corrupted ones (a wrong H, a hit count off by one, a value outside its
error bound, a run that does not repeat) must fail, and the documented
defects must be classed as known failures. run.py runs these before every
measurement and refuses to measure if any is misjudged.
"""

from __future__ import annotations

import json
import sys
from decimal import Decimal
from pathlib import Path

import checks
from checks import Outcome

REFS = json.loads(Path(__file__).with_name("refs.json").read_text(encoding="utf-8"))

# A = H @ U with H = [O | I_2] and U unimodular upper triangular.
_A = [[0, 1, 4], [0, 0, 1]]
_HNF = {"rows": 2, "cols": 3, "H": [["0", "1", "0"], ["0", "0", "1"]],
        "U": [["1", "2", "3"], ["0", "1", "4"], ["0", "0", "1"]], "det_U": "1", "trivial": True}
_OVER_LIMIT = ("error: Exceeds the limit (4300 digits) for integer string conversion; "
               "use sys.set_int_max_str_digits() to increase the limit\n")


def _json(payload: dict, code: int = 0) -> Outcome:
    return Outcome(code=code, stdout=json.dumps(payload, indent=2) + "\n")


def _estimate(hits: int, bound: int = 10**6, samples: int = 15000) -> Outcome:
    theory = float(REFS["density"]["1x2"])
    return _json({"k": 1, "n": 2, "bound": str(bound), "samples": samples, "hits": str(hits),
                  "estimate": hits / samples, "std_error": 0.0, "seed": "0", "shards": 2,
                  "theory_value": theory, "z_score": 0.0})


def _density(offset: str, bound: str = "1e-13") -> Outcome:
    value = Decimal(REFS["density"]["1x2"]) + Decimal(offset)
    return _json({"k": 1, "n": 2, "tol": 1e-12, "value": str(value), "abs_error_bound": bound})


def cases() -> list[tuple[str, str, Outcome, checks.Check, tuple[str, ...]]]:
    """(description, expected verdict prefix, outcome, check, known defects)."""
    hnf = checks.check_analyze("hnf", _A, 1)
    bad_h = json.loads(json.dumps(_HNF))
    bad_h["H"][0][1] = "2"
    theory = float(REFS["density"]["1x2"])
    ref_hits = REFS["estimate_default_seed"]["1x2"]
    est = checks.check_estimate(1, 2, 10**6, 15000, 0, theory, ref_hits)
    dens = checks.check_density_value(REFS["density"]["1x2"], 1e-12)
    huge = checks.check_estimate(1, 2, 2**70, 15000, 0, theory, None)
    lim42 = checks.check_density_value(REFS["limit"]["42"], 1e-12)
    census = checks.check_exhaustive(1, 2, 2, checks.coprime_pairs(2))
    return [
        ("correct hnf output", "ok", _json(_HNF), hnf, ("over_limit",)),
        ("corrupted H", "fail", _json(bad_h), hnf, ("over_limit",)),
        ("completion refused for a unimodular input", "fail",
         _json({"error": "not_unimodular", "minor_gcd": "2", "message": ""}, 3),
         checks.check_analyze("complete", _A, 1), ("over_limit",)),
        ("reference hit count", "ok", _estimate(ref_hits), est, ()),
        ("hit count off by one", "fail", _estimate(ref_hits + 1), est, ()),
        ("density within its bound", "ok", _density("0"), dens, ()),
        ("density outside its bound", "fail", _density("2e-13"), dens, ()),
        ("error bound above tol", "fail", _density("0", "2e-12"), dens, ()),
        ("1 x 2 census from the README", "ok",
         _json({"total": "16", "hits": "12", "density": "3/4"}), census, ()),
        ("probe: limit --d 42 raises ZeroDivisionError", "known:limit_zero_division",
         Outcome(exc=ZeroDivisionError("float division by zero")), lim42, ("limit_zero_division",)),
        ("probe: limit --d 42 gives a wrong value", "fail", _density("0.5"), lim42, ("limit_zero_division",)),
        ("probe: bound 2^70 gives 0 hits", "known:huge_bound_zero_hits", _estimate(0, 2**70), huge,
         ("huge_bound_zero_hits",)),
        ("probe: density --tol 1e-30 misses its deadline", "known:zeta_hang",
         Outcome(timed_out=True), dens, ("zeta_hang",)),
        ("probe: analyze output past the str limit", "known:over_limit",
         Outcome(code=2, stderr=_OVER_LIMIT), hnf, ("over_limit",)),
        ("exit 2 for another reason", "fail", Outcome(code=2, stderr="error: bad input\n"), hnf,
         ("over_limit",)),
        ("undocumented exit code", "fail", Outcome(code=1), hnf, ()),
    ]


def run_all() -> list[str]:
    """Descriptions of the cases whose verdict is wrong; empty when all hold."""
    wrong = []
    for what, want, outcome, check, known in cases():
        got = checks.classify(outcome, check, known)
        if not (got == want if ":" in want else got.split(":", 1)[0] == want):
            wrong.append(f"{what}: got {got!r}, want {want!r}")
    from client import Ledger  # imports unimat, so only once the path is set
    from workloads import Request

    ledger = Ledger()
    req = Request(checks.check_analyze("hnf", _A, 1), ["analyze", "-", "--mode", "hnf"])
    ledger.record(0, req, _json(_HNF))
    if ledger.record(0, req, _json({**_HNF, "trivial": False})) == "ok":
        wrong.append("a repeated request with different output passed")
    return wrong


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    problems = run_all()
    for p in problems:
        print(p)
    print(f"{len(cases()) + 1 - len(problems)} of {len(cases()) + 1} self-tests hold")
    sys.exit(1 if problems else 0)
