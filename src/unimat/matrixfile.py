"""Plain-text matrix files.

Format: a header line "k n", then k rows of n integers separated by
whitespace. Anything after a '#' is a comment; blank lines (or lines that
are blank after comment stripping) are skipped. Parse errors carry
1-based line and column positions.
"""

from __future__ import annotations

import re
import sys

from .matrix import IntMatrix

_TOKEN = re.compile(r"\S+")
_SHOWN = 20  # leading characters of a bad token quoted in its error


class MatrixFileError(ValueError):
    """Malformed matrix text; line and column are 1-based."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _tokenize(text: str) -> list[tuple[int, int, str]]:
    """(line, column, token) triples, comments and blanks removed."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        for m in _TOKEN.finditer(body):
            out.append((lineno, m.start() + 1, m.group()))
    return out


def _as_int(tok: tuple[int, int, str], what: str) -> int:
    line, col, text = tok
    try:
        return int(text, 10)
    except ValueError:
        pass
    shown = repr(text) if len(text) <= _SHOWN else repr(text[:_SHOWN]) + "..."
    digits = (text[1:] if text[:1] in "+-" else text).replace("_", "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits.isdecimal() and limit and len(digits) > limit:
        raise MatrixFileError(
            f"{what} has {len(digits)} digits, past the limit of {limit} digits for "
            f"reading an integer; raise the limit with the PYTHONINTMAXSTRDIGITS "
            f"environment variable (0 removes it), got {shown}",
            line, col,
        )
    raise MatrixFileError(f"{what} must be an integer, got {shown}", line, col)


def parse_matrix(text: str) -> IntMatrix:
    """Parse matrix text; raises MatrixFileError with position on bad input."""
    toks = _tokenize(text)
    if not toks:
        raise MatrixFileError("empty input, expected a 'k n' header", 1, 1)
    if len(toks) < 2 or toks[1][0] != toks[0][0]:
        line, col, text_ = toks[0]
        raise MatrixFileError(
            "header must be two integers 'k n' on one line", line, col + len(text_)
        )
    k = _as_int(toks[0], "row count")
    n = _as_int(toks[1], "column count")
    for value, tok, what in ((k, toks[0], "row count"), (n, toks[1], "column count")):
        if value < 1:
            raise MatrixFileError(f"{what} must be positive, got {value}", tok[0], tok[1])
    body = toks[2:]
    if len(body) < k * n:
        line, col, text_ = toks[-1]
        raise MatrixFileError(
            f"expected {k * n} entries for a {k} x {n} matrix, got {len(body)}",
            line, col + len(text_),
        )
    if len(body) > k * n:
        line, col, _ = body[k * n]
        raise MatrixFileError(
            f"expected {k * n} entries for a {k} x {n} matrix, got {len(body)}", line, col
        )
    entries = tuple(_as_int(t, "entry") for t in body)
    return IntMatrix(k, n, entries)


def format_matrix(a: IntMatrix) -> str:
    """Render in the same format parse_matrix reads (round-trips exactly)."""
    lines = [f"{a.rows} {a.cols}"]
    for i in range(a.rows):
        lines.append(" ".join(str(e) for e in a.row(i)))
    return "\n".join(lines) + "\n"
