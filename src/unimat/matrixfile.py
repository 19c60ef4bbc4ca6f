"""Plain-text matrix files.

Format: a header line "k n", then k rows of n integers separated by
whitespace. Anything after a '#' is a comment; blank lines (or lines that
are blank after comment stripping) are skipped. Parse errors carry
1-based line and column positions.
"""

from __future__ import annotations

import re
import sys
from itertools import chain

from .matrix import IntMatrix

_TOKEN = re.compile(r"\S+")
_SHOWN = 20  # leading characters of a bad token quoted in its error


class MatrixFileError(ValueError):
    """Malformed matrix text; line and column are 1-based."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


def _where(text: str, words: list[list[str]], t: int) -> tuple[int, int, str]:
    """(line, column, token) of token t, words being the tokens of each
    line. Only an error wants a column, so it comes from scanning that one
    line again."""
    for lineno, line in enumerate(words, start=1):
        if t < len(line):
            body = text.splitlines()[lineno - 1].split("#", 1)[0]
            m = list(_TOKEN.finditer(body))[t]
            return lineno, m.start() + 1, m.group()
        t -= len(line)
    raise IndexError(t)


def _int(tok: str) -> int | None:
    try:
        return int(tok)
    except ValueError:
        return None


def _int_error(tok: tuple[int, int, str], what: str) -> MatrixFileError:
    line, col, text = tok
    shown = repr(text) if len(text) <= _SHOWN else repr(text[:_SHOWN]) + "..."
    digits = (text[1:] if text[:1] in "+-" else text).replace("_", "")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits.isdecimal() and limit and len(digits) > limit:
        return MatrixFileError(
            f"{what} has {len(digits)} digits, past the limit of {limit} digits for "
            f"reading an integer; raise the limit with the PYTHONINTMAXSTRDIGITS "
            f"environment variable (0 removes it), got {shown}",
            line, col,
        )
    return MatrixFileError(f"{what} must be an integer, got {shown}", line, col)


def parse_matrix(text: str) -> IntMatrix:
    """Parse matrix text; raises MatrixFileError with position on bad input.

    Each line is split on whitespace after its comment is stripped; a
    token's column is found only for an error."""
    words = [line.split("#", 1)[0].split() for line in text.splitlines()]
    toks = list(chain.from_iterable(words))
    if not toks:
        raise MatrixFileError("empty input, expected a 'k n' header", 1, 1)
    if len(next(filter(None, words))) < 2:
        line, col, text_ = _where(text, words, 0)
        raise MatrixFileError(
            "header must be two integers 'k n' on one line", line, col + len(text_)
        )
    whats = ("row count", "column count")
    size = [_int(toks[0]), _int(toks[1])]
    for t, (value, what) in enumerate(zip(size, whats)):
        if value is None:
            raise _int_error(_where(text, words, t), what)
    for t, (value, what) in enumerate(zip(size, whats)):
        if value < 1:
            line, col, _ = _where(text, words, t)
            raise MatrixFileError(f"{what} must be positive, got {value}", line, col)
    k, n = size
    body = toks[2:]
    if len(body) < k * n:
        line, col, text_ = _where(text, words, len(toks) - 1)
        raise MatrixFileError(
            f"expected {k * n} entries for a {k} x {n} matrix, got {len(body)}",
            line, col + len(text_),
        )
    if len(body) > k * n:
        line, col, _ = _where(text, words, 2 + k * n)
        raise MatrixFileError(
            f"expected {k * n} entries for a {k} x {n} matrix, got {len(body)}", line, col
        )
    try:
        entries = tuple(map(int, body))
    except ValueError:
        entries = None
    if entries is None:
        t = next(t for t, tok in enumerate(body, start=2) if _int(tok) is None)
        raise _int_error(_where(text, words, t), "entry")
    return IntMatrix(k, n, entries)


def format_matrix(a: IntMatrix) -> str:
    """Render in the same format parse_matrix reads (round-trips exactly)."""
    lines = [f"{a.rows} {a.cols}"]
    for i in range(a.rows):
        lines.append(" ".join(str(e) for e in a.row(i)))
    return "\n".join(lines) + "\n"
