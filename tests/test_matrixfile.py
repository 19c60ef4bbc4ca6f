"""Matrix text format: header, whitespace, comments, and positioned errors."""

import random
import sys

import pytest

from unimat.matrix import IntMatrix
from unimat.matrixfile import MatrixFileError, format_matrix, parse_matrix


def test_basic_parse():
    m = parse_matrix("2 3\n1 2 3\n4 5 6\n")
    assert m == IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])


def test_tabs_and_extra_spaces():
    m = parse_matrix("2\t2\n  1\t-2 \n 3   4\n")
    assert m == IntMatrix.from_rows([[1, -2], [3, 4]])


def test_comments_and_blank_lines():
    text = "# corpus fixture\n\n1 2\n\n# row follows\n4 6  # trailing note\n"
    assert parse_matrix(text) == IntMatrix.from_rows([[4, 6]])


def test_no_trailing_newline():
    assert parse_matrix("1 1\n7") == IntMatrix.from_rows([[7]])


def test_negative_and_huge_entries():
    big = 10**40
    m = parse_matrix(f"1 3\n-{big} 0 {big}\n")
    assert m.entries == (-big, 0, big)


def test_entries_may_wrap_lines():
    # the body is a token stream; row breaks are cosmetic
    assert parse_matrix("2 2\n1 2 3\n4\n") == IntMatrix.from_rows([[1, 2], [3, 4]])


def test_format_round_trip_seeded():
    r = random.Random(8)
    for _ in range(50):
        k, n = r.randint(1, 5), r.randint(1, 5)
        m = IntMatrix.from_rows(
            [[r.randint(-(10**12), 10**12) for _ in range(n)] for _ in range(k)]
        )
        assert parse_matrix(format_matrix(m)) == m


def test_format_exact_text():
    m = IntMatrix.from_rows([[1, -2], [30, 4]])
    assert format_matrix(m) == "2 2\n1 -2\n30 4\n"


def _err(text):
    with pytest.raises(MatrixFileError) as exc:
        parse_matrix(text)
    return exc.value


def test_empty_input():
    e = _err("")
    assert (e.line, e.column) == (1, 1)
    e = _err("# only comments\n\n")
    assert (e.line, e.column) == (1, 1)


def test_header_errors():
    e = _err("2\n1 2\n")
    assert e.line == 1
    e = _err("x 2\n1 2\n")
    assert (e.line, e.column) == (1, 1)
    e = _err("2 y\n1 2\n")
    assert (e.line, e.column) == (1, 3)
    e = _err("0 2\n")
    assert (e.line, e.column) == (1, 1)
    e = _err("1 -2\n")
    assert (e.line, e.column) == (1, 3)


def test_bad_entry_position():
    e = _err("2 2\n1 2\n3 4.5\n")
    assert (e.line, e.column) == (3, 3)
    assert "4.5" in str(e)


def test_too_few_entries():
    e = _err("2 2\n1 2 3\n")
    assert e.line == 2
    assert "expected 4 entries" in str(e)


def test_too_many_entries():
    e = _err("1 2\n1 2 3\n")
    assert (e.line, e.column) == (2, 5)
    assert "expected 2 entries" in str(e)


def test_error_message_carries_position():
    e = _err("1 2\n1 z\n")
    assert str(e).startswith("line 2, column 3:")


def test_long_tokens_are_quoted_by_their_first_20_characters():
    e = _err("1 2\n3 " + "z" * 5000 + "\n")
    assert str(e) == "line 2, column 3: entry must be an integer, got 'zzzzzzzzzzzzzzzzzzzz'..."


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this interpreter reads integers of any length")
@pytest.mark.parametrize("sign,sep", [("-", ""), ("+", "_")])
def test_signed_and_grouped_integers_past_the_str_digits_limit(sign, sep):
    # the digit count is the one int() checks: no sign, no underscores
    limit = sys.get_int_max_str_digits()
    text = sign + sep.join(["9"] * (limit + 1))
    e = _err(f"1 1\n{text}\n")
    assert f"entry has {limit + 1} digits, past the limit of {limit} digits" in str(e)
    assert str(e).endswith(f"got {text[:20]!r}...")
    # one digit fewer is read
    assert parse_matrix(f"1 1\n{text[:-2]}\n").entries == (int(text[:-2]),)
