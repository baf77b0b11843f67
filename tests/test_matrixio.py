"""Matrix text parsing and rendering."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from rcbc import BatchCode, MatrixFormatError, parse_matrix, render_matrix
from helpers import MANY_FILES_TEXT, TALL_TEXT, random_matrix, tall_code


class TestParse:
    def test_reference_matrix(self):
        code = tall_code()
        assert code.m == 6
        assert code.columns == (
            (1, 2, 3, 4),
            (2, 3, 4, 5),
            (3, 4, 5, 6),
            (1, 4, 5, 6),
        )

    def test_comments_and_blanks_skipped(self):
        text = "# layout\n\n  2 2\n# rows follow\n10\n\n01\n"
        assert parse_matrix(text).columns == ((1,), (2,))

    def test_no_trailing_newline_needed(self):
        assert parse_matrix("1 1\n1").columns == ((1,),)

    def test_zero_columns(self):
        code = parse_matrix("3 0\n")
        assert code.m == 3
        assert code.columns == ()

    def test_zero_columns_rejects_rows(self):
        with pytest.raises(MatrixFormatError, match="3 characters, expected 0") as info:
            parse_matrix("3 0\n101\n110\n")
        assert info.value.line == 2

    def test_header_needs_decimal_digits(self):
        # "²" is a digit to str.isdigit but not a decimal int() accepts.
        with pytest.raises(MatrixFormatError, match="two integers") as info:
            parse_matrix("² 2\n")
        assert info.value.line == 1

    def test_empty_input(self):
        with pytest.raises(MatrixFormatError, match="header"):
            parse_matrix("")
        with pytest.raises(MatrixFormatError, match="header"):
            parse_matrix("# only a comment\n\n")

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError, match="two integers"):
            parse_matrix("3\n")
        with pytest.raises(MatrixFormatError, match="two integers"):
            parse_matrix("3 x\n")
        with pytest.raises(MatrixFormatError, match="two integers"):
            parse_matrix("-1 2\n")

    def test_zero_servers(self):
        with pytest.raises(MatrixFormatError, match="at least one server"):
            parse_matrix("0 2\n")

    def test_too_few_rows(self):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("3 2\n10\n01\n")
        assert "expected 3 rows" in str(info.value)
        assert info.value.line == 3

    def test_too_many_rows(self):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("2 2\n10\n01\n11\n")
        assert "after last row" in str(info.value)
        assert info.value.line == 4

    def test_row_width_mismatch(self):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("2 3\n101\n01\n")
        assert "expected 3" in str(info.value)
        assert info.value.line == 3

    def test_short_row_allocates_nothing_for_the_header_width(self):
        tracemalloc.start()
        try:
            with pytest.raises(
                MatrixFormatError,
                match=r"^row has 1 characters, expected 200000 \(line 2\)$",
            ):
                parse_matrix("1 200000\n0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_illegal_character_pinpointed(self):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("# a\n2 3\n101\n0x1\n")
        assert info.value.line == 4
        assert info.value.column == 2
        assert "line 4, column 2" in str(info.value)

    def test_line_numbers_count_skipped_lines(self):
        with pytest.raises(MatrixFormatError) as info:
            parse_matrix("\n\n# note\n2 2\n\n1x\n01\n")
        assert info.value.line == 6


class TestRender:
    def test_reference_matrices_round_trip_to_same_text(self):
        for text in (TALL_TEXT, MANY_FILES_TEXT):
            assert render_matrix(parse_matrix(text)) == text

    def test_zero_columns_renders_header_only(self):
        assert render_matrix(BatchCode(3, ())) == "3 0\n"
        assert parse_matrix(render_matrix(BatchCode(3, ()))).m == 3

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            m, n = rng.randint(1, 7), rng.randint(0, 7)
            code = random_matrix(rng, m, n)
            again = parse_matrix(render_matrix(code))
            assert again == code

    def test_empty_columns_render_as_zeros(self):
        code = BatchCode(2, [(), (1, 2)])
        assert render_matrix(code) == "2 2\n01\n01\n"
