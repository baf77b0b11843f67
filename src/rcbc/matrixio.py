"""Plain-text incidence matrices: an "m n" header, then m rows over {0, 1}.

Blank lines and lines starting with '#' are ignored.  Row i, character j is
1 exactly when server i holds file j.
"""

from __future__ import annotations

from .core import BatchCode

__all__ = ["MatrixFormatError", "parse_matrix", "render_matrix"]


class MatrixFormatError(ValueError):
    """Malformed matrix text; carries the offending line (and column) 1-based."""

    def __init__(self, message: str, line: int, column: int | None = None):
        at = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({at})")
        self.line = line
        self.column = column


def read_records(
    text: str, header: str, error: type[ValueError]
) -> tuple[int, int, int, list[tuple[int, str]]]:
    """The two header integers, the header's line and the (line, text) records.

    Blank and '#' lines are skipped.  `error(message, line)` reports a header
    that is missing (named by `header`, such as "m n") or not two integers.
    """
    lines = ((num, line.strip()) for num, line in enumerate(text.splitlines(), 1))
    meaningful = [(num, line) for num, line in lines if line and line[0] != "#"]
    if not meaningful:
        raise error(f"missing {header!r} header", 1)
    head_num, head = meaningful[0]
    parts = head.split()
    if len(parts) != 2 or not all(p.isdecimal() for p in parts):
        raise error(f"header must be two integers, got {head!r}", head_num)
    return int(parts[0]), int(parts[1]), head_num, meaningful[1:]


def parse_matrix(text: str) -> BatchCode:
    """Read a BatchCode from matrix text."""
    m, n, head_num, rows = read_records(text, "m n", MatrixFormatError)
    if m < 1:
        raise MatrixFormatError(f"need at least one server, got m={m}", head_num)
    if n == 0:
        # Zero-width rows would be blank lines, which are skipped, so any
        # row left is too long.
        if rows:
            num, row = rows[0]
            raise MatrixFormatError(f"row has {len(row)} characters, expected 0", num)
        return BatchCode(m, ())
    if len(rows) < m:
        last = rows[-1][0] if rows else head_num
        raise MatrixFormatError(f"expected {m} rows, found {len(rows)}", last)
    if len(rows) > m:
        raise MatrixFormatError("unexpected content after last row", rows[m][0])
    columns: list[set[int]] = []  # sized once a row has the header's length
    for i, (num, row) in enumerate(rows, start=1):
        if len(row) != n:
            raise MatrixFormatError(
                f"row has {len(row)} characters, expected {n}", num
            )
        columns = columns or [set() for _ in range(n)]
        for j, ch in enumerate(row, start=1):
            if ch == "1":
                columns[j - 1].add(i)
            elif ch != "0":
                raise MatrixFormatError(f"illegal character {ch!r}", num, j)
    return BatchCode(m, columns)


def render_matrix(code: BatchCode) -> str:
    """Matrix text for a BatchCode; parses back to an equal code."""
    lines = [f"{code.m} {code.n}"]
    colsets = [set(col) for col in code.columns]
    for i in range(1, code.m + 1):
        lines.append("".join("1" if i in col else "0" for col in colsets))
    if code.n == 0:
        lines = lines[:1]
    return "\n".join(lines) + "\n"
