"""Data model and verification for batch placements with server redundancy.

A placement stores n files across m servers; column j of the m x n incidence
matrix is the set of servers holding a copy of file j.  The placement is a
code for batch size k and redundancy r when every demand of at most k files
can be served by every set of m - r servers, at most one file per server.

`verify` offers three equivalent strategies for that property and returns a
small, independently checkable witness on failure.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations
from operator import attrgetter, index
from typing import Iterable, Literal

__all__ = [
    "BatchCode",
    "CodeParams",
    "ColumnUnionWitness",
    "ParameterError",
    "RowContainmentWitness",
    "ServiceWitness",
    "StrategyDisagreement",
    "VerifyReport",
    "canonicalize",
    "cross_check",
    "validate_params",
    "verify",
    "weight",
]

Strategy = Literal["auto", "definitional", "column-union", "row-containment"]

STRATEGIES = ("definitional", "column-union", "row-containment")


class ParameterError(ValueError):
    """No code exists for the given (n, k, m, r)."""


class _Value:
    """Immutable record that compares, hashes and prints by its annotated fields."""

    def __init_subclass__(cls) -> None:
        cls._key = attrgetter(*cls.__annotations__)  # its __init__ fills __dict__

    def __eq__(self, other: object) -> bool:
        same = type(other) is type(self)
        return self._key(self) == other._key(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__annotations__)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class CodeParams(_Value):
    """Problem parameters: n files, batch size k, m servers, redundancy r.

    One file per server is taken when serving a batch.  A code exists
    exactly when r < m and k <= min(n, m - r).
    """

    n: int
    k: int
    m: int
    r: int

    def __init__(self, n: int, k: int, m: int, r: int) -> None:
        n, k, m, r = map(index, (n, k, m, r))  # TypeError unless integers
        if n < 0 or k < 1 or m < 1 or r < 0:
            raise ValueError(f"nonsensical parameters {(n, k, m, r)}")
        self.__dict__.update(n=n, k=k, m=m, r=r)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.m, self.r)

    @property
    def is_valid(self) -> bool:
        return self.r < self.m and self.k <= min(self.n, self.m - self.r)


def validate_params(p: CodeParams) -> None:
    """Raise ParameterError naming the violated inequality, if any."""
    _check_serviceability(p)
    if p.k > p.n:
        raise ParameterError(f"k={p.k} exceeds n={p.n}; a batch repeats no file")


class BatchCode(_Value):
    """A placement, held column-wise as an ordered multiset of server sets.

    Column j lists the servers (1-based) holding file j.  Duplicate columns
    are allowed and column order is preserved as given; each column is
    normalized to a sorted tuple.
    """

    m: int
    columns: tuple[tuple[int, ...], ...]

    def __init__(self, m: int, columns: Iterable[Iterable[int]]) -> None:
        if m < 1:
            raise ValueError(f"need at least one server, got m={m}")
        columns = tuple(tuple(sorted(set(col))) for col in columns)
        for c in columns:
            if c and (c[0] < 1 or c[-1] > m):
                raise ValueError(f"column {c} is not within servers 1..{m}")
        self.__dict__.update(m=m, columns=columns)

    @property
    def n(self) -> int:
        return len(self.columns)

    def column(self, j: int) -> tuple[int, ...]:
        """Server set of file j (1-based)."""
        if not 1 <= j <= self.n:
            raise IndexError(f"column index {j} out of range 1..{self.n}")
        return self.columns[j - 1]


def weight(code: BatchCode) -> int:
    """Total number of stored file copies (ones in the incidence matrix)."""
    return sum(len(col) for col in code.columns)


def canonicalize(code: BatchCode) -> BatchCode:
    """Equivalent code with columns sorted lexicographically."""
    return BatchCode(code.m, sorted(code.columns))


# ---------------------------------------------------------------------------
# Verification


class ColumnUnionWitness(_Value):
    """Columns whose joint server span is too small: |span| < r + |columns|."""

    columns: tuple[int, ...]  # 1-based file indices
    span: tuple[int, ...]  # the servers those columns cover

    def __init__(self, columns: tuple[int, ...], span: tuple[int, ...]) -> None:
        self.__dict__.update(columns=columns, span=span)

    def confirms(self, code: BatchCode, p: CodeParams) -> bool:
        union: set[int] = set()
        for j in self.columns:
            union.update(code.column(j))
        return union == set(self.span) and len(union) < p.r + len(self.columns)


class RowContainmentWitness(_Value):
    """A server set holding more than |rows| - r whole columns."""

    rows: tuple[int, ...]  # 1-based server indices
    columns: tuple[int, ...]  # the files entirely inside those servers

    def __init__(self, rows: tuple[int, ...], columns: tuple[int, ...]) -> None:
        self.__dict__.update(rows=rows, columns=columns)

    def confirms(self, code: BatchCode, p: CodeParams) -> bool:
        rows = set(self.rows)
        contained = tuple(
            j for j in range(1, code.n + 1) if set(code.column(j)) <= rows
        )
        return contained == self.columns and len(contained) > len(rows) - p.r


class ServiceWitness(_Value):
    """A demand / availability pair that admits no one-file-per-server match."""

    demand: tuple[int, ...]
    available: tuple[int, ...]
    hall_set: tuple[int, ...]  # demanded files whose joint availability is short

    def __init__(self, demand: tuple, available: tuple, hall_set: tuple) -> None:
        self.__dict__.update(demand=demand, available=available, hall_set=hall_set)

    def confirms(self, code: BatchCode, p: CodeParams) -> bool:
        avail = set(self.available)
        span: set[int] = set()
        for y in self.hall_set:
            span.update(set(code.column(y)) & avail)
        return set(self.hall_set) <= set(self.demand) and len(span) < len(self.hall_set)


Witness = ColumnUnionWitness | RowContainmentWitness | ServiceWitness


class VerifyReport(_Value):
    """One strategy's verdict; on failure, a witness that confirms(code, p) checks."""

    ok: bool
    strategy: str
    witness: Witness | None

    def __init__(self, ok: bool, strategy: str, witness: Witness | None = None) -> None:
        self.__dict__.update(ok=ok, strategy=strategy, witness=witness)


class StrategyDisagreement(RuntimeError):
    """The supposedly equivalent strategies returned different verdicts."""


def _check_dimensions(code: BatchCode, p: CodeParams) -> None:
    if code.m != p.m or code.n != p.n:
        raise ValueError(
            f"code is {code.m} x {code.n} but parameters say {p.m} x {p.n}"
        )


def _check_serviceability(p: CodeParams) -> None:
    # The server-side existence conditions only: verify and retrieval also
    # judge codes with fewer than k columns, so k <= n is not checked here.
    if p.r >= p.m:
        raise ParameterError(f"r={p.r} must be smaller than m={p.m}")
    if p.k > p.m - p.r:
        raise ParameterError(
            f"k={p.k} exceeds m-r={p.m - p.r}; a batch cannot outnumber the "
            "guaranteed available servers"
        )


def _masks(code: BatchCode) -> list[int]:
    bit = [0, *(1 << s for s in range(code.m))].__getitem__  # server s -> bit s-1
    return [sum(map(bit, col)) for col in code.columns]


def verify(code: BatchCode, p: CodeParams, strategy: Strategy = "auto") -> VerifyReport:
    """Decide whether `code` serves every batch under every r-server outage.

    Three equivalent strategies are available, each reporting the first
    violation in its own enumeration order (subset sizes ascending, subsets
    lexicographic within a size):

    - "definitional": match files to servers for every maximal demand /
      availability pair, each prefix of a demand once per availability set;
      witness is the first unservable pair in (demand, availability) order.
    - "column-union": every choice of c <= k columns must span at least r + c
      servers; witness is a column set spanning too few.
    - "row-containment": every set of d servers, r <= d < r + k, may fully
      contain at most d - r columns, counted in one pass over the columns;
      witness is the smallest overloaded server set.

    "auto" picks the cheaper of the last two by enumeration count.
    """
    _check_dimensions(code, p)
    _check_serviceability(p)
    if strategy == "auto":
        row_cost = sum(math.comb(p.m, d) for d in range(p.r, p.r + p.k))
        col_cost = sum(math.comb(p.n, c) for c in range(1, p.k + 1))
        strategy = "row-containment" if row_cost <= col_cost else "column-union"
    if strategy == "column-union":
        return _verify_column_union(code, p)
    if strategy == "row-containment":
        return _verify_row_containment(code, p)
    if strategy == "definitional":
        return _verify_definitional(code, p)
    raise ValueError(f"unknown strategy {strategy!r}")


def _verify_column_union(code: BatchCode, p: CodeParams) -> VerifyReport:
    masks = _masks(code)
    for c in range(1, min(p.k, p.n) + 1):
        for J in combinations(range(p.n), c):
            union = 0
            for j in J:
                union |= masks[j]
            if union.bit_count() < p.r + c:
                span = tuple(s for s in range(1, p.m + 1) if union >> (s - 1) & 1)
                witness = ColumnUnionWitness(tuple(j + 1 for j in J), span)
                return VerifyReport(False, "column-union", witness)
    return VerifyReport(True, "column-union")


def _contained_counts(masks: list[int], m: int, lo: int, hi: int) -> dict[int, int]:
    """Columns inside each server set of size lo..hi that holds any, by mask:
    each distinct column adds its multiplicity to its supersets of those sizes."""
    counts: dict[int, int] = {}
    for cm, mult in Counter(masks).items():
        outside = [1 << s for s in range(m) if not cm >> s & 1]
        for d in range(max(lo, cm.bit_count()), hi + 1):
            for extra in map(sum, combinations(outside, d - cm.bit_count())):
                counts[cm + extra] = counts.get(cm + extra, 0) + mult
    return counts


def _verify_row_containment(code: BatchCode, p: CodeParams) -> VerifyReport:
    """Count from the column side; the witness is the first overloaded set by
    (size, rows), with its columns, as a set-by-set scan would report it."""
    masks = _masks(code)
    counts = _contained_counts(masks, p.m, p.r, p.r + p.k - 1)
    over = [a for a, c in counts.items() if c > a.bit_count() - p.r]
    if not over:
        return VerifyReport(True, "row-containment")
    rows = min(
        (tuple(s for s in range(1, p.m + 1) if a >> (s - 1) & 1) for a in over),
        key=lambda t: (len(t), t),
    )
    imask = sum(1 << (s - 1) for s in rows)
    contained = tuple(j + 1 for j, cm in enumerate(masks) if cm & ~imask == 0)
    witness = RowContainmentWitness(rows, contained)
    return VerifyReport(False, "row-containment", witness)


def _verify_definitional(code: BatchCode, p: CodeParams) -> VerifyReport:
    from . import retrieval  # deferred: retrieval builds on these types

    witness = retrieval.exhaustive_service_check(code, p)
    return VerifyReport(witness is None, "definitional", witness)


def cross_check(code: BatchCode, p: CodeParams) -> VerifyReport:
    """Run all three strategies; raise StrategyDisagreement if they differ."""
    reports = [verify(code, p, s) for s in STRATEGIES]
    verdicts = {rep.ok for rep in reports}
    if len(verdicts) != 1:
        detail = ", ".join(f"{rep.strategy}={rep.ok}" for rep in reports)
        raise StrategyDisagreement(f"verification strategies disagree: {detail}")
    return reports[1]  # column-union report, the classic witness form

