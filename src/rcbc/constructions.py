"""Closed-form constructions for the solved parameter regimes.

Each constructor returns a code proven optimal in its regime.  Each regime is
one (tag, weight, build) row that `predicted_weight` and `construct_optimal`
both read; the rows covering one tuple must agree.  Gap bases come from
`search.gap_base_max`; extension appends (r+k-1)-columns up to a capacity.
"""

from __future__ import annotations

import math
from itertools import combinations, cycle, islice

from . import search
from .core import BatchCode, CodeParams, canonicalize, validate_params, verify, weight
from .core import _contained_counts, _masks, _Value

__all__ = [
    "NoKnownConstruction",
    "RegimePrediction",
    "construct_circulant",
    "construct_gap",
    "construct_large_n",
    "construct_max_k",
    "construct_optimal",
    "extend_with_columns",
    "extension_capacity",
    "predicted_weight",
]


def _windows(m: int, width: int) -> list[tuple[int, ...]]:
    """The m cyclic windows {j, j+1, ..., j+width-1} (mod m), j = 1..m."""
    return [tuple(sorted((j + x) % m + 1 for x in range(width))) for j in range(m)]


def construct_circulant(p: CodeParams) -> BatchCode:
    """Optimal code for n <= m: column j holds servers j, j+1, ..., j+r (mod m).

    Any c columns span at least r + c servers, so the weight floor (r+1)n is
    met with every batch size up to m - r.
    """
    validate_params(p)
    if p.n > p.m:
        raise ValueError(f"circulant construction needs n <= m, got n={p.n}, m={p.m}")
    return BatchCode(p.m, _windows(p.m, p.r + 1)[: p.n])


def construct_max_k(n: int, m: int, r: int) -> BatchCode:
    """Optimal code for the largest admissible batch, k = m - r, when n >= m.

    The first m columns are the width-(r+1) cyclic windows; the remaining
    n - m columns hold every server.  Weight is m(n - m + r + 1).
    """
    if not 0 <= r < m:
        raise ValueError(f"need 0 <= r < m, got r={r}, m={m}")
    if n < m:
        raise ValueError(f"max-batch construction needs n >= m, got n={n}, m={m}")
    return BatchCode(m, _windows(m, r + 1) + [tuple(range(1, m + 1))] * (n - m))


def construct_large_n(p: CodeParams) -> BatchCode:
    """Optimal code for n at or above (k-1) C(m, r+k-1).

    Takes k-1 copies of every cardinality-(r+k-1) column, then pads with
    cardinality-(r+k) columns (cycled lexicographically).  Weight is
    (r+k)n - (k-1) C(m, r+k-1).
    """
    validate_params(p)
    if p.k < 2:
        raise ValueError("large-n construction needs k >= 2; use windows for k=1")
    threshold = (p.k - 1) * math.comb(p.m, p.r + p.k - 1)
    if p.n < threshold:
        raise ValueError(
            f"large-n construction needs n >= {threshold}, got n={p.n}"
        )
    cols: list[tuple[int, ...]] = []
    for col in combinations(range(1, p.m + 1), p.r + p.k - 1):
        cols.extend([col] * (p.k - 1))
    fillers = combinations(range(1, p.m + 1), p.r + p.k)
    cols.extend(islice(cycle(fillers), p.n - threshold))
    return BatchCode(p.m, cols)


# ---------------------------------------------------------------------------
# Extension by cardinality-(r+k-1) columns


def extension_capacity(code: BatchCode, p: CodeParams) -> int:
    """How many cardinality-(r+k-1) columns can still be appended.

    Requires a verifying code with every column cardinality at most r+k-1.
    Each cardinality-(r+k-1) server set C tolerates k-1 contained columns;
    the capacity is the total remaining headroom,
    (k-1) C(m, r+k-1) - sum_j C(m - |A_j|, r+k-1 - |A_j|).
    """
    p_here = CodeParams(code.n, p.k, p.m, p.r)
    top = p.r + p.k - 1
    for col in code.columns:
        if len(col) > top:
            raise ValueError(
                f"column cardinality {len(col)} exceeds r+k-1 = {top}"
            )
    if not verify(code, p_here).ok:
        raise ValueError("code does not verify; capacity is undefined")
    used = sum(math.comb(p.m - len(col), top - len(col)) for col in code.columns)
    return (p.k - 1) * math.comb(p.m, top) - used


def extend_with_columns(code: BatchCode, p: CodeParams, count: int) -> BatchCode:
    """Append `count` cardinality-(r+k-1) columns, keeping the code verifying.

    Walks the (r+k-1)-subsets lexicographically, appending each until it
    holds k-1 whole columns.  Any count up to extension_capacity(code, p) is
    reachable this way.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    capacity = extension_capacity(code, p)
    if count > capacity:
        raise ValueError(f"count {count} exceeds extension capacity {capacity}")
    top = p.r + p.k - 1
    # An appended column lies in no other (r+k-1)-set, so the counts of the
    # given columns are all that later candidates see.
    inside = _contained_counts(_masks(code), p.m, top, top)
    cols = list(code.columns)
    remaining = count
    for cand in combinations(range(1, p.m + 1), top):
        if remaining == 0:
            break
        cmask = sum(1 << (s - 1) for s in cand)
        take = min(p.k - 1 - inside.get(cmask, 0), remaining)
        cols.extend([cand] * take)
        remaining -= take
    assert remaining == 0  # guaranteed by the capacity count
    return BatchCode(p.m, cols)


# ---------------------------------------------------------------------------
# The gap regime and the dispatcher


def construct_gap(p: CodeParams, base: BatchCode) -> BatchCode:
    """Optimal code between the packing bound and the large-n regime.

    `base` must be a verifying code on m servers whose columns all have
    cardinality r+k-2 (a gap base packing).  The first
    x = ((k-1) C(m, r+k-1) - n) / (m-r-k+1), rounded down, columns of the
    canonicalized base are kept and the remaining n - x columns appended at
    cardinality r+k-1.  Weight is (r+k-1)n - x.
    """
    validate_params(p)
    if p.k < 3:
        raise ValueError(f"gap construction needs k >= 3, got k={p.k}")
    if base.m != p.m:
        raise ValueError(f"base is on {base.m} servers, expected {p.m}")
    want = p.r + p.k - 2
    for col in base.columns:
        if len(col) != want:
            raise ValueError(
                f"base column cardinality {len(col)}, expected {want}"
            )
    total = (p.k - 1) * math.comb(p.m, p.r + p.k - 1)
    if p.n > total:
        raise ValueError(f"gap construction needs n <= {total}, got n={p.n}")
    x = (total - p.n) // (p.m - p.r - p.k + 1)
    if x > base.n:
        raise ValueError(
            f"n={p.n} needs a base of {x} columns, base has only {base.n}"
        )
    kept = canonicalize(base).columns[:x]
    partial = BatchCode(p.m, kept)
    return extend_with_columns(partial, p, p.n - x)


class RegimePrediction(_Value):
    """A weight formula's verdict: the optimal weight and its regime tag.

    A known prediction is proven optimal.  `budget_limited` marks an unknown
    prediction that only an inexact gap base search left unknown, so a
    larger budget might cover p.
    """

    value: int | None
    regime: str | None
    budget_limited: bool

    def __init__(
        self, value: int | None, regime: str | None, budget_limited: bool = False
    ) -> None:
        self.__dict__.update(value=value, regime=regime, budget_limited=budget_limited)

    @property
    def known(self) -> bool:
        return self.value is not None


class NoKnownConstruction(ValueError):
    """Valid parameters, but no covered regime; carries budget_limited."""

    def __init__(self, p: CodeParams, budget_limited: bool = False) -> None:
        super().__init__(
            f"no construction regime covers {p.as_tuple()}"
            + (" within the search budget" if budget_limited else "")
        )
        self.budget_limited = budget_limited


# Exact base maxima keyed by (k, m, r), reused under any budget; results cut
# short by the budget keyed by (k, m, r, budget), so a new budget searches again.
_base_cache: dict[tuple, search.SearchResult] = {}


def _gap_base(k: int, m: int, r: int, budget) -> search.SearchResult:
    budget = budget or search.DEFAULT_BUDGET
    hit = _base_cache.get((k, m, r)) or _base_cache.get((k, m, r, budget))
    if hit is None:
        hit = search.gap_base_max(k, m, r, budget=budget)
        _base_cache[(k, m, r) if hit.exact else (k, m, r, budget)] = hit
    return hit


def _regimes(p: CodeParams, budget) -> tuple[list[tuple], bool]:
    """(tag, weight, build) rows of the regimes covering p, in dispatch order,
    and whether only a gap base search cut short by the budget left p uncovered."""
    validate_params(p)
    n, k, m, r = p.n, p.k, p.m, p.r
    rows: list[tuple] = []
    if k == 1:
        rows.append(("k1", (r + 1) * n,
                     lambda: BatchCode(m, islice(cycle(_windows(m, r + 1)), n))))
    if n <= m:
        rows.append(("circulant", (r + 1) * n, lambda: construct_circulant(p)))
    if k == 2 and n <= math.comb(m, r + 1):
        rows.append(("k2-small", (r + 1) * n, lambda: BatchCode(
            m, islice(combinations(range(1, m + 1), r + 1), n))))
    if k == m - r and n >= m:
        rows.append(("max-k", m * (n - m + r + 1), lambda: construct_max_k(n, m, r)))
    total = (k - 1) * math.comb(m, r + k - 1)
    if k >= 2 and n >= total:
        rows.append(("large-n", (r + k) * n - total, lambda: construct_large_n(p)))
    budget_limited = False
    if k >= 3 and n < total:
        # Cheap prefilter: even the largest conceivable base cannot reach n.
        cap = ((k - 1) * math.comb(m, r + k - 2)) // (r + k - 1)
        span = m - r - k + 1
        if n >= total - span * cap:
            base = _gap_base(k, m, r, budget)
            budget_limited = not base.exact
            assert base.value is not None
            # A lower bound on the base maximum still certifies membership.
            if n >= total - span * base.value:
                rows.append(("gap", (r + k - 1) * n - (total - n) // span,
                             lambda: construct_gap(p, base.witness)))
    if len({value for _, value, _ in rows}) > 1:
        detail = ", ".join(f"{tag}={value}" for tag, value, _ in rows)
        raise RuntimeError(f"optimal-weight formulas disagree: {detail}")
    return rows, budget_limited and not rows


def predicted_weight(
    p: CodeParams, budget: search.SearchBudget | None = None
) -> RegimePrediction:
    """Evaluate every optimal-weight formula whose hypothesis covers p.

    All applicable formulas must agree (they are facts about the same
    minimum); the returned tag names the first applicable regime.  Returns
    an unknown prediction when no regime covers p.  The gap regime needs the
    base packing maximum from `search.gap_base_max`, cached per (k, m, r),
    or per (k, m, r, budget) when the budget cut the search short.
    """
    rows, budget_limited = _regimes(p, budget)
    tag, value, _ = rows[0] if rows else (None, None, None)
    return RegimePrediction(value, tag, budget_limited)


def construct_optimal(
    p: CodeParams, budget: search.SearchBudget | None = None
) -> tuple[BatchCode, RegimePrediction]:
    """Build a minimum-weight code for p via the first applicable regime.

    Raises NoKnownConstruction when no formula covers p; the exception says
    whether a larger search budget might change that.
    """
    rows, budget_limited = _regimes(p, budget)
    if not rows:
        raise NoKnownConstruction(p, budget_limited=budget_limited)
    tag, value, build = rows[0]
    code = build()
    actual = weight(code)
    if actual != value:
        raise RuntimeError(
            f"constructed weight {actual} differs from predicted {value}"
        )
    return code, RegimePrediction(value, tag)
