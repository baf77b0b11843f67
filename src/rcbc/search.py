"""Exact combinatorial search oracles.

Searches run over multisets of candidate columns in nondecreasing
(cardinality, lexicographic) order, so every result and witness is
deterministic.  At most |I| - r columns may sit inside each server subset I
with r+1 <= |I| <= r+k-1; a completed multiset within every such room is
exactly a code, and columns of cardinality r+k touch no subset.  Rooms are
kept only for sizes a candidate can fill: no I smaller than every candidate.

Each level of a depth-first search holds the rooms left, as the fields of
one int (`_placement`), and a bitmask of the candidates that no longer fit
(some subset they touch is full), so placing a column is one addition with
nothing to undo and the search jumps straight to the next candidate that
fits.  Pruning is a precomputed index past which no extension can beat the
best found.  A node is one candidate considered, whether it fits or not.
Each search keeps one running count and calls `checkpoint` at the pending
checkpoint, so the unfit candidates jumped over are counted in bulk and the
budget stops a search where a one-by-one count would.  The deadline starts
before the set-up (candidates and tables); the node limit counts no set-up.

exact_min_weight also skips each subtree whose weight bound (its docstring)
cannot beat the best code.  Its best starts as the top-of-band code (each
(r+k-1)-subset k-1 times, padded with {1, ..., r+k}, the first n columns), a
code for any valid p, of weight U0 = (r+k)n - min(n, (k-1) C(m, r+k-1)).

Each search ends in `_explore`, and returns, exact, as soon as its best meets
a bound it already holds: exact_min_weight when its best weighs its root
floor (the weight bound at the empty placement; so at 0 nodes, before any
table is built, when that floor is U0), uniform_packing_max when the count
reaches the counting cap, the least over d in [c, r+k-1] of
(d-r) C(m, d) // C(m-c, d-c), as a d-subset holds at most d-r columns and a
c-column lies in C(m-c, d-c) of them.  No code passes either bound.

Server relabelling symmetry is broken at every level.  The placed columns
split the servers into cells, two servers sharing a cell when every placed
column holds both or neither, and the next column must hold the
lowest-numbered servers of each cell (at the first column, a prefix
{1, ..., c}).  Other candidates are skipped and are not nodes.  Relabelling
inside the cells keeps the placed columns, unions of cells, and can move a
candidate to its cell-prefix set, the least of its images.  So if the first
code in candidate order of a set closed under relabelling broke the rule at
some column, relabelling that column would give an earlier code.  Each code
a search records as best is such a first (the first code better than the
start, the top-of-band code or the empty packing, then the first one better
than the last recorded), so the last is the first best code in candidate
order, whatever the start and wherever a bound stops the run.  So an
uncapped run records the same codes and prunes alike, in a subsequence of
the nodes of the search without the rule, the start or the stops: it
returns the same value, and the same witness unless it records none and
returns its start.  Every cell is a run of servers (a cell-prefix column
splits a run into two), so `cells` is the bitmask of the servers s (from 0)
in one cell with s+1; placing candidate j makes it
cells & ~(masks[j] ^ masks[j] >> 1).
"""

from __future__ import annotations

import math
import operator
import sys
import time
from bisect import bisect_left
from itertools import combinations
from typing import Literal

from .core import BatchCode, CodeParams, _check_serviceability, _Value, validate_params

__all__ = [
    "DEFAULT_BUDGET",
    "SearchBudget",
    "SearchResult",
    "exact_min_weight",
    "gap_base_max",
    "trivial_weight_max",
    "uniform_packing_max",
]


class SearchBudget(_Value):
    """Node and wall-clock caps for a search; positive, with inf for no cap.

    A search stops as it counts its node_limit-th node, so one that needs
    exactly N nodes reports exact=False under node_limit=N.  An answer found
    at 0 nodes (a closed form) is exact under any budget.
    """

    node_limit: int
    time_limit: float

    def __init__(self, node_limit: int = 20_000_000, time_limit: float = 600.0) -> None:
        if not node_limit > 0:
            raise ValueError(f"node_limit must be positive, got {node_limit}")
        if node_limit < math.inf and node_limit % 1:
            raise ValueError(f"node_limit must be a whole number, got {node_limit}")
        if not time_limit > 0:
            raise ValueError(f"time_limit must be positive, got {time_limit}")
        node_limit = int(node_limit) if node_limit < math.inf else node_limit
        self.__dict__.update(node_limit=node_limit, time_limit=time_limit)


DEFAULT_BUDGET = SearchBudget()


class SearchResult(_Value):
    """Outcome of a search.

    With exact=True, `value` is the quantity searched for and `witness` (when
    the quantity has one) achieves it; value None means no finite answer
    exists.  With exact=False the budget ran out: `value` is a lower bound on
    the truth, and `witness` is the best object found so far.
    """

    value: int | None
    witness: BatchCode | None
    exact: bool
    nodes: int

    def __init__(
        self, value: int | None, witness: BatchCode | None, exact: bool, nodes: int = 0
    ) -> None:
        self.__dict__.update(value=value, witness=witness, exact=exact, nodes=nodes)

    @property
    def bound(self) -> Literal["exact", "lower"]:
        return "exact" if self.exact else "lower"

    @property
    def unbounded(self) -> bool:
        return self.exact and self.value is None


class BudgetExhausted(Exception):
    """Raised by checkpoint; args[0] is the node count where the search stopped."""


class BoundMet(Exception):
    """Raised by a search whose best meets a bound no code can pass."""


def _explore(search: str, descend, *root) -> int | None:
    """Run descend(*root): None once it ends exact (its scan finished or it
    raised BoundMet), else the node count (> 0) where the budget stopped it."""
    try:
        descend(*root)
    except BoundMet:
        pass
    except BudgetExhausted as stop:
        return stop.args[0]
    except RecursionError:  # one level per placed column
        limit = f"Python's recursion limit ({sys.getrecursionlimit()})"
        raise ValueError(f"{search} recurses past {limit}") from None
    return None


def checkpoint(nodes: int, check_at: int, node_limit: int, deadline: float) -> int:
    """Return the next checkpoint once a search's node count reaches check_at.

    A search starts at check_at = 0, which never stops it.  Checkpoints fall
    at every multiple of 4096 nodes and at node_limit.  At each one up to
    `nodes`, in order, the search stops with BudgetExhausted(checkpoint) if
    it is node_limit or the time.monotonic() `deadline` has passed: where a
    one-by-one count would stop, before the node at the limit is handled.
    """
    while nodes >= check_at:
        if check_at >= node_limit or (check_at and time.monotonic() > deadline):
            raise BudgetExhausted(check_at)
        check_at = min(node_limit, check_at + 4096)
    return check_at


def _placement(m: int, k: int, r: int, columns: list[tuple[int, ...]]) -> tuple:
    """Tables (start, guard, inc, at, masks, apart) over the candidate columns.

    A state has a w-bit field, w = (k-1).bit_length() + 1, per subset I with
    c0 <= |I| <= r+k-1, c0 the least candidate cardinality (a smaller I holds
    no candidate), larger I first, holding 2^(w-1) less the room left in I
    (|I| - r in `start`), so I is full when its field's top bit, its bit in
    `guard`, is set.  inc[j] has a 1 in the field of each subset holding
    candidate j (those j touches), so placing a j that touches no full subset
    adds inc[j] with no carry.  at[t] has bit j set when j touches the subset
    whose guard bit has bit length t.  masks[j] is j's server bitmask (server
    s at bit s-1); apart[s] has bit j set when j holds server s+2, not s+1.
    """
    w = (k - 1).bit_length() + 1
    index: dict[int, int] = {}  # subset bitmask -> lowest bit of its field
    start = 0
    for d in range(r + k - 1, min(map(len, columns)) - 1, -1):
        ones = ((1 << w * math.comb(m, d)) - 1) // ((1 << w) - 1)  # 1 per field
        start |= ((1 << w - 1) - (d - r)) * ones << w * len(index)
        for subset in map(sum, combinations([1 << b for b in range(m)], d)):
            index[subset] = w * len(index)
    guard = ((1 << w * len(index)) - 1) // ((1 << w) - 1) << w - 1
    inc: list[int] = []
    at = [0] * (w * len(index) + 1)
    masks = [sum(1 << (s - 1) for s in col) for col in columns]
    apart = [0] * (m - 1)
    for j, bits in enumerate(masks):
        rest = [1 << b for b in range(m) if not bits >> b & 1]
        step = 0
        for extra in reversed(range(r + k - bits.bit_count())):  # low fields first
            for add in map(sum, combinations(rest, extra)):
                f = index[bits | add]
                step |= 1 << f
                at[f + w] |= 1 << j
        inc.append(step)
        gaps = bits >> 1 & ~bits  # bit s: j holds server s+2 but not s+1
        while gaps:
            apart[gaps.bit_length() - 1] |= 1 << j
            gaps ^= 1 << gaps.bit_length() - 1
    return start, guard, inc, at, masks, apart


def _skip(apart: list[int], cells: int) -> int:
    """Bitmask of the candidates that are not cell-prefix under `cells`."""
    skip = 0
    for s, mask in enumerate(apart):
        if cells >> s & 1:
            skip |= mask
    return skip


def _witness(m: int, cols: list[tuple[int, ...]], path) -> BatchCode:
    """The code on a search path of nested (parent, candidate index) pairs."""
    columns = []
    while path:
        path, j = path
        columns.append(cols[j])
    return BatchCode(m, columns[::-1])


def exact_min_weight(p: CodeParams, budget: SearchBudget | None = None) -> SearchResult:
    """Minimum total weight of any code for p, by branch and bound.

    Candidate columns take every cardinality in [r+1, r+k]: smaller columns
    appear in no code, and any column above r+k could be shrunk.  Of the
    (r+k)-columns only {1, ..., r+k} is kept: it is never blocked or
    skipped, and a code of weight at most acc + slots * (r+k) follows it,
    so no level's scan goes past it.  The scan of a level stops where the
    current weight plus (slots left) * (column cardinality) cannot beat the
    best complete code found.

    Each candidate that fits is placed and gets a lower bound on the weight
    of every code that completes it: acc + slots * (r+k) - save, where
    `save` bounds the weight saved against filling the slots left with
    (r+k)-columns.  `save` is the smaller of two relaxations:

    - count: the unblocked candidates from this index on, cheapest first,
      each of cardinality c < r+k used at most c - r times (the room of its
      own support) and saving r+k-c per copy;
    - room: the room left in the (r+k-1)-subsets, (k-1) C(m, r+k-1) at the
      start.  A c-column takes C(m-c, r+k-1-c) >= r+k-c of it, so each unit
      of room saves at most one.

    A candidate whose bound reaches the best weight is not descended into:
    its subtree holds no better code and counts no nodes.  The best starts
    as the top-of-band code, so an uncapped run returns the scan's first
    optimum in candidate order when it weighs less than U0, and the
    top-of-band code when U0 is optimal.  The search returns as soon as its
    best meets the bound at the empty placement (the root floor), at 0
    nodes under any budget when that floor is U0.  A run cut short by the
    budget reports the root floor as `lower`, with its best code.
    """
    validate_params(p)
    n, k, m, r = p.n, p.k, p.m, p.r
    budget = budget or DEFAULT_BUDGET  # the deadline covers the set-up below
    node_limit, deadline = budget.node_limit, time.monotonic() + budget.time_limit
    top = r + k
    cols = [
        col
        for card in range(r + 1, top)
        for col in combinations(range(1, m + 1), card)
    ]
    cols.append(tuple(range(1, top + 1)))
    cards = [len(col) for col in cols]
    # Room each candidate takes from the (r+k-1)-subsets, in total.
    uses = [math.comb(m - c, top - 1 - c) if c < top else 0 for c in cards]
    # (candidate bitmask, copies, saving per copy) for each cardinality < r+k.
    classes = [
        (sum(1 << j for j, cj in enumerate(cards) if cj == c), c - r, top - c)
        for c in range(r + 1, top)
    ]

    def weight_floor(j: int, blocked: int, slots: int, acc: int, room: int) -> int:
        """Lower bound on the weight of acc plus `slots` more columns, taken
        from the candidates j, j+1, ... not in `blocked`."""
        save, left = 0, slots
        free = ~blocked >> j << j
        for mask, copies, gain in classes:
            count = (free & mask).bit_count() * copies
            if count >= left:
                save += left * gain
                break
            save += count * gain
            left -= count
        return acc + slots * top - min(save, room)

    room0 = (k - 1) * math.comb(m, top - 1)
    root_floor = weight_floor(0, 0, n, 0, room0)
    band = [col for col in cols if len(col) == top - 1 for _ in range(k - 1)]
    top_code = BatchCode(m, (band + [cols[-1]] * n)[:n])
    best_weight = u0 = top * n - min(n, room0)  # the weight of top_code
    if root_floor == u0:
        return SearchResult(u0, top_code, True)
    # Cardinalities are nondecreasing: first_wider[c] is the index of the
    # first candidate of cardinality >= c, where pruning starts.
    first_wider = [bisect_left(cards, c) for c in range(best_weight + 1)]
    start, guard, inc, at, masks, apart = _placement(m, k, r, cols)
    nodes = check_at = 0
    best = None

    def descend(j: int, blocked: int, slots: int, acc: int, room: int, cells: int,
                state: int, path) -> None:
        """Fill `slots` more from canonical candidates j, j+1, ... not blocked."""
        nonlocal best_weight, best, nodes, check_at
        if slots == 0:
            if acc < best_weight:
                best_weight, best = acc, path
                if acc == root_floor:
                    raise BoundMet
            return
        skipped = _skip(apart, cells) if cells else 0
        free = blocked | skipped if skipped else blocked
        while True:
            # Columns of cardinality >= ceil((best_weight - acc) / slots)
            # cannot beat the best code.
            stop = first_wider[(best_weight - acc + slots - 1) // slots]
            if j >= stop:
                return
            x = free >> j
            fit = j + (x ^ (x + 1)).bit_length() - 1  # next candidate to place
            end = fit + 1 if fit < stop else stop
            nodes += end - j
            if skipped:  # candidates that are not canonical are not nodes
                nodes -= (skipped >> j & ~(-1 << end - j)).bit_count()
            if nodes >= check_at:
                check_at = checkpoint(nodes, check_at, node_limit, deadline)
            if fit >= stop:
                return
            # Place, then descend unless the bound rules out every completion.
            after = state + inc[fit]
            full = (after ^ state) & guard  # the subsets fit fills
            child = blocked
            while full:
                child |= at[t := full.bit_length()]
                full ^= 1 << t - 1
            weight, left = acc + cards[fit], room - uses[fit]
            if weight_floor(fit, child, slots - 1, weight, left) < best_weight:
                split = cells & ~(masks[fit] ^ masks[fit] >> 1)
                descend(fit, child, slots - 1, weight, left, split, after, (path, fit))
            j = fit + 1

    root = (0, 0, n, 0, room0, (1 << (m - 1)) - 1, start, None)
    stopped = _explore("exact_min_weight", descend, *root)
    witness = _witness(m, cols, best) if best else top_code
    value = root_floor if stopped else best_weight
    return SearchResult(value, witness, not stopped, stopped or nodes)


def uniform_packing_max(
    k: int, m: int, r: int, cardinality: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Largest code whose columns all have the given cardinality.

    Searches multisets of cardinality-`cardinality` columns under the same
    containment counters as exact_min_weight, maximizing the column count.
    An exact run returns the witness of the scan without the canonical rule.

    Two cases are closed forms, exact at 0 nodes under any budget, with the
    scan's value and witness.  At cardinality r+k-1 a column lies in no
    tracked subset but its support, so every column fits k-1 times.  At
    k = 3, r = 1, cardinality 2 the codes are triangle-free graphs, whose
    unique largest is K_{ceil(m/2), floor(m/2)} (Mantel); the scan meets it
    with {2, ..., ceil(m/2)+1} as one part, giving server 1 the most columns.
    Otherwise the search returns, exact, once the count meets the counting
    cap of the module docstring.
    """
    _check_serviceability(CodeParams(0, k, m, r))
    cardinality = operator.index(cardinality)
    if not r + 1 <= cardinality <= r + k - 1:
        # Cardinality-(r+k) columns satisfy every subset condition, so their
        # packings are unbounded; nothing to search there.
        raise ValueError(
            f"cardinality {cardinality} outside the constrained band "
            f"[{r + 1}, {r + k - 1}]"
        )
    budget = budget or DEFAULT_BUDGET  # the deadline covers the set-up below
    node_limit, deadline = budget.node_limit, time.monotonic() + budget.time_limit
    cols = list(combinations(range(1, m + 1), cardinality))
    if cardinality == r + k - 1 or (k, r, cardinality) == (3, 1, 2):
        part = range(2, (m + 1) // 2 + 2)
        closed = (
            [col for col in cols for _ in range(k - 1)]
            if cardinality == r + k - 1
            else [(u, v) for u, v in cols if (u in part) != (v in part)]
        )
        return SearchResult(len(closed), BatchCode(m, closed), True)
    start, guard, inc, at, masks, apart = _placement(m, k, r, cols)
    # A column alone fits at most cardinality - r copies (the room of its own
    # support), so candidates j, j+1, ... add at most (len(cols) - j) times
    # that.  first_at_most[v] is the first j where that is <= v, where
    # pruning starts while the best leads by v.
    copies = cardinality - r
    first_at_most = [len(cols) - v // copies for v in range(len(cols) * copies + 1)]
    # The counting cap of the module docstring: no code has more columns.
    cap = min(
        (d - r) * math.comb(m, d) // math.comb(m - cardinality, d - cardinality)
        for d in range(cardinality, r + k)
    )
    nodes = check_at = 0
    best, best_path = 0, None

    def descend(j: int, blocked: int, cells: int, depth: int, state: int, path) -> None:
        """Extend `path` by canonical candidates j, j+1, ... not blocked."""
        nonlocal best, best_path, nodes, check_at
        if depth > best:
            best, best_path = depth, path
            if best == cap:
                raise BoundMet
        skipped = _skip(apart, cells) if cells else 0
        free = blocked | skipped if skipped else blocked
        while True:
            stop = first_at_most[best - depth]
            if j >= stop:
                return
            x = free >> j
            fit = j + (x ^ (x + 1)).bit_length() - 1  # next candidate to place
            end = fit + 1 if fit < stop else stop
            nodes += end - j
            if skipped:  # candidates that are not canonical are not nodes
                nodes -= (skipped >> j & ~(-1 << end - j)).bit_count()
            if nodes >= check_at:
                check_at = checkpoint(nodes, check_at, node_limit, deadline)
            if fit >= stop:
                return
            after = state + inc[fit]
            full = (after ^ state) & guard  # the subsets fit fills
            child = blocked
            while full:
                child |= at[t := full.bit_length()]
                full ^= 1 << t - 1
            split = cells and cells & ~(masks[fit] ^ masks[fit] >> 1)
            descend(fit, child, split, depth + 1, after, (path, fit))
            j = fit + 1

    root = (0, 0, (1 << (m - 1)) - 1, 0, start, None)
    stopped = _explore("uniform_packing_max", descend, *root)
    witness = _witness(m, cols, best_path)
    return SearchResult(best, witness, not stopped, stopped or nodes)


def gap_base_max(
    k: int, m: int, r: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Largest code with every column of cardinality r+k-2.

    This is the base packing the gap-regime construction shortens and
    extends.  Requires k >= 3 and m >= r+k.  The count never exceeds
    (k-1) C(m, r+k-2) / (r+k-1), the (r+k-1)-subset term of the counting
    cap at which uniform_packing_max stops.  At r = 0 every (k-2)-subset
    once meets it: that code is exact at 0 nodes under any budget.
    """
    if k < 3:
        raise ValueError(f"base packings need k >= 3, got k={k}")
    if r == 0:
        _check_serviceability(CodeParams(0, k, m, r))
        subsets = combinations(range(1, m + 1), k - 2)
        return SearchResult(math.comb(m, k - 2), BatchCode(m, subsets), True)
    return uniform_packing_max(k, m, r, r + k - 2, budget=budget)


def trivial_weight_max(
    k: int, m: int, r: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Largest n for which some code meets the weight floor (r+1)n.

    A code meets the floor exactly when every column has cardinality r+1.
    For k=1 the answer is unbounded (repeat any column), reported as value
    None.
    """
    _check_serviceability(CodeParams(0, k, m, r))
    if k == 1:
        return SearchResult(None, None, True)
    return uniform_packing_max(k, m, r, r + 1, budget=budget)
