"""Shared fixtures and independent brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from rcbc import (
    BatchCode,
    CodeParams,
    InfeasibleDemand,
    RowContainmentWitness,
    SearchBudget,
    SearchResult,
    ServiceWitness,
    SimpleGraph,
    VerifyReport,
    exhaustive_service_check,
    extension_capacity,
    parse_matrix,
    plan_retrieval,
    verify,
    weight,
)
from rcbc.core import _check_dimensions, _check_serviceability, _masks, _Value
from rcbc.retrieval import _find_assignment

# Reference placements, transcribed as matrix text so the parser is on the
# critical path of every test that uses them.

TALL_TEXT = """\
6 4
1001
1100
1110
1111
0111
0011
"""
TALL_PARAMS = CodeParams(4, 3, 6, 3)

MAX_BATCH_TEXT = """\
6 7
1001111
1100111
1110011
1111001
0111101
0011111
"""
MAX_BATCH_PARAMS = CodeParams(7, 3, 6, 3)

MANY_FILES_TEXT = """\
4 8
11100010
10011011
01010111
00101101
"""
MANY_FILES_PARAMS = CodeParams(8, 2, 4, 1)


def tall_code() -> BatchCode:
    return parse_matrix(TALL_TEXT)


def max_batch_code() -> BatchCode:
    return parse_matrix(MAX_BATCH_TEXT)


def many_files_code() -> BatchCode:
    return parse_matrix(MANY_FILES_TEXT)


def all_matrices(m: int, n: int):
    """Every 0/1 matrix of the given shape, as BatchCodes."""
    cells = m * n
    for bits in range(1 << cells):
        cols = [
            tuple(i + 1 for i in range(m) if bits >> (j * m + i) & 1)
            for j in range(n)
        ]
        yield BatchCode(m, cols)


def valid_kr_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """All (k, r) for which codes of this shape can exist."""
    return [
        (k, r)
        for r in range(m)
        for k in range(1, min(n, m - r) + 1)
    ]


def random_matrix(rng: random.Random, m: int, n: int) -> BatchCode:
    density = rng.uniform(0.15, 0.85)
    cols = [
        tuple(s for s in range(1, m + 1) if rng.random() < density)
        for _ in range(n)
    ]
    return BatchCode(m, cols)


def random_valid_params(
    rng: random.Random, max_m: int = 6, max_n: int = 6
) -> CodeParams:
    m = rng.randint(2, max_m)
    r = rng.randint(0, m - 1)
    k = rng.randint(1, m - r)
    n = rng.randint(k, max_n) if k <= max_n else k
    return CodeParams(n, k, m, r)


def random_accepted_code(
    rng: random.Random, max_m: int = 6, max_n: int = 6
) -> tuple[BatchCode, CodeParams]:
    """A random verifying code with in-band column cardinalities."""
    while True:
        p = random_valid_params(rng, max_m, max_n)
        top = min(p.r + p.k, p.m)
        cols = [
            tuple(rng.sample(range(1, p.m + 1), rng.randint(p.r + 1, top)))
            for _ in range(p.n)
        ]
        code = BatchCode(p.m, cols)
        if verify(code, p).ok:
            return code, p


def brute_force_feasible(code: BatchCode, demand, avail) -> bool:
    """Assignment existence by trying every server tuple."""
    demand = sorted(set(demand))
    avail = set(avail)
    options = [sorted(set(code.column(f)) & avail) for f in demand]
    if not all(options):
        return False
    for combo in itertools.product(*options):
        if len(set(combo)) == len(combo):
            return True
    return False


def brute_min_weight(p: CodeParams) -> int:
    """Minimum weight by unpruned enumeration of column multisets.

    Only usable for tiny parameters; exists to check the real search
    without sharing any of its machinery.
    """
    cards = range(p.r + 1, min(p.r + p.k, p.m) + 1)
    pool = [
        col for card in cards for col in itertools.combinations(range(1, p.m + 1), card)
    ]
    best = math.inf
    for combo in itertools.combinations_with_replacement(pool, p.n):
        w = sum(len(c) for c in combo)
        if w < best and verify(BatchCode(p.m, combo), p).ok:
            best = w
    return best


def brute_girth(graph: SimpleGraph) -> int | float:
    """Girth by checking every vertex subset for a spanning cycle."""
    edges = set(graph.edges)
    best = math.inf
    for size in range(3, graph.vertices + 1):
        if size >= best:
            break
        for verts in itertools.combinations(range(1, graph.vertices + 1), size):
            rest = list(verts[1:])
            for perm in itertools.permutations(rest):
                cycle = (verts[0],) + perm
                pairs = [
                    tuple(sorted((cycle[i], cycle[(i + 1) % size])))
                    for i in range(size)
                ]
                if all(pair in edges for pair in pairs):
                    best = min(best, size)
                    break
            else:
                continue
            break
    return best


def brute_max_extension(code: BatchCode, p: CodeParams) -> int:
    """Most cardinality-(r+k-1) columns appendable while still verifying.

    Depth-first over append multisets with verify() as the only filter;
    independent of the capacity formula.
    """
    top = p.r + p.k - 1
    pool = list(itertools.combinations(range(1, p.m + 1), top))

    def grow(cols: list, start: int) -> int:
        best = 0
        for idx in range(start, len(pool)):
            cols.append(pool[idx])
            probe = BatchCode(p.m, cols)
            p_now = CodeParams(len(cols), p.k, p.m, p.r)
            if verify(probe, p_now).ok:
                best = max(best, 1 + grow(cols, idx))
            cols.pop()
        return best

    return grow(list(code.columns), 0)


# ---------------------------------------------------------------------------
# Reference searches: the per-candidate loops the blocked-candidate skip
# replaced.  Every candidate tried costs one tick(), fit or not, and a
# candidate is placed and removed through room counters.  Kept only to
# compare results, witnesses and node counts against the library.  They
# lack the weight bound of exact_min_weight, and the edge search below
# shares no code with the packing search behind max_edges_with_girth, so
# they are independent oracles for both.


class _RefExhausted(Exception):
    pass


class _RefMeter:
    """One tick() per node; stops at the node limit, and at every 4096th
    node once the time limit has passed."""

    def __init__(self, budget: SearchBudget) -> None:
        self.nodes = 0
        self.limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes >= self.limit:
            raise _RefExhausted
        if self.nodes % 4096 == 0 and time.monotonic() > self.deadline:
            raise _RefExhausted


class _RefPlacement:
    """Room per tracked subset, and a bitmask of the full subsets."""

    def __init__(self, m: int, k: int, r: int, columns) -> None:
        index: dict[int, int] = {}
        self.room: list[int] = []
        for d in range(r + 1, min(r + k - 1, m) + 1):
            for rows in itertools.combinations(range(m), d):
                index[sum(1 << b for b in rows)] = len(self.room)
                self.room.append(d - r)
        self.touched: list[tuple[int, ...]] = []
        for col in columns:
            bits = sum(1 << (s - 1) for s in col)
            rest = [1 << b for b in range(m) if not bits >> b & 1]
            self.touched.append(tuple(
                index[bits | sum(add)]
                for extra in range(r + k - len(col))
                for add in itertools.combinations(rest, extra)
            ))
        self.mask = [sum(1 << i for i in t) for t in self.touched]
        self.full = 0

    def place(self, j: int) -> int | None:
        if self.mask[j] & self.full:
            return None
        filled = 0
        for i in self.touched[j]:
            self.room[i] -= 1
            if not self.room[i]:
                filled |= 1 << i
        self.full |= filled
        return filled

    def remove(self, j: int, filled: int) -> None:
        for i in self.touched[j]:
            self.room[i] += 1
        self.full ^= filled


def reference_exact_min_weight(p: CodeParams, budget: SearchBudget) -> SearchResult:
    n, k, m, r = p.n, p.k, p.m, p.r
    cols = [
        col
        for card in range(r + 1, min(r + k, m) + 1)
        for col in itertools.combinations(range(1, m + 1), card)
    ]
    prefixes = [j for j, col in enumerate(cols) if col[-1] == len(col)]
    state = _RefPlacement(m, k, r, cols)
    meter = _RefMeter(budget)
    best_weight = math.inf
    best = None
    chosen: list[int] = []

    def descend(options, slots: int, acc: int) -> None:
        nonlocal best_weight, best
        if slots == 0:
            if acc < best_weight:
                best_weight = acc
                best = chosen.copy()
            return
        for j in options:
            card = len(cols[j])
            if acc + card * slots >= best_weight:
                break
            meter.tick()
            filled = state.place(j)
            if filled is None:
                continue
            chosen.append(j)
            descend(range(j, len(cols)), slots - 1, acc + card)
            chosen.pop()
            state.remove(j, filled)

    try:
        descend(prefixes, n, 0)
    except _RefExhausted:
        witness = BatchCode(m, [cols[j] for j in best]) if best is not None else None
        return SearchResult((r + 1) * n, witness, False, meter.nodes)
    witness = BatchCode(m, [cols[j] for j in best])
    return SearchResult(int(best_weight), witness, True, meter.nodes)


def top_of_band_code(p: CodeParams) -> BatchCode:
    """The first n columns of each (r+k-1)-subset k-1 times, in
    lexicographic order, then {1, ..., r+k} repeated: a code for every valid
    p, of weight U0 = (r+k)n - min(n, (k-1) C(m, r+k-1))."""
    n, k, m, r = p.n, p.k, p.m, p.r
    band = [
        col
        for col in itertools.combinations(range(1, m + 1), r + k - 1)
        for _ in range(k - 1)
    ]
    return BatchCode(m, (band + [tuple(range(1, r + k + 1))] * n)[:n])


def min_weight_witness(p: CodeParams, want: SearchResult) -> tuple:
    """Columns exact_min_weight returns, given the reference scan's exact
    result: the scan's witness when the optimum is below U0, else the
    top-of-band code, where the search starts."""
    top = top_of_band_code(p)
    return want.witness.columns if want.value < weight(top) else top.columns


def reference_uniform_packing_max(
    k: int, m: int, r: int, cardinality: int, budget: SearchBudget
) -> SearchResult:
    cols = list(itertools.combinations(range(1, m + 1), cardinality))
    state = _RefPlacement(m, k, r, cols)
    suffix = [0] * (len(cols) + 1)
    for j in range(len(cols) - 1, -1, -1):
        suffix[j] = suffix[j + 1] + min(state.room[i] for i in state.touched[j])
    meter = _RefMeter(budget)
    best = -1
    best_cols: list[int] = []
    chosen: list[int] = []

    def descend(options) -> None:
        nonlocal best, best_cols
        depth = len(chosen)
        if depth > best:
            best = depth
            best_cols = chosen.copy()
        for j in options:
            if depth + suffix[j] <= best:
                return
            meter.tick()
            filled = state.place(j)
            if filled is None:
                continue
            chosen.append(j)
            descend(range(j, len(cols)))
            chosen.pop()
            state.remove(j, filled)

    exact = True
    try:
        descend((0,))
    except _RefExhausted:
        exact = False
    witness = BatchCode(m, [cols[j] for j in best_cols])
    return SearchResult(best, witness, exact, meter.nodes)


def reference_max_edges_with_girth(
    m: int, girth_min: int, budget: SearchBudget
) -> SearchResult:
    """Include and exclude as two recursive calls; distances by a BFS over
    adjacency lists, independent of the library's bitmask frontier."""
    all_edges = list(itertools.combinations(range(1, m + 1), 2))
    meter = _RefMeter(budget)
    adj: list[set[int]] = [set() for _ in range(m + 1)]
    chosen: list[tuple[int, int]] = []
    best = -1
    best_edges: list[tuple[int, int]] = []

    def far_enough(u: int, v: int) -> bool:
        dist = {u: 0}
        queue = [u]
        for x in queue:
            if dist[x] == girth_min - 2:
                continue
            for y in adj[x]:
                if y not in dist:
                    if y == v:
                        return False
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return True

    def descend(idx: int) -> None:
        nonlocal best, best_edges
        if len(chosen) > best:
            best = len(chosen)
            best_edges = chosen.copy()
        if len(chosen) + (len(all_edges) - idx) <= best or idx == len(all_edges):
            return
        u, v = all_edges[idx]
        meter.tick()
        if far_enough(u, v):
            adj[u].add(v)
            adj[v].add(u)
            chosen.append((u, v))
            descend(idx + 1)
            chosen.pop()
            adj[u].remove(v)
            adj[v].remove(u)
        descend(idx + 1)

    exact = True
    try:
        descend(0)
    except _RefExhausted:
        exact = False
    witness = BatchCode(m, best_edges)
    return SearchResult(best, witness, exact, meter.nodes)


# ---------------------------------------------------------------------------
# Reference matcher: the set-based augmenting-path search the bitmask matcher
# in rcbc.retrieval replaced, kept verbatim so that plans, Hall sets and
# witnesses can be compared with it.


def reference_find_assignment(
    colsets: list[set[int]], demand: tuple[int, ...], avail: set[int]
) -> dict[int, int] | tuple[int, ...]:
    """Match files to servers; return file->server, or a Hall set on failure.

    Deterministic: files are taken in ascending order and each file probes
    its candidate servers in ascending order.
    """
    candidates = {f: sorted(colsets[f - 1] & avail) for f in demand}
    matched: dict[int, int] = {}  # server -> file

    def augment(f: int, visited: set[int]) -> bool:
        # Free servers first, so earlier files keep their lowest servers.
        for s in candidates[f]:
            if s not in matched:
                matched[s] = f
                return True
        for s in candidates[f]:
            if s in visited:
                continue
            visited.add(s)
            if augment(matched[s], visited):
                matched[s] = f
                return True
        return False

    for f in demand:
        visited: set[int] = set()
        if not augment(f, visited):
            # Every visited server is matched; those files plus f jointly
            # reach only the visited servers, one short of what they need.
            stuck = sorted({f} | {matched[s] for s in visited})
            return tuple(stuck)
    return {f: s for s, f in matched.items()}


def reference_service_check(code: BatchCode, p: CodeParams) -> ServiceWitness | None:
    """exhaustive_service_check's sweep, on the reference matcher."""
    if p.n == 0:
        return None
    colsets = [set(col) for col in code.columns]
    dsize = min(p.k, p.n)
    asize = p.m - p.r
    for dem in itertools.combinations(range(1, p.n + 1), dsize):
        for avail in itertools.combinations(range(1, p.m + 1), asize):
            result = reference_find_assignment(colsets, dem, set(avail))
            if isinstance(result, tuple):
                return ServiceWitness(dem, avail, result)
    return None


def random_banded_code(
    rng: random.Random, max_m: int = 7, max_n: int = 9
) -> tuple[BatchCode, CodeParams]:
    """A random code whose columns hold 1 to r + k servers; most fail."""
    p = random_valid_params(rng, max_m, max_n)
    top = min(p.r + p.k, p.m)
    cols = [
        tuple(rng.sample(range(1, p.m + 1), rng.randint(1, top)))
        for _ in range(p.n)
    ]
    return BatchCode(p.m, cols), p


def assert_matches_reference(
    code: BatchCode, p: CodeParams, files, avail
) -> bool:
    """Assert the sweep and one plan match the set-based reference matcher.

    Returns whether the plan was infeasible.
    """
    assert exhaustive_service_check(code, p) == reference_service_check(code, p)
    colsets = [set(col) for col in code.columns]
    want = reference_find_assignment(colsets, tuple(sorted(files)), set(avail))
    try:
        plan = plan_retrieval(code, p, files, avail)
    except InfeasibleDemand as exc:
        assert exc.hall_set == want
        return True
    assert plan.as_dict() == want
    return False


# ---------------------------------------------------------------------------
# Reference sweeps: the pair-by-pair definitional check, the set-by-set
# row-containment check and the pair-by-pair extension count that the prefix
# and column-side versions in rcbc replaced, kept verbatim so that reports and
# appended columns can be compared with them.


def reference_pairwise_service_check(
    code: BatchCode, p: CodeParams
) -> ServiceWitness | None:
    """Try every maximal demand against every maximal availability set.

    Returns None when all pairs are servable, else a witness for the first
    failing pair in (demand, availability) lexicographic order.  Serving smaller demands or
    larger availability sets is implied by restriction, so maximal pairs
    decide the property.
    """
    _check_dimensions(code, p)
    _check_serviceability(p)
    if p.n == 0:
        return None
    masks = _masks(code)
    avail_sets = combinations(range(1, p.m + 1), p.m - p.r)
    avails = [(avail, sum(1 << (s - 1) for s in avail)) for avail in avail_sets]
    for dem in combinations(range(1, p.n + 1), min(p.k, p.n)):
        for avail, amask in avails:
            result = _find_assignment(masks, dem, amask)
            if isinstance(result, tuple):
                return ServiceWitness(dem, avail, result)
    return None


def reference_row_containment(code: BatchCode, p: CodeParams) -> VerifyReport:
    masks = _masks(code)
    for d in range(p.r, p.r + p.k):
        for rows in combinations(range(1, p.m + 1), d):
            imask = sum(1 << (s - 1) for s in rows)
            contained = tuple(
                j + 1 for j, cm in enumerate(masks) if cm & ~imask == 0
            )
            if len(contained) > d - p.r:
                witness = RowContainmentWitness(rows, contained)
                return VerifyReport(False, "row-containment", witness)
    return VerifyReport(True, "row-containment")


def reference_extend_with_columns(
    code: BatchCode, p: CodeParams, count: int
) -> BatchCode:
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
    colsets = [set(col) for col in code.columns]
    cols = list(code.columns)
    remaining = count
    for cand in combinations(range(1, p.m + 1), top):
        if remaining == 0:
            break
        cset = set(cand)
        inside = sum(1 for col in colsets if col <= cset)
        take = min(p.k - 1 - inside, remaining)
        for _ in range(take):
            cols.append(cand)
            colsets.append(cset)
            remaining -= 1
    assert remaining == 0  # guaranteed by the capacity count
    return BatchCode(p.m, cols)


# ---------------------------------------------------------------------------
# Packing designs: a by-hand way to build an r = 0 gap base from block
# complements, kept as an oracle for the closed form in rcbc.constructions.


@dataclass(frozen=True)
class PackingDesign:
    """Blocks of fixed size over points 1..points, with bounded coverage:
    every `strength`-subset of points lies in at most `max_coverage` blocks.
    """

    points: int
    block_size: int
    strength: int
    max_coverage: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        points, size = self.points, self.block_size
        if points < 1 or size < 1 or self.strength < 1 or self.max_coverage < 0:
            raise ValueError("design parameters must be positive (coverage >= 0)")
        if self.strength > size:
            raise ValueError(f"strength {self.strength} exceeds block size {size}")
        blocks = tuple(tuple(sorted(set(block))) for block in self.blocks)
        for b in blocks:
            if len(b) != size:
                raise ValueError(f"block {b} does not have size {size}")
            if b[0] < 1 or b[-1] > points:
                raise ValueError(f"block {b} is not within points 1..{points}")
        object.__setattr__(self, "blocks", blocks)

    def coverage_violation(self) -> tuple[int, ...] | None:
        """A strength-subset covered by too many blocks, or None."""
        for sub in combinations(range(1, self.points + 1), self.strength):
            sset = set(sub)
            covered = sum(1 for b in self.blocks if sset <= set(b))
            if covered > self.max_coverage:
                return sub
        return None

    def max_block_multiplicity(self) -> int:
        seen: dict[tuple[int, ...], int] = {}
        for b in self.blocks:
            seen[b] = seen.get(b, 0) + 1
        return max(seen.values(), default=0)


def complete_packing_design(m: int, k: int) -> PackingDesign:
    """The all-blocks design whose complements form a code with r = 0.

    Blocks are every (m-k+2)-subset of 1..m; each (m-k+1)-subset lies in
    exactly k-1 of them.
    """
    if k < 3:
        raise ValueError(f"need k >= 3, got k={k}")
    if m < k:
        raise ValueError(f"need m >= k, got m={m}, k={k}")
    g = m - k
    return PackingDesign(
        points=m,
        block_size=g + 2,
        strength=g + 1,
        max_coverage=k - 1,
        blocks=tuple(combinations(range(1, m + 1), g + 2)),
    )


def construct_from_design(design: PackingDesign, p: CodeParams) -> BatchCode:
    """Columns are the block complements; block order is preserved.

    The design must match p: points = m, block size m - r - k + 2, strength
    one less, coverage at most k-1, and no block repeated more than k-2
    times.  The resulting columns have cardinality r+k-2.
    """
    g = p.m - (p.r + p.k)
    if g < 0:
        raise ValueError(f"need m >= r+k, got m={p.m}, r+k={p.r + p.k}")
    if design.points != p.m:
        raise ValueError(f"design has {design.points} points, expected {p.m}")
    if design.block_size != g + 2:
        raise ValueError(
            f"design blocks have size {design.block_size}, expected {g + 2}"
        )
    if design.strength != g + 1:
        raise ValueError(f"design strength {design.strength}, expected {g + 1}")
    if design.max_coverage != p.k - 1:
        raise ValueError(
            f"design coverage bound {design.max_coverage}, expected {p.k - 1}"
        )
    if len(design.blocks) != p.n:
        raise ValueError(f"design has {len(design.blocks)} blocks, expected n={p.n}")
    bad = design.coverage_violation()
    if bad is not None:
        raise ValueError(f"points {list(bad)} are covered by too many blocks")
    if design.max_block_multiplicity() > p.k - 2:
        raise ValueError(
            f"a block repeats more than k-2 = {p.k - 2} times"
        )
    everything = set(range(1, p.m + 1))
    cols = [tuple(sorted(everything - set(b))) for b in design.blocks]
    return BatchCode(p.m, cols)


# ---------------------------------------------------------------------------
# Weight-preserving transforms and the cardinality profile: the paper's type
# lemma and its column moves are proof tools, which no library or CLI path
# uses, kept as lemma checks on the codes the library builds.


def move_ones(code: BatchCode, i: int, j: int, moved: Iterable[int]) -> BatchCode:
    """Shift the servers in `moved` from column j to column i.

    Requires column i to be a proper subset of column j and `moved` to be a
    nonempty subset of their difference.  The result serves every batch the
    original did, at the same total weight.
    """
    a_i = set(code.column(i))
    a_j = set(code.column(j))
    r_set = set(moved)
    if i == j:
        raise ValueError("columns i and j must differ")
    if not a_i < a_j:
        raise ValueError(f"column {i} is not a proper subset of column {j}")
    if not r_set:
        raise ValueError("moved server set is empty")
    if not r_set <= a_j - a_i:
        raise ValueError(
            f"moved servers {sorted(r_set)} are not all in the difference "
            f"{sorted(a_j - a_i)}"
        )
    cols = list(code.columns)
    cols[i - 1] = tuple(sorted(a_i | r_set))
    cols[j - 1] = tuple(sorted(a_j - r_set))
    return BatchCode(code.m, cols)


def _smallest_superset(col: tuple[int, ...], size: int, m: int) -> tuple[int, ...]:
    # Lexicographically smallest `size`-superset of col within 1..m.
    have = set(col)
    extra = [v for v in range(1, m + 1) if v not in have]
    return tuple(sorted(col + tuple(extra[: size - len(col)])))


def normalize_types(code: BatchCode, p: CodeParams) -> BatchCode:
    """Rework column cardinalities into one of the two extremal shapes.

    Type (i): every cardinality in [r+1, r+k-1].  Type (ii): every
    cardinality in {r+k-1, r+k}.  Requires a verifying code whose columns
    already sit in [r+1, r+k]; weight and verification are preserved.  Codes
    with no column at r+k, or none below r+k-1, come back unchanged.

    Each round rewrites one cardinality-(r+k) column (any such column can be
    swapped for any other of the same cardinality without losing the service
    property) and then moves servers from it onto the first short column,
    lifting that column to cardinality r+k-1.
    """
    _check_dimensions(code, p)
    low, high = p.r + 1, p.r + p.k
    for col in code.columns:
        if not low <= len(col) <= high:
            raise ValueError(
                f"column cardinality {len(col)} outside [{low}, {high}]"
            )
    if not verify(code, p).ok:
        raise ValueError("code does not verify; refusing to transform")
    cols = [tuple(c) for c in code.columns]
    while True:
        smalls = [idx for idx, c in enumerate(cols) if len(c) <= high - 2]
        bigs = [idx for idx, c in enumerate(cols) if len(c) == high]
        if not smalls or not bigs:
            return BatchCode(code.m, cols)
        i, j = smalls[0], bigs[0]
        small = cols[i]
        target = _smallest_superset(small, high, code.m)
        moved = [v for v in target if v not in small][: high - 1 - len(small)]
        cols[i] = tuple(sorted(small + tuple(moved)))
        cols[j] = tuple(v for v in target if v not in moved)


class CardinalityProfile(_Value):
    """Histogram of column cardinalities relative to the [r+1, r+k] band."""

    band: dict[int, int]  # every cardinality r+1 .. r+k, zeros included
    out_of_band: dict[int, int]  # other cardinalities actually present

    def __init__(self, band: dict[int, int], out_of_band: dict[int, int]) -> None:
        self.__dict__.update(band=band, out_of_band=out_of_band)

    @property
    def total(self) -> int:
        return sum(self.band.values()) + sum(self.out_of_band.values())


def cardinality_profile(code: BatchCode, p: CodeParams) -> CardinalityProfile:
    """Count columns of each cardinality; optimal codes stay inside the band."""
    _check_dimensions(code, p)
    band = {i: 0 for i in range(p.r + 1, p.r + p.k + 1)}
    out: dict[int, int] = {}
    for col in code.columns:
        c = len(col)
        if c in band:
            band[c] += 1
        else:
            out[c] = out.get(c, 0) + 1
    return CardinalityProfile(band=band, out_of_band=out)
