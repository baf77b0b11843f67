"""Branch-and-bound searches: minimum weight and maximum packings."""

from __future__ import annotations

import functools
import itertools
import math
import random
import re
import sys
import time

import pytest

from rcbc import (
    CodeParams,
    ParameterError,
    SearchBudget,
    SearchResult,
    cross_check,
    exact_min_weight,
    gap_base_max,
    max_edges_with_girth,
    predicted_weight,
    trivial_weight_max,
    uniform_packing_max,
    verify,
    weight,
)
from rcbc.search import DEFAULT_BUDGET, BudgetExhausted, _placement, _skip, checkpoint
from helpers import (
    _RefExhausted,
    _RefMeter,
    _RefPlacement,
    brute_min_weight,
    cardinality_profile,
    reference_exact_min_weight,
    reference_uniform_packing_max,
    valid_kr_pairs,
)

NODE_CAPS = (1, 37, 20_000)


@functools.cache
def packing_optimum(k, m, r, card):
    return uniform_packing_max(k, m, r, card).value


def outcome(result):
    columns = result.witness.columns if result.witness is not None else None
    return (result.value, result.exact, result.bound, result.nodes, columns)


class TestBudget:
    def test_rejects_nonpositive_limits(self):
        with pytest.raises(ValueError):
            SearchBudget(node_limit=0)
        with pytest.raises(ValueError):
            SearchBudget(time_limit=0.0)

    @pytest.mark.parametrize("field", ["node_limit", "time_limit"])
    def test_rejects_nan_limits(self, field):
        # NaN passes a `<= 0` test, which would switch the cap off.
        with pytest.raises(ValueError, match=f"{field} must be positive, got nan"):
            SearchBudget(**{field: math.nan})

    @pytest.mark.parametrize("field", ["node_limit", "time_limit"])
    def test_infinite_limit_means_no_cap(self, field):
        budget = SearchBudget(**{field: math.inf})
        result = exact_min_weight(CodeParams(20, 3, 5, 1), budget)
        assert (result.value, result.exact) == (60, True)

    @pytest.mark.parametrize(
        "search, expected",
        [
            (lambda b: exact_min_weight(CodeParams(30, 4, 7, 1), b),
             (69, False, 4_096)),
            (lambda b: gap_base_max(4, 10, 2, b), (73, False, 4_096)),
            (lambda b: max_edges_with_girth(12, 5, b), (14, False, 4_096)),
        ],
    )
    def test_time_limit_stops_at_first_checkpoint(self, search, expected):
        # The deadline has passed by the first checkpoint, at node 4096.
        result = search(SearchBudget(time_limit=1e-9))
        assert (result.value, result.exact, result.nodes) == expected

    def test_whole_float_limit_counts_in_ints(self):
        assert type(SearchBudget(node_limit=5000.0).node_limit) is int
        result = exact_min_weight(CodeParams(30, 4, 7, 1), SearchBudget(5000.0))
        assert (result.exact, result.nodes) == (False, 5000)
        assert type(result.nodes) is int
        budget = SearchBudget(node_limit=4096.0)
        result = uniform_packing_max(4, 10, 2, 4, budget=budget)
        assert (result.exact, result.nodes) == (False, 4096)
        assert type(result.nodes) is int

    def test_unbounded_flag(self):
        assert SearchResult(None, None, True).unbounded
        assert not SearchResult(3, None, True).unbounded
        assert not SearchResult(None, None, False).unbounded

    def test_bound_follows_exact(self):
        assert SearchResult(3, None, True).bound == "exact"
        assert SearchResult(3, None, False).bound == "lower"


class TestMeter:
    """checkpoint(start + count, ...) must stop where `count` one-by-one
    reference ticks stop."""

    @pytest.mark.parametrize("expired", [False, True])
    @pytest.mark.parametrize(
        "limit, start, count",
        [
            (10_000, 0, 9_000),  # crosses 4096 and 8192
            (10_000, 100, 12_000),  # crosses 4096 and 8192, ends at the limit
            (20_000, 4_000, 200),  # crosses 4096
            (20_000, 4_095, 1),  # lands on 4096
            (20_000, 4_096, 4_096),  # lands on 8192
            (20_000, 4_097, 4_000),  # crosses none
            (5_000, 4_000, 3_000),  # crosses 4096, then the limit
            (4_096, 0, 5_000),  # the limit is the first checkpoint
        ],
    )
    def test_add_matches_ticks(self, limit, start, count, expired):
        budget = SearchBudget(node_limit=limit)
        ref = _RefMeter(budget)
        deadline = ref.deadline
        check_at = checkpoint(start, 0, limit, deadline)
        for _ in range(start):
            ref.tick()
        if expired:
            deadline = ref.deadline = time.monotonic() - 1.0
        stop = ref_stop = None
        try:
            check_at = checkpoint(start + count, check_at, limit, deadline)
        except BudgetExhausted as exhausted:
            stop = exhausted.args[0]
        try:
            for _ in range(count):
                ref.tick()
        except _RefExhausted:
            ref_stop = ref.nodes
        assert stop == ref_stop
        if stop is None:
            assert ref.nodes == start + count
            assert check_at == min(limit, 4_096 * ((start + count) // 4_096 + 1))
        if expired and start + count >= 4_096 * (start // 4_096 + 1):
            assert stop is not None  # the time check did run


class TestCanonicalRule:
    """A partition is the bitmask of the servers s (from 0) in one cell with
    s + 1; the root is one cell, (1 << (m - 1)) - 1."""

    @staticmethod
    def canonical(m, joined):
        servers = range(1, m + 1)
        cols = [c for card in servers for c in itertools.combinations(servers, card)]
        *_, apart = _placement(m, m, 0, cols)
        skip = _skip(apart, joined)
        return [col for j, col in enumerate(cols) if not skip >> j & 1]

    @staticmethod
    def refine(masks, joined, j):
        return joined & ~(masks[j] ^ masks[j] >> 1)

    def test_one_cell_allows_only_prefix_sets(self):
        for m in range(1, 8):
            prefixes = [tuple(range(1, c + 1)) for c in range(1, m + 1)]
            assert self.canonical(m, (1 << (m - 1)) - 1) == prefixes, m

    def test_each_cell_takes_its_lowest_servers(self):
        # Cells {1, 2, 3} and {4, 5}.
        assert self.canonical(5, 0b1011) == [
            (1,), (4,), (1, 2), (1, 4), (4, 5), (1, 2, 3), (1, 2, 4), (1, 4, 5),
            (1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 3, 4, 5),
        ]

    def test_refine_splits_cells_until_single_servers(self):
        cols = list(itertools.combinations(range(1, 5), 2))
        *_, masks, _ = _placement(4, 2, 1, cols)
        root = (1 << (4 - 1)) - 1
        assert root == 0b111
        assert self.refine(masks, root, 0) == 0b101  # by {1, 2}: {1, 2}, {3, 4}
        assert self.refine(masks, 0b101, 5) == 0b101  # by {3, 4}
        assert self.refine(masks, 0b101, 1) == 0  # by {1, 3}: single servers
        assert (1 << (1 - 1)) - 1 == 0  # m = 1: a single server
        assert _placement(1, 1, 0, [(1,)])[-2:] == ([1], [])


class TestPackedRooms:
    """The packed state of `_placement` against the room counters of the
    reference loop, along random placements: each field holds 2^(w-1) less
    the room left, so its guard bit is set exactly when the reference reports
    its subset full, and the `at` masks of the full subsets join into the
    reference's blocked candidates."""

    CASES = [
        (k, m, r) for r in range(3) for k in range(1, 5) for m in range(r + k, 8)
    ]

    @pytest.mark.parametrize("k, m, r", CASES)
    def test_state_matches_reference_rooms(self, k, m, r):
        servers = range(1, m + 1)
        cols = [
            col
            for card in range(r + 1, r + k + 1)
            for col in itertools.combinations(servers, card)
        ]
        start, guard, inc, at, _, _ = _placement(m, k, r, cols)
        w = (k - 1).bit_length() + 1
        # Fields run larger subsets first; the reference's subsets, smaller first.
        order = [
            sum(1 << b for b in rows)
            for d in range(r + k - 1, r, -1)
            for rows in itertools.combinations(range(m), d)
        ]
        ref_order = sorted(order, key=lambda s: (s.bit_count(), order.index(s)))
        field = [order.index(s) for s in ref_order]  # reference subset -> field
        rng = random.Random(f"{k},{m},{r}")
        for _ in range(3):
            ref = _RefPlacement(m, k, r, cols)
            state = start
            for _ in range(60):
                fits = [j for j in range(len(cols)) if not ref.mask[j] & ref.full]
                if not fits:
                    break
                j = rng.choice(fits)
                ref.place(j)
                state += inc[j]
                for i, room in enumerate(ref.room):
                    shift = w * field[i]
                    assert state >> shift & ~(-1 << w) == (1 << w - 1) - room
                full = [i for i in range(len(ref.room)) if ref.full >> i & 1]
                guards = sum(1 << w * field[i] + w - 1 for i in full)
                assert state & guard == guards
                blocked, bits = 0, guards
                while bits:
                    blocked |= at[bits.bit_length()]
                    bits ^= 1 << bits.bit_length() - 1
                expected = sum(
                    1 << c for c in range(len(cols)) if ref.mask[c] & ref.full
                )
                assert blocked == expected


class TestAgainstReferenceLoop:
    """Results and witnesses against the per-candidate loops in helpers,
    which have neither the weight bound nor the canonical rule, including
    runs cut short by the node limit."""

    @pytest.mark.parametrize("node_limit", NODE_CAPS)
    def test_uniform_packing_max(self, node_limit):
        # The canonical rule only skips candidates, so an exact run finds the
        # reference's count and witness in no more nodes.
        budget = SearchBudget(node_limit=node_limit)
        for m in range(1, 7):
            for r in range(m):
                for k in range(1, m - r + 1):
                    for card in range(r + 1, min(r + k - 1, m) + 1):
                        args = (k, m, r, card)
                        got = uniform_packing_max(*args, budget=budget)
                        want = reference_uniform_packing_max(*args, budget)
                        assert got.nodes <= want.nodes, args
                        if want.exact:
                            assert outcome(got)[:3] == outcome(want)[:3], args
                            assert got.witness.columns == want.witness.columns, args
                            continue
                        if not got.exact:
                            assert got.bound == "lower", args
                        code = got.witness
                        assert code.n == got.value, args
                        assert all(len(col) == card for col in code.columns), args
                        if code.n:
                            assert verify(code, CodeParams(code.n, k, m, r)).ok, args
                        assert got.value <= packing_optimum(*args), args

    @pytest.mark.parametrize("node_limit", NODE_CAPS)
    def test_exact_min_weight(self, node_limit):
        # The weight bound only skips subtrees, so an exact run finds the
        # reference's optimum and witness in no more nodes, and a capped run
        # has got at least as far as the reference.
        budget = SearchBudget(node_limit=node_limit)
        for m in range(1, 7):
            for n in range(1, 9):
                for k, r in valid_kr_pairs(m, n):
                    p = CodeParams(n, k, m, r)
                    got = exact_min_weight(p, budget)
                    want = reference_exact_min_weight(p, budget)
                    assert got.nodes <= want.nodes, p
                    if want.exact:
                        assert outcome(got)[:3] == outcome(want)[:3], p
                        assert got.witness.columns == want.witness.columns, p
                        continue
                    if want.witness is not None:
                        assert weight(got.witness) <= weight(want.witness), p
                    if got.witness is not None:
                        assert verify(got.witness, p).ok, p
                    if not got.exact:
                        assert got.bound == "lower", p
                        # The root bound lies between the floor and the optimum.
                        assert want.value <= got.value <= exact_min_weight(p).value, p

    def test_exact_min_weight_at_the_root(self):
        # Where the root floor meets U0 and the top-of-band code is the
        # scan's (k <= 2, or m > r+k and n >= (k-1) C(m, r+k-1)), the answer
        # comes before the first node, so a 1-node budget gets the uncapped
        # reference's value and witness.  Max-k tuples with k >= 3 search.
        # No large-n tuple with k >= 3 has n <= 8, so the grid gets those
        # with k = 3, m <= 5 at n = 2 C(m, r+2) and one more (the reference
        # takes seconds on the next, (30, 4, 5, 0)).
        first, uncapped = SearchBudget(node_limit=1), SearchBudget(node_limit=math.inf)
        tuples = [
            CodeParams(n, k, m, r)
            for m in range(1, 7)
            for n in range(1, 9)
            for k, r in valid_kr_pairs(m, n)
        ]
        for m, r in [(4, 0), (5, 0), (5, 1)]:
            n0 = 2 * math.comb(m, r + 2)
            tuples += [CodeParams(n0, 3, m, r), CodeParams(n0 + 1, 3, m, r)]
        answered = searched = 0
        for p in tuples:
            n, k, m, r = p.n, p.k, p.m, p.r
            got = exact_min_weight(p, first)
            if k <= 2 or (k < m - r and n >= (k - 1) * math.comb(m, r + k - 1)):
                want = reference_exact_min_weight(p, uncapped)
                assert outcome(got) == (*outcome(want)[:3], 0, want.witness.columns), p
                answered += 1
            elif k == m - r:
                assert got.nodes > 0, p
                searched += 1
        assert (answered, searched) == (279, 50)


class TestExactMinWeight:
    def test_known_values(self):
        cases = [
            ((4, 2, 4, 1), 8),
            ((8, 2, 4, 1), 18),
            ((10, 3, 5, 0), 17),
            ((7, 3, 5, 1), 15),
        ]
        for tup, expected in cases:
            result = exact_min_weight(CodeParams(*tup))
            assert result.exact and result.bound == "exact"
            assert result.value == expected, tup
            assert weight(result.witness) == expected
            assert verify(result.witness, CodeParams(*tup)).ok

    def test_witness_is_optimal_and_verifies(self):
        p = CodeParams(5, 2, 4, 0)
        result = exact_min_weight(p)
        assert result.value == weight(result.witness)
        assert verify(result.witness, p).ok

    def test_agrees_with_unpruned_enumeration(self):
        for m in (2, 3, 4):
            for n in range(1, 5):
                for k, r in valid_kr_pairs(m, n):
                    p = CodeParams(n, k, m, r)
                    got = exact_min_weight(p)
                    assert got.exact
                    assert got.value == brute_min_weight(p), p

    @pytest.mark.parametrize("node_limit", [1, 37, math.inf])
    def test_only_the_prefix_column_has_cardinality_r_plus_k(self, node_limit):
        # Of the (r+k)-columns a witness holds only {1, ..., r+k}, the one
        # candidate the search keeps of that cardinality.
        budget = SearchBudget(node_limit=node_limit)
        for m in range(1, 7):
            for n in range(1, 9):
                for k, r in valid_kr_pairs(m, n):
                    witness = exact_min_weight(CodeParams(n, k, m, r), budget).witness
                    if witness is not None:
                        top = [c for c in witness.columns if len(c) == r + k]
                        assert set(top) <= {tuple(range(1, r + k + 1))}, (n, k, m, r)

    def test_k1_is_replication(self):
        for n, m, r in [(1, 3, 0), (4, 3, 1), (6, 4, 2), (3, 5, 4)]:
            result = exact_min_weight(CodeParams(n, 1, m, r))
            assert result.value == (r + 1) * n

    def test_monotone_in_n(self):
        values = [exact_min_weight(CodeParams(n, 2, 4, 1)).value for n in range(2, 9)]
        assert values == sorted(values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_k_and_r(self):
        by_k = [exact_min_weight(CodeParams(6, k, 5, 1)).value for k in (1, 2, 3, 4)]
        assert by_k == sorted(by_k)
        by_r = [exact_min_weight(CodeParams(6, 2, 5, r)).value for r in (0, 1, 2, 3)]
        assert by_r == sorted(by_r)
        assert all(b > a for a, b in zip(by_r, by_r[1:]))

    def test_rejects_infeasible_parameters(self):
        with pytest.raises(ParameterError):
            exact_min_weight(CodeParams(4, 4, 5, 2))
        with pytest.raises(ParameterError):
            exact_min_weight(CodeParams(2, 3, 6, 1))
        # No batch can be formed from zero files.
        with pytest.raises(ParameterError):
            exact_min_weight(CodeParams(0, 1, 3, 1))

    def test_budget_exhaustion_returns_floor_as_lower_bound(self):
        p = CodeParams(10, 3, 6, 1)
        result = exact_min_weight(p, SearchBudget(node_limit=50))
        assert not result.exact
        assert result.bound == "lower"
        assert result.value == (p.r + 1) * p.n
        assert result.nodes < 60

    def test_budget_exhaustion_reports_root_bound(self):
        # A max-k tuple (m = r+k) with k = 3 is still searched.  n = 20 is
        # past (k-1) C(m, r+k-1) = 8, so the room count gives the large-n
        # weight n(r+k) - (k-1) C(m, r+k-1) = 72 before any column is placed.
        result = exact_min_weight(CodeParams(20, 3, 4, 1), SearchBudget(node_limit=1))
        assert (result.value, result.exact, result.bound) == (72, False, "lower")

    def test_proves_12_5_6_0(self):
        # The one tuple with m <= 6, n <= 12 that needs the cells at 1M nodes.
        p = CodeParams(12, 5, 6, 0)
        result = exact_min_weight(p, SearchBudget(node_limit=1_000_000))
        assert (result.value, result.exact) == (28, True)
        assert weight(result.witness) == 28
        assert cross_check(result.witness, p).ok

    def test_proves_every_small_tuple_and_matches_the_formulas(self):
        # Regression gate: every valid tuple with m <= 6, n <= 12 is proven
        # within 1M nodes, and equals every closed form that covers it.
        budget = SearchBudget(node_limit=1_000_000)
        covered = 0
        for m in range(1, 7):
            for n in range(1, 13):
                for k, r in valid_kr_pairs(m, n):
                    p = CodeParams(n, k, m, r)
                    result = exact_min_weight(p, budget)
                    assert result.exact, p
                    prediction = predicted_weight(p)
                    if prediction.known:
                        covered += 1
                        assert prediction.value == result.value, p
        assert covered == 569

    def test_optimum_profile_mixes_cardinalities(self):
        # At n=8, k=2, m=4, r=1 all six server pairs are used once and the
        # remaining two columns must be triples: 6*2 + 2*3 = 18.
        p = CodeParams(8, 2, 4, 1)
        result = exact_min_weight(p)
        assert cardinality_profile(result.witness, p).band == {2: 6, 3: 2}


class TestUniformPackingMax:
    def test_counts_every_subset_when_k2(self):
        # k=2, r=1: each server pair may appear at most once.
        for m in (4, 5):
            result = uniform_packing_max(2, m, 1, 2)
            assert result.exact
            assert result.value == math.comb(m, 2)

    def test_known_values(self):
        assert uniform_packing_max(3, 4, 1, 2).value == 4
        assert uniform_packing_max(3, 5, 1, 2).value == 6
        assert uniform_packing_max(3, 6, 1, 2).value == 9
        assert uniform_packing_max(3, 5, 0, 1).value == 5

    def test_duplicates_allowed_up_to_capacity(self):
        # k=3, r=0: every pair tolerates two whole columns, so pairs repeat.
        result = uniform_packing_max(3, 5, 0, 2)
        assert result.value == 2 * math.comb(5, 2)
        # k=3, r=1: each triple likewise carries two copies of itself.
        assert uniform_packing_max(3, 4, 1, 3).value == 2 * math.comb(4, 3)

    def test_witness_achieves_value(self):
        result = uniform_packing_max(3, 5, 1, 2)
        code = result.witness
        assert code.n == result.value == 6
        assert all(len(col) == 2 for col in code.columns)
        assert verify(code, CodeParams(code.n, 3, 5, 1)).ok

    def test_rejects_out_of_band_cardinality(self):
        with pytest.raises(ValueError):
            uniform_packing_max(2, 5, 1, 1)
        with pytest.raises(ValueError):
            uniform_packing_max(2, 5, 1, 3)

    def test_rejects_parameters_with_no_code(self):
        with pytest.raises(ParameterError):
            uniform_packing_max(3, 4, 4, 2)  # r >= m
        with pytest.raises(ParameterError):
            uniform_packing_max(4, 5, 2, 3)  # k > m - r

    def test_takes_no_count_cap(self):
        # Only the budget stops a packing search early.
        with pytest.raises(TypeError, match="limit"):
            uniform_packing_max(3, 6, 1, 2, limit=3)


class TestClosedForms:
    """The top of the band and Mantel's triangle-free graphs are answered
    without search, exact at 0 nodes under any budget, with the value and
    witness of the reference loop's exact run."""

    @pytest.mark.parametrize("m", range(4, 9))
    def test_mantel_matches_reference_loop(self, m):
        got = uniform_packing_max(3, m, 1, 2, SearchBudget(node_limit=1))
        want = reference_uniform_packing_max(3, m, 1, 2, DEFAULT_BUDGET)
        assert want.exact
        assert (got.value, got.exact, got.nodes) == (m * m // 4, True, 0)
        assert got.witness.columns == want.witness.columns

    def test_top_of_band_matches_reference_loop(self):
        for k in range(2, 5):
            for r in range(3):
                for m in range(r + k, 8):
                    args = (k, m, r, r + k - 1)
                    got = uniform_packing_max(*args, SearchBudget(node_limit=1))
                    want = reference_uniform_packing_max(*args, DEFAULT_BUDGET)
                    assert want.exact, args
                    assert got.value == (k - 1) * math.comb(m, r + k - 1), args
                    assert (got.value, got.exact, got.nodes) == (want.value, True, 0)
                    assert got.witness.columns == want.witness.columns, args

    @pytest.mark.parametrize("search", [gap_base_max, trivial_weight_max])
    def test_triangle_free_base_at_m12(self, search):
        # The scan does not finish within the default 20M nodes here.
        result = search(3, 12, 1)
        assert (result.value, result.exact, result.nodes) == (36, True, 0)

    def test_trivial_weight_max_past_the_recursion_limit(self):
        # 1225 pairs, each once: deeper than a search could recurse.
        result = trivial_weight_max(2, 50, 1)
        assert (result.value, result.exact, result.nodes) == (1_225, True, 0)


class TestGapBaseMax:
    def test_balanced_bipartite_values(self):
        # k=3, r=1: cardinality-2 columns, maximum is floor(m^2/4).
        for m, expected in [(4, 4), (5, 6), (6, 9)]:
            result = gap_base_max(3, m, 1)
            assert result.exact
            assert result.value == expected

    def test_r0_is_singleton_packing(self):
        # r=0, k=3 bases use single-server columns, one per server.
        assert gap_base_max(3, 5, 0).value == 5
        assert gap_base_max(3, 6, 0).value == 6

    def test_counting_bound_holds(self):
        for k, m, r in [(3, 5, 0), (3, 5, 1), (3, 6, 1), (4, 6, 0)]:
            result = gap_base_max(k, m, r)
            assert result.value * (r + k - 1) <= (k - 1) * math.comb(m, r + k - 2)

    def test_proves_4_8_0(self):
        # The closed form; the packing search proves the same 28 columns in
        # 775,794 nodes, where it meets the counting cap.
        result = gap_base_max(4, 8, 0, SearchBudget(node_limit=2_000_000))
        assert (result.value, result.exact, result.nodes) == (28, True, 0)
        assert verify(result.witness, CodeParams(28, 4, 8, 0)).ok
        scan = uniform_packing_max(4, 8, 0, 2, SearchBudget(node_limit=2_000_000))
        assert (scan.value, scan.exact, scan.nodes) == (28, True, 775_794)

    @pytest.mark.parametrize("node_limit", [None, 1])
    @pytest.mark.parametrize(
        "k, m, expected", [(4, 9, 36), (5, 8, 56), (6, 12, 495)]
    )
    def test_r0_is_every_k_minus_2_subset_once(self, k, m, expected, node_limit):
        # C(m, k-2) columns meet the counting bound, so no search runs; the
        # default budget did not prove (4, 9, 0) or (5, 8, 0) by search.
        budget = SearchBudget(node_limit=node_limit) if node_limit else None
        result = gap_base_max(k, m, 0, budget)
        assert (result.value, result.exact, result.nodes) == (expected, True, 0)
        subsets = itertools.combinations(range(1, m + 1), k - 2)
        assert result.witness.columns == tuple(subsets)

    def test_r0_witness_is_the_scans_for_m_at_least_2k_minus_3(self):
        # There the complete design is the only maximum, so the scan finds it.
        for m in range(5, 8):
            want = reference_uniform_packing_max(4, m, 0, 2, DEFAULT_BUDGET)
            assert want.exact
            assert gap_base_max(4, m, 0).witness.columns == want.witness.columns, m

    def test_parameter_guards(self):
        with pytest.raises(ValueError, match="k >= 3"):
            gap_base_max(2, 5, 1)
        with pytest.raises(ValueError):
            gap_base_max(3, 3, 1)
        with pytest.raises(ParameterError):
            gap_base_max(5, 4, 0)
        with pytest.raises(ValueError, match="k >= 3"):
            gap_base_max(2, 5, 0)


def counting_cap(k, m, r, c):
    """Most c-columns of any code: a d-subset holds at most d - r of them,
    and each lies in C(m-c, d-c) of the d-subsets."""
    return min(
        (d - r) * math.comb(m, d) // math.comb(m - c, d - c) for d in range(c, r + k)
    )


class TestBoundStops:
    """A search stops, exact, as soon as its best meets a bound it holds."""

    def test_packing_at_its_counting_cap_is_exact(self):
        budget = SearchBudget(node_limit=20_000)
        capped = 0
        for m in range(1, 9):
            for r in range(m):
                for k in range(1, m - r + 1):
                    for c in range(r + 1, r + k):
                        result = uniform_packing_max(k, m, r, c, budget)
                        if result.value == counting_cap(k, m, r, c):
                            capped += 1
                            assert result.exact, (k, m, r, c)
        assert capped == 156

    def test_large_n_meets_the_root_floor_at_once(self):
        # From n = (k-1) C(m, r+k-1) on, the root floor is the large-n
        # weight; the search returns at the first code that weighs it, within
        # one scan of the candidates below its n levels.
        for m in range(2, 9):
            for r in range(m - 1):
                for k in range(2, m - r + 1):
                    n0 = (k - 1) * math.comb(m, r + k - 1)
                    candidates = sum(math.comb(m, c) for c in range(r + 1, r + k)) + 1
                    for n in (n0, n0 + 1):
                        result = exact_min_weight(CodeParams(n, k, m, r))
                        assert result.exact, (n, k, m, r)
                        assert result.value == (r + k) * n - n0, (n, k, m, r)
                        assert result.nodes < n + candidates, (n, k, m, r)
        result = exact_min_weight(CodeParams(105, 4, 7, 1))
        assert (result.value, result.exact) == (420, True)
        assert result.nodes < 200


class TestPinnedSearches:
    """Exact (value, exact, nodes) of fixed instances.  The gap_base_max pins
    were taken from the dict-counter kernel the placement state replaced
    ((3, 8, 1) is Mantel's closed form, at 0 nodes),
    the exact_min_weight pins from the search with the weight bound; the
    node counts of exact runs were taken again with the canonical rule,
    again with the stops at the root floor and the counting cap, and again
    with the top-of-band code returned at the root.
    Node counts include runs cut short by the budget, so any change to the
    order, the pruning or the node counting shows here."""

    @pytest.mark.parametrize(
        "args, node_limit, expected",
        [
            ((3, 8, 1), None, (16, True, 0)),
            ((4, 10, 2), 300_000, (73, False, 300_000)),
            ((4, 8, 1), 100_000, (29, False, 100_000)),
            ((4, 6, 2), None, (9, True, 30)),
            # Meets its counting cap at this node, well inside the budget.
            ((3, 9, 5), None, (24, True, 949_187)),
        ],
    )
    def test_gap_base_max(self, args, node_limit, expected):
        budget = SearchBudget(node_limit=node_limit) if node_limit else None
        result = gap_base_max(*args, budget=budget)
        assert (result.value, result.exact, result.nodes) == expected
        assert result.bound == ("exact" if result.exact else "lower")
        assert result.witness.n == result.value
        assert verify(result.witness, CodeParams(result.value, *args)).ok

    def test_gap_base_max_witness(self):
        # Mantel: the balanced complete bipartite graph K_{4,4}, found in
        # the search order (the first column is the prefix {1, 2}).
        result = gap_base_max(3, 8, 1)
        assert result.witness.columns == (
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8), (3, 6),
            (3, 7), (3, 8), (4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8),
        )

    # Best-so-far witnesses of the capped runs pinned above, taken from the
    # kernel with `_Placement.place` and `remove`, before the room updates
    # were inlined into the search loops.
    @pytest.mark.parametrize(
        "args, node_limit, columns",
        [
            ((4, 10, 2), 300_000, (
                (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 3, 7),
                (1, 2, 3, 8), (1, 2, 3, 9), (1, 2, 3, 10), (1, 2, 5, 6), (1, 2, 5, 7),
                (1, 2, 5, 8), (1, 2, 5, 9), (1, 2, 5, 10), (1, 2, 6, 7), (1, 2, 6, 8),
                (1, 2, 6, 9), (1, 2, 6, 10), (1, 2, 7, 8), (1, 2, 7, 9), (1, 2, 7, 10),
                (1, 2, 8, 9), (1, 2, 8, 10), (1, 2, 9, 10), (1, 4, 5, 6), (1, 4, 5, 6),
                (1, 4, 5, 7), (1, 4, 5, 8), (1, 4, 5, 9), (1, 4, 5, 10), (1, 4, 7, 8),
                (1, 4, 7, 9), (1, 4, 7, 10), (1, 4, 8, 9), (1, 4, 8, 10),
                (1, 4, 9, 10), (2, 4, 5, 7), (2, 4, 5, 8), (2, 4, 5, 9), (2, 4, 5, 10),
                (2, 4, 6, 7), (2, 4, 6, 7), (2, 4, 6, 8), (2, 4, 6, 9), (2, 4, 6, 10),
                (2, 4, 8, 9), (2, 4, 8, 10), (2, 4, 9, 10), (3, 4, 5, 6), (3, 4, 5, 7),
                (3, 4, 5, 7), (3, 4, 5, 8), (3, 4, 5, 9), (3, 4, 5, 10), (3, 4, 6, 8),
                (3, 4, 6, 9), (3, 4, 6, 10), (3, 4, 8, 9), (3, 4, 8, 10),
                (3, 4, 9, 10), (3, 6, 7, 8), (3, 6, 7, 8), (3, 6, 7, 9), (3, 6, 7, 10),
                (3, 7, 9, 10), (5, 6, 7, 8), (5, 6, 7, 9), (5, 6, 7, 9), (5, 6, 7, 10),
                (5, 6, 8, 10), (5, 8, 9, 10), (6, 8, 9, 10), (7, 8, 9, 10),
                (7, 8, 9, 10),
            )),
            ((4, 8, 1), 100_000, (
                (1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7),
                (1, 2, 8), (1, 4, 5), (1, 4, 6), (1, 4, 7), (1, 4, 8), (1, 5, 6),
                (1, 5, 7), (1, 5, 8), (1, 6, 7), (1, 6, 8), (2, 7, 8), (3, 4, 5),
                (3, 4, 6), (3, 4, 7), (3, 4, 8), (3, 5, 6), (3, 5, 7), (3, 5, 8),
                (3, 6, 7), (3, 6, 8), (4, 7, 8), (5, 7, 8), (6, 7, 8),
            )),
        ],
    )
    def test_capped_gap_base_max_witness(self, args, node_limit, columns):
        result = gap_base_max(*args, SearchBudget(node_limit=node_limit))
        assert result.witness.columns == columns

    def test_capped_exact_min_weight(self):
        result = exact_min_weight(CodeParams(30, 4, 7, 1), SearchBudget(node_limit=50_000))
        assert (result.value, result.exact, result.nodes) == (69, False, 50_000)
        assert result.witness.columns == (
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3, 7), (2, 4, 7), (2, 5, 7),
            (2, 6, 7), (3, 4, 7), (3, 5, 7), (3, 6, 7), (4, 5, 7), (4, 6, 7),
            (5, 6, 7), (2, 3, 4, 5), (2, 3, 4, 5), (2, 3, 4, 5), (2, 3, 4, 6),
            (2, 3, 4, 6), (2, 3, 4, 6), (2, 3, 5, 6), (2, 3, 5, 6), (2, 3, 5, 6),
            (2, 4, 5, 6), (2, 4, 5, 6), (2, 4, 5, 6), (3, 4, 5, 6), (3, 4, 5, 6),
            (3, 4, 5, 6),
        )

    # Stop points at and around the first time checkpoint (4096 nodes),
    # taken from the per-candidate loop before runs were counted in bulk.
    @pytest.mark.parametrize("node_limit", [4_095, 4_096, 4_097])
    def test_gap_base_max_stop_points(self, node_limit):
        result = gap_base_max(4, 8, 1, SearchBudget(node_limit=node_limit))
        assert (result.value, result.exact, result.nodes) == (25, False, node_limit)
        assert result.witness.columns == (
            (1, 2, 3), (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 2, 7),
            (1, 2, 8), (1, 4, 5), (1, 4, 6), (1, 4, 7), (1, 4, 8), (1, 5, 6),
            (1, 5, 7), (1, 5, 8), (1, 6, 7), (1, 6, 8), (1, 7, 8), (3, 4, 5),
            (3, 4, 5), (3, 4, 6), (3, 4, 7), (3, 4, 8), (3, 6, 7), (3, 6, 8),
            (3, 7, 8),
        )

    # Runs stopped while some cell still holds two servers, where refining
    # the cells and not counting the skipped candidates decide the stop.
    # Values and witnesses taken from the search with a separate cells-free
    # loop.
    @pytest.mark.parametrize(
        "search, node_limit, expected, columns",
        [
            (functools.partial(gap_base_max, 4, 10, 2), 25, (10, False, 25), (
                (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 3, 7),
                (1, 2, 3, 8), (1, 2, 3, 9), (1, 2, 3, 10), (1, 2, 5, 6), (1, 2, 5, 7),
            )),
            (functools.partial(gap_base_max, 4, 10, 2), 50, (22, False, 50), (
                (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6), (1, 2, 3, 7),
                (1, 2, 3, 8), (1, 2, 3, 9), (1, 2, 3, 10), (1, 2, 5, 6), (1, 2, 5, 7),
                (1, 2, 5, 8), (1, 2, 5, 9), (1, 2, 5, 10), (1, 2, 6, 7), (1, 2, 6, 8),
                (1, 2, 6, 9), (1, 2, 6, 10), (1, 2, 7, 8), (1, 2, 7, 9), (1, 2, 7, 10),
                (1, 2, 8, 9), (1, 2, 8, 10),
            )),
            (functools.partial(max_edges_with_girth, 7, 5), 100, (7, False, 100), (
                (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (6, 7),
            )),
            # Counting the skipped candidates as nodes stops this run at 6.
            (functools.partial(max_edges_with_girth, 7, 5), 94, (7, False, 94), (
                (1, 2), (1, 3), (1, 4), (1, 5), (2, 6), (3, 7), (6, 7),
            )),
        ],
    )
    def test_capped_in_the_cell_phase(self, search, node_limit, expected, columns):
        result = search(budget=SearchBudget(node_limit=node_limit))
        assert (result.value, result.exact, result.nodes) == expected
        assert result.witness.columns == columns

    @pytest.mark.parametrize(
        "node_limit, columns",
        [
            (50, (
                (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3, 4), (2, 3, 4),
                (2, 3, 5), (2, 3, 5), (2, 3, 6),
            )),
            (5_000, (
                (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5),
                (4, 6), (1, 5, 6),
            )),
        ],
    )
    def test_exact_min_weight_stop_points(self, node_limit, columns):
        result = exact_min_weight(CodeParams(10, 3, 6, 1), SearchBudget(node_limit=node_limit))
        # Cut short at 50 nodes, the search reports the bound at the empty
        # placement, here the floor (r+1)n; within 5,000 it proves the
        # optimum, at 138 nodes.
        expected = {50: (20, False, 50), 5_000: (21, True, 138)}[node_limit]
        assert (result.value, result.exact, result.nodes) == expected
        assert result.witness.columns == columns

    def test_exact_min_weight(self):
        result = exact_min_weight(CodeParams(20, 3, 5, 1))
        # The root floor is already U0 = 60 and m > r+k, so the top-of-band
        # code is returned with no search.
        assert (result.value, result.exact, result.nodes) == (60, True, 0)
        # Two copies of every 3-subset of the 5 servers.
        assert result.witness.columns == tuple(
            col for col in itertools.combinations(range(1, 6), 3) for _ in range(2)
        )


class TestTrivialWeightMax:
    def test_k1_unbounded(self):
        result = trivial_weight_max(1, 4, 1)
        assert result.exact
        assert result.value is None
        assert result.unbounded

    def test_k2_counts_distinct_supports(self):
        for m in (3, 4, 5):
            for r in range(0, m - 1):
                result = trivial_weight_max(2, m, r)
                assert result.value == math.comb(m, r + 1), (m, r)

    def test_k3_values(self):
        assert trivial_weight_max(3, 4, 1).value == 4
        assert trivial_weight_max(3, 5, 1).value == 6

    def test_r0_any_k_is_m(self):
        for m in (2, 3, 4, 5):
            for k in range(2, m + 1):
                assert trivial_weight_max(k, m, 0).value == m

    def test_rejects_r_at_least_m(self):
        with pytest.raises(ParameterError):
            trivial_weight_max(2, 3, 3)

    def test_boundary_weight_is_truly_minimal(self):
        # At the maximum n, weight (r+1)n is met; verify the witness directly.
        result = trivial_weight_max(3, 5, 1)
        code = result.witness
        p = CodeParams(code.n, 3, 5, 1)
        assert verify(code, p).ok
        assert weight(code) == 2 * code.n
        assert exact_min_weight(p).value == 2 * code.n


class TestRecursionLimit:
    """Each search recurses once per placed column; one deeper than the
    interpreter allows fails as a ValueError."""

    @pytest.mark.parametrize(
        "search, args",
        [
            (exact_min_weight, (CodeParams(1200, 3, 4, 1),)),
            (uniform_packing_max, (4, 50, 0, 2)),
        ],
        ids=["exact_min_weight", "uniform_packing_max"],
    )
    def test_too_deep_is_a_value_error(self, search, args):
        limit = f"Python's recursion limit ({sys.getrecursionlimit()})"
        match = re.escape(f"{search.__name__} recurses past {limit}")
        with pytest.raises(ValueError, match=match):
            search(*args)

    def test_below_the_limit_still_proves(self):
        # 900 columns placed: 900 levels deep.
        result = exact_min_weight(CodeParams(900, 3, 4, 1))
        assert (result.value, result.exact, result.nodes) == (3_592, True, 910)
        # At k = 2 the top-of-band code meets the root floor: no recursion.
        result = exact_min_weight(CodeParams(900, 2, 4, 1))
        assert (result.value, result.exact, result.nodes) == (2_694, True, 0)
        # C(40, 2) = 780 pairs, each once: a closed form, with no recursion.
        result = uniform_packing_max(2, 40, 1, 2)
        assert (result.value, result.exact, result.nodes) == (780, True, 0)
        # Girth 3 is a closed form: K_50 with no search, so no recursion.
        result = max_edges_with_girth(50, 3)
        assert (result.value, result.exact, result.nodes) == (1_225, True, 0)
