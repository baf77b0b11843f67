"""Explicit constructions, extensions, packing designs, and the dispatcher."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from rcbc import constructions
from rcbc import (
    BatchCode,
    CodeParams,
    NoKnownConstruction,
    ParameterError,
    SearchBudget,
    canonicalize,
    construct_circulant,
    construct_gap,
    construct_large_n,
    construct_max_k,
    construct_optimal,
    exact_min_weight,
    extend_with_columns,
    extension_capacity,
    gap_base_max,
    predicted_weight,
    verify,
    weight,
)
from helpers import (
    TALL_PARAMS,
    PackingDesign,
    brute_max_extension,
    cardinality_profile,
    complete_packing_design,
    construct_from_design,
    max_batch_code,
    reference_extend_with_columns,
    tall_code,
    valid_kr_pairs,
)


class TestCirculant:
    def test_reproduces_reference_matrix(self):
        assert construct_circulant(TALL_PARAMS) == tall_code()

    def test_meets_weight_floor_for_every_k(self):
        for m in (3, 4, 5, 6):
            for n in range(1, m + 1):
                for r in range(0, m - 1):
                    for k in range(1, min(n, m - r) + 1):
                        p = CodeParams(n, k, m, r)
                        code = construct_circulant(p)
                        assert weight(code) == (r + 1) * n
                        assert verify(code, p).ok, p

    def test_rejects_more_files_than_servers(self):
        with pytest.raises(ValueError, match="n <= m"):
            construct_circulant(CodeParams(7, 2, 6, 1))


class TestMaxK:
    def test_reproduces_reference_matrix(self):
        assert construct_max_k(7, 6, 3) == max_batch_code()

    def test_weight_formula_and_verification(self):
        for m in (3, 4, 5):
            for r in range(0, m - 1):
                for n in range(m, m + 4):
                    code = construct_max_k(n, m, r)
                    assert weight(code) == m * (n - m + r + 1)
                    p = CodeParams(n, m - r, m, r)
                    assert verify(code, p).ok, p

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="n >= m"):
            construct_max_k(5, 6, 3)
        with pytest.raises(ValueError, match="0 <= r < m"):
            construct_max_k(7, 6, 6)


class TestLargeN:
    def test_weight_and_profile(self):
        p = CodeParams(8, 2, 4, 1)
        code = construct_large_n(p)
        assert weight(code) == 18
        assert cardinality_profile(code, p).band == {2: 6, 3: 2}
        assert verify(code, p).ok

    def test_weight_formula_across_parameters(self):
        for m, k, r in [(4, 2, 0), (4, 2, 1), (4, 3, 0), (5, 2, 2), (5, 3, 1)]:
            floor_n = (k - 1) * math.comb(m, r + k - 1)
            for n in (floor_n, floor_n + 1, floor_n + 3):
                n = max(n, k)
                p = CodeParams(n, k, m, r)
                code = construct_large_n(p)
                assert weight(code) == (r + k) * n - floor_n, p
                assert verify(code, p).ok, p

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="needs n >="):
            construct_large_n(CodeParams(5, 2, 4, 1))

    def test_rejects_k1(self):
        with pytest.raises(ValueError, match="k >= 2"):
            construct_large_n(CodeParams(5, 1, 4, 1))


class TestExtension:
    def test_capacity_of_reference_code(self):
        # Two whole columns fit in each of the six 5-sets; the four existing
        # width-4 columns each sit inside two of them.
        assert extension_capacity(tall_code(), TALL_PARAMS) == 4

    def test_capacity_of_empty_code(self):
        p = CodeParams(0, 2, 4, 1)
        assert extension_capacity(BatchCode(4, ()), p) == math.comb(4, 2)

    def test_capacity_matches_brute_force(self):
        cases = [
            (BatchCode(4, ()), CodeParams(0, 2, 4, 1)),
            (BatchCode(4, ()), CodeParams(0, 3, 4, 0)),
            (BatchCode(4, [(1, 2)]), CodeParams(1, 3, 4, 1)),
            (tall_code(), TALL_PARAMS),
        ]
        for code, p in cases:
            assert extension_capacity(code, p) == brute_max_extension(code, p), p

    def test_each_appended_column_consumes_one_unit(self):
        p = CodeParams(0, 2, 4, 1)
        code = BatchCode(4, ())
        full = extension_capacity(code, p)
        for count in range(full + 1):
            grown = extend_with_columns(code, p, count)
            assert grown.n == count
            assert all(len(col) == p.r + p.k - 1 for col in grown.columns)
            p_now = CodeParams(count, p.k, p.m, p.r)
            assert verify(grown, p_now).ok
            assert extension_capacity(grown, p_now) == full - count

    def test_extension_beyond_capacity_rejected(self):
        p = CodeParams(0, 2, 4, 1)
        code = BatchCode(4, ())
        with pytest.raises(ValueError, match="exceeds extension capacity"):
            extend_with_columns(code, p, math.comb(4, 2) + 1)
        with pytest.raises(ValueError, match="nonnegative"):
            extend_with_columns(code, p, -1)

    def test_oversized_columns_rejected(self):
        p = CodeParams(1, 2, 4, 1)
        with pytest.raises(ValueError, match="exceeds r\\+k-1"):
            extension_capacity(BatchCode(4, [(1, 2, 3)]), p)

    def test_failing_code_rejected(self):
        p = CodeParams(2, 2, 4, 1)
        with pytest.raises(ValueError, match="does not verify"):
            extension_capacity(BatchCode(4, [(1, 2), (1, 2)]), p)


class TestPackingDesign:
    def test_validation(self):
        with pytest.raises(ValueError, match="size"):
            PackingDesign(4, 2, 2, 1, [(1, 2, 3)])
        with pytest.raises(ValueError, match="points 1"):
            PackingDesign(4, 2, 2, 1, [(1, 5)])
        with pytest.raises(ValueError, match="strength"):
            PackingDesign(4, 2, 3, 1, [(1, 2)])
        with pytest.raises(ValueError):
            PackingDesign(0, 2, 2, 1, [])

    def test_coverage_violation_found(self):
        design = PackingDesign(5, 3, 2, 1, [(1, 2, 3), (1, 2, 4)])
        assert design.coverage_violation() == (1, 2)
        fine = PackingDesign(5, 3, 2, 1, [(1, 2, 3), (1, 4, 5)])
        assert fine.coverage_violation() is None

    def test_block_multiplicity(self):
        design = PackingDesign(5, 2, 1, 3, [(1, 2), (2, 1), (3, 4)])
        assert design.max_block_multiplicity() == 2
        assert PackingDesign(5, 2, 1, 3, []).max_block_multiplicity() == 0

    def test_complete_design_shape(self):
        design = complete_packing_design(5, 3)
        assert design.points == 5
        assert design.block_size == 4
        assert design.strength == 3
        assert design.max_coverage == 2
        assert len(design.blocks) == math.comb(5, 4)
        assert design.coverage_violation() is None
        assert design.max_block_multiplicity() == 1

    def test_complete_design_covers_exactly_k_minus_one(self):
        import itertools

        for m, k in [(5, 3), (6, 3), (6, 4)]:
            design = complete_packing_design(m, k)
            t = design.strength
            for sub in itertools.combinations(range(1, m + 1), t):
                covered = sum(1 for b in design.blocks if set(sub) <= set(b))
                assert covered == k - 1

    def test_complete_design_guards(self):
        with pytest.raises(ValueError, match="k >= 3"):
            complete_packing_design(5, 2)
        with pytest.raises(ValueError, match="m >= k"):
            complete_packing_design(4, 5)


class TestConstructFromDesign:
    def test_complement_columns(self):
        design = complete_packing_design(5, 3)
        p = CodeParams(5, 3, 5, 0)
        code = construct_from_design(design, p)
        assert code.columns == ((5,), (4,), (3,), (2,), (1,))
        assert verify(code, p).ok

    def test_matches_base_packing_maximum(self):
        # The complete design is as large as any cardinality-(r+k-2) code.
        for m, k in [(5, 3), (6, 3)]:
            design = complete_packing_design(m, k)
            p = CodeParams(len(design.blocks), k, m, 0)
            code = construct_from_design(design, p)
            assert verify(code, p).ok
            assert code.n == gap_base_max(k, m, 0).value

    def test_complete_design_is_the_r0_gap_base(self):
        # The dispatcher's closed-form r = 0 base is this design's complement.
        from rcbc.constructions import _gap_base

        for m in range(3, 9):
            for k in range(3, m + 1):
                design = complete_packing_design(m, k)
                p = CodeParams(len(design.blocks), k, m, 0)
                base = _gap_base(k, m, 0, None)
                assert base.exact and base.value == p.n, (m, k)
                got = canonicalize(construct_from_design(design, p))
                assert got == canonicalize(base.witness), (m, k)

    def test_parameter_mismatches_rejected(self):
        design = complete_packing_design(5, 3)
        with pytest.raises(ValueError, match="points"):
            construct_from_design(design, CodeParams(5, 3, 6, 0))
        with pytest.raises(ValueError, match="blocks, expected n"):
            construct_from_design(design, CodeParams(4, 3, 5, 0))
        with pytest.raises(ValueError, match="m >= r\\+k"):
            construct_from_design(design, CodeParams(5, 3, 5, 3))
        # Shifting r changes the expected block size.
        with pytest.raises(ValueError, match="size"):
            construct_from_design(design, CodeParams(5, 3, 5, 1))

    def test_strength_and_coverage_mismatches_rejected(self):
        # (n, 3, 5, 0) needs blocks of size 4, strength 3 and coverage 2.
        wrong_strength = PackingDesign(5, 4, 2, 2, [(1, 2, 3, 4)])
        with pytest.raises(ValueError, match="design strength 2, expected 3"):
            construct_from_design(wrong_strength, CodeParams(1, 3, 5, 0))
        wrong_coverage = PackingDesign(5, 4, 3, 1, [(1, 2, 3, 4)])
        with pytest.raises(ValueError, match="coverage bound 1, expected 2"):
            construct_from_design(wrong_coverage, CodeParams(1, 3, 5, 0))

    def test_coverage_violation_rejected(self):
        blocks = [(1, 2, 3, 4), (1, 2, 3, 5), (1, 2, 3, 6)]
        design = PackingDesign(6, 4, 3, 2, blocks)
        with pytest.raises(ValueError, match="too many blocks"):
            construct_from_design(design, CodeParams(3, 3, 6, 1))

    def test_block_repetition_rejected(self):
        blocks = [(1, 2, 3, 4), (1, 2, 3, 4)]
        design = PackingDesign(6, 4, 3, 2, blocks)
        with pytest.raises(ValueError, match="repeats"):
            construct_from_design(design, CodeParams(2, 3, 6, 1))

    def test_valid_nontrivial_design(self):
        blocks = [(1, 2, 3, 4), (1, 2, 5, 6), (3, 4, 5, 6)]
        design = PackingDesign(6, 4, 3, 2, blocks)
        p = CodeParams(3, 3, 6, 1)
        code = construct_from_design(design, p)
        assert code.columns == ((5, 6), (3, 4), (1, 2))
        assert verify(code, p).ok


class TestConstructGap:
    def test_agrees_with_large_n_at_the_seam(self):
        p = CodeParams(20, 3, 5, 0)
        base = gap_base_max(3, 5, 0).witness
        assert weight(construct_gap(p, base)) == weight(construct_large_n(p)) == 40

    def test_interior_point_weight_and_optimality(self):
        p = CodeParams(10, 3, 5, 0)
        base = gap_base_max(3, 5, 0).witness
        code = construct_gap(p, base)
        assert weight(code) == 17
        assert verify(code, p).ok
        assert exact_min_weight(p).value == 17

    def test_weight_formula_across_the_interval(self):
        k, m, r = 3, 5, 0
        base = gap_base_max(k, m, r).witness
        total = (k - 1) * math.comb(m, r + k - 1)
        span = m - r - k + 1
        low = total - span * base.n
        for n in range(low, total + 1):
            p = CodeParams(n, k, m, r)
            code = construct_gap(p, base)
            x = (total - n) // span
            assert weight(code) == (r + k - 1) * n - x, n
            assert verify(code, p).ok, n

    def test_base_validation(self):
        p = CodeParams(10, 3, 5, 0)
        with pytest.raises(ValueError, match="servers"):
            construct_gap(p, BatchCode(4, [(1,)] * 4))
        with pytest.raises(ValueError, match="cardinality"):
            construct_gap(p, BatchCode(5, [(1, 2)] * 5))
        with pytest.raises(ValueError, match="k >= 3"):
            construct_gap(CodeParams(6, 2, 5, 0), BatchCode(5, [(1,)]))
        with pytest.raises(ValueError, match="needs n <="):
            construct_gap(CodeParams(21, 3, 5, 0), BatchCode(5, [(1,)] * 5))

    def test_short_base_rejected(self):
        # n = 12 needs x = 9 kept columns here, more than this base has.
        base = BatchCode(6, [(1, 2), (3, 4), (5, 6)])
        with pytest.raises(ValueError, match="base has only"):
            construct_gap(CodeParams(12, 3, 6, 1), base)


class TestPredictedWeight:
    def test_regime_tags_and_values(self):
        cases = [
            ((5, 1, 3, 1), "k1", 10),
            ((4, 3, 6, 3), "circulant", 16),
            ((5, 2, 4, 1), "k2-small", 10),
            ((7, 3, 6, 3), "max-k", 30),
            ((8, 2, 4, 1), "large-n", 18),
            ((10, 3, 5, 0), "gap", 17),
            ((20, 3, 5, 0), "large-n", 40),
        ]
        for tup, regime, value in cases:
            pred = predicted_weight(CodeParams(*tup))
            assert pred.known
            assert (pred.regime, pred.value) == (regime, value), tup

    def test_uncovered_parameters_reported_unknown(self):
        pred = predicted_weight(CodeParams(7, 3, 5, 1))
        assert not pred.known
        assert pred.regime is None and pred.value is None

    def test_overlapping_formulas_agree(self):
        # max-k and gap both cover this point; both give 12.
        pred = predicted_weight(CodeParams(5, 3, 4, 1))
        assert pred.regime == "max-k"
        assert pred.value == 12
        # k2-small and large-n both cover this one; both give 12.
        pred = predicted_weight(CodeParams(6, 2, 4, 1))
        assert pred.regime == "k2-small"
        assert pred.value == 12

    def test_never_disagrees_on_small_parameters(self):
        for m in range(2, 5):
            for n in range(1, 7):
                for k, r in valid_kr_pairs(m, n):
                    p = CodeParams(n, k, m, r)
                    pred = predicted_weight(p)  # must not raise
                    if pred.known:
                        assert pred.value == exact_min_weight(p).value, p

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ParameterError):
            predicted_weight(CodeParams(3, 4, 6, 3))

    def test_disagreeing_formulas_raise(self, monkeypatch):
        # max-k and large-n both cover (10, 3, 4, 1) with weight 32; a wrong
        # C(4, 3) = 5 moves large-n's to 40 - 2*5 = 30, and the guard fires.
        def comb(a, b):
            return 5 if (a, b) == (4, 3) else math.comb(a, b)

        monkeypatch.setattr(constructions, "math", SimpleNamespace(comb=comb))
        p = CodeParams(10, 3, 4, 1)
        detail = "formulas disagree: max-k=32, large-n=30"
        for call in (predicted_weight, construct_optimal):
            with pytest.raises(RuntimeError, match=detail):
                call(p)


class TestConstructOptimal:
    def test_every_regime_builds_its_prediction(self):
        tuples = [
            (5, 1, 3, 1),
            (4, 3, 6, 3),
            (5, 2, 4, 1),
            (7, 3, 6, 3),
            (8, 2, 4, 1),
            (10, 3, 5, 0),
            (17, 3, 5, 0),
            (20, 3, 5, 0),
        ]
        for tup in tuples:
            p = CodeParams(*tup)
            code, pred = construct_optimal(p)
            assert weight(code) == pred.value, tup
            assert verify(code, p).ok, tup

    def test_reference_matrices_come_back_bit_exact(self):
        code, pred = construct_optimal(TALL_PARAMS)
        assert code == tall_code() and pred.regime == "circulant"
        code, pred = construct_optimal(CodeParams(7, 3, 6, 3))
        assert code == max_batch_code() and pred.regime == "max-k"

    def test_deterministic(self):
        for tup in [(8, 2, 4, 1), (10, 3, 5, 0), (7, 3, 6, 3)]:
            p = CodeParams(*tup)
            a, _ = construct_optimal(p)
            b, _ = construct_optimal(p)
            assert a == b

    def test_built_weight_must_match_its_row(self, monkeypatch):
        # A builder whose code is heavier than its row's weight (here the
        # k = 1 replication with its first column widened to every server)
        # is refused rather than returned.
        from rcbc import constructions

        real = constructions._regimes

        def widened(p, budget):
            rows, budget_limited = real(p, budget)
            tag, value, build = rows[0]

            def heavier():
                return BatchCode(p.m, [range(1, p.m + 1), *build().columns[1:]])

            return [(tag, value, heavier)], budget_limited

        monkeypatch.setattr(constructions, "_regimes", widened)
        match = "constructed weight 11 differs from predicted 10"
        with pytest.raises(RuntimeError, match=match):
            construct_optimal(CodeParams(5, 1, 3, 1))

    def test_uncovered_parameters_raise(self):
        with pytest.raises(NoKnownConstruction) as info:
            construct_optimal(CodeParams(7, 3, 5, 1))
        assert not info.value.budget_limited

    def test_budget_exhaustion_is_reported(self):
        # Inside the conceivable gap window, but the base search cannot
        # finish under a five-node budget.
        p = CodeParams(42, 4, 8, 1)
        tiny = SearchBudget(node_limit=5)
        with pytest.raises(NoKnownConstruction) as info:
            construct_optimal(p, budget=tiny)
        assert info.value.budget_limited
        assert "within the search budget" in str(info.value)


    def test_capped_base_search_is_cached_per_budget(self, monkeypatch):
        # (4, 8, 1) gap window: 42 <= n < 210.  A 5,000-node base search is
        # cut short, and its lower bound certifies neither n below.
        from rcbc import constructions, search

        calls = []
        real = search.gap_base_max

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "gap_base_max", counting)
        monkeypatch.setattr(constructions, "_base_cache", {})
        capped = SearchBudget(node_limit=5_000)
        for n in (42, 43):
            with pytest.raises(NoKnownConstruction) as info:
                construct_optimal(CodeParams(n, 4, 8, 1), budget=capped)
            assert info.value.budget_limited
        assert predicted_weight(CodeParams(44, 4, 8, 1), budget=capped).budget_limited
        assert len(calls) == 1
        with pytest.raises(NoKnownConstruction) as info:
            construct_optimal(CodeParams(42, 4, 8, 1), budget=SearchBudget(node_limit=6_000))
        assert info.value.budget_limited
        assert len(calls) == 2

    def test_r0_base_is_the_complete_design_without_search(self, monkeypatch):
        # (5, 7, 0) gap window: 35 <= n < 140.  n = 36 needs a base of 35
        # columns, C(7, 3): the counting bound, met by every 3-subset once.
        from rcbc import search

        def no_search(*args, **kwargs):
            raise AssertionError("a packing search ran for an r = 0 base")

        monkeypatch.setattr(search, "uniform_packing_max", no_search)
        p = CodeParams(36, 5, 7, 0)
        code, pred = construct_optimal(p, budget=SearchBudget(node_limit=1))
        assert (pred.regime, pred.value) == ("gap", 4 * 36 - (140 - 36) // 3)
        assert weight(code) == pred.value
        assert verify(code, p).ok

    def test_exact_base_is_reused_under_any_budget(self, monkeypatch):
        from rcbc import constructions, search

        calls = []
        real = search.gap_base_max

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "gap_base_max", counting)
        monkeypatch.setattr(constructions, "_base_cache", {})
        p = CodeParams(30, 3, 6, 1)
        code, pred = construct_optimal(p)
        assert pred.regime == "gap" and not pred.budget_limited
        again, _ = construct_optimal(p, budget=SearchBudget(node_limit=1_000))
        assert again == code
        assert len(calls) == 1


class TestExtensionAgainstPairwiseCount:
    def test_gap_codes_append_the_same_columns(self):
        # construct_gap's extension step, on every gap window with m <= 8:
        # the column-side counts append what the per-pair count appended.
        from rcbc.constructions import _gap_base

        budget = SearchBudget(node_limit=5_000)
        checked = 0
        for m in range(3, 9):
            for r in range(m):
                for k in range(3, m - r + 1):
                    total = (k - 1) * math.comb(m, r + k - 1)
                    span = m - r - k + 1
                    base = _gap_base(k, m, r, budget)
                    columns = canonicalize(base.witness).columns
                    for n in range(max(k, total - span * base.value), total):
                        p = CodeParams(n, k, m, r)
                        x = (total - n) // span
                        partial = BatchCode(m, columns[:x])
                        grown = extend_with_columns(partial, p, n - x)
                        assert grown == reference_extend_with_columns(
                            partial, p, n - x
                        ), p
                        checked += 1
        assert checked > 2_000
