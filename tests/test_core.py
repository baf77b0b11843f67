"""Core data model, verification strategies, and transforms."""

from __future__ import annotations

import random

import pytest

import rcbc
from rcbc import (
    BatchCode,
    CodeParams,
    ColumnUnionWitness,
    NoKnownConstruction,
    ParameterError,
    RowContainmentWitness,
    ServiceWitness,
    VerifyReport,
    canonicalize,
    construct_large_n,
    construct_optimal,
    cross_check,
    validate_params,
    verify,
    weight,
)
from helpers import (
    MANY_FILES_PARAMS,
    TALL_PARAMS,
    all_matrices,
    cardinality_profile,
    many_files_code,
    max_batch_code,
    move_ones,
    normalize_types,
    random_accepted_code,
    random_banded_code,
    random_matrix,
    random_valid_params,
    reference_pairwise_service_check,
    reference_row_containment,
    tall_code,
    valid_kr_pairs,
)

STRATEGIES = ("definitional", "column-union", "row-containment")


class TestParams:
    def test_accepts_solvable_parameters(self):
        validate_params(CodeParams(4, 3, 6, 3))

    def test_rejects_batch_larger_than_guaranteed_servers(self):
        with pytest.raises(ParameterError, match="m-r"):
            validate_params(CodeParams(4, 4, 6, 3))

    def test_rejects_all_servers_out(self):
        with pytest.raises(ParameterError, match="smaller than m"):
            validate_params(CodeParams(4, 1, 6, 6))

    def test_rejects_batch_larger_than_files(self):
        with pytest.raises(ParameterError, match="exceeds n"):
            validate_params(CodeParams(2, 3, 6, 1))

    def test_rejects_nonsense_outright(self):
        with pytest.raises(ValueError):
            CodeParams(-1, 1, 1, 0)
        with pytest.raises(ValueError):
            CodeParams(1, 0, 1, 0)
        with pytest.raises(ValueError):
            CodeParams(1, 1, 0, 0)
        with pytest.raises(ValueError):
            CodeParams(1, 1, 1, -1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: CodeParams(4.0, 2, 4, 1),
            lambda: CodeParams(4, 2.0, 4, 1),
            lambda: CodeParams(4, 2, 4.0, 1),
            lambda: CodeParams(4, 2, 4, 1.0),
            lambda: rcbc.predicted_weight(CodeParams(4.0, 2, 4, 1)),
            lambda: construct_optimal(CodeParams(4.5, 1, 3, 1)),
            lambda: rcbc.max_edges_with_girth(8, 4.5),
            lambda: rcbc.uniform_packing_max(3, 6, 1, 2.5),
        ],
        ids=["n", "k", "m", "r", "predicted_weight", "construct_optimal",
             "max_edges_with_girth", "cardinality"],
    )
    def test_rejects_non_integers(self, call):
        # Whole floats too: every count is an int, as in the CLI's parsing.
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            call()

    def test_is_valid_matches_validate(self):
        for n in range(0, 5):
            for k in range(1, 5):
                for m in range(1, 5):
                    for r in range(0, 4):
                        p = CodeParams(n, k, m, r)
                        try:
                            validate_params(p)
                            ok = True
                        except ParameterError:
                            ok = False
                        assert p.is_valid == ok


class TestBatchCode:
    def test_columns_normalized_sorted(self):
        code = BatchCode(4, [(3, 1), (2, 2, 4)])
        assert code.columns == ((1, 3), (2, 4))

    def test_rejects_out_of_range_servers(self):
        with pytest.raises(ValueError, match="not within"):
            BatchCode(3, [(1, 4)])
        with pytest.raises(ValueError, match="not within"):
            BatchCode(3, [(0, 1)])

    def test_rejects_no_servers(self):
        with pytest.raises(ValueError, match="need at least one server"):
            BatchCode(0, [])

    def test_column_accessor_is_one_based(self):
        code = tall_code()
        assert code.column(1) == (1, 2, 3, 4)
        assert code.column(4) == (1, 4, 5, 6)
        with pytest.raises(IndexError):
            code.column(5)

    def test_order_preserved_duplicates_allowed(self):
        code = BatchCode(3, [(2,), (1,), (2,)])
        assert code.columns == ((2,), (1,), (2,))

    def test_weight_counts_every_copy(self):
        assert weight(tall_code()) == 16
        assert weight(max_batch_code()) == 30
        assert weight(many_files_code()) == 18
        assert weight(BatchCode(3, [])) == 0

    def test_canonicalize_sorts_and_is_idempotent(self):
        code = BatchCode(3, [(2, 3), (1,), (1, 2)])
        canon = canonicalize(code)
        assert canon.columns == ((1,), (1, 2), (2, 3))
        assert canonicalize(canon) == canon


class TestCardinalityProfile:
    def test_band_histogram(self):
        prof = cardinality_profile(many_files_code(), MANY_FILES_PARAMS)
        assert prof.band == {2: 6, 3: 2}
        assert prof.out_of_band == {}
        assert prof.total == 8

    def test_out_of_band_reported(self):
        p = CodeParams(2, 1, 4, 1)
        code = BatchCode(4, [(1,), (1, 2, 3, 4)])
        prof = cardinality_profile(code, p)
        assert prof.band == {2: 0}
        assert prof.out_of_band == {1: 1, 4: 1}
        assert prof.total == 2

    def test_total_matches_n(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_valid_params(rng)
            code = random_matrix(rng, p.m, p.n)
            prof = cardinality_profile(code, p)
            assert prof.total == p.n


class TestVerify:
    def test_reference_codes_verify_under_every_strategy(self):
        cases = [
            (tall_code(), TALL_PARAMS),
            (max_batch_code(), CodeParams(7, 3, 6, 3)),
            (many_files_code(), MANY_FILES_PARAMS),
        ]
        for code, p in cases:
            for strategy in STRATEGIES:
                report = verify(code, p, strategy)
                assert report.ok, (p, strategy)
                assert report.witness is None
                assert report.strategy == strategy

    def test_duplicate_singletons_fail_with_first_witness(self):
        code = BatchCode(3, [(1,), (1,)])
        p = CodeParams(2, 2, 3, 1)
        report = verify(code, p, "column-union")
        assert not report.ok
        assert report.witness == ColumnUnionWitness(columns=(1,), span=(1,))
        assert report.witness.confirms(code, p)

    def test_row_containment_witness(self):
        code = BatchCode(3, [(1,), (1,)])
        p = CodeParams(2, 2, 3, 1)
        report = verify(code, p, "row-containment")
        assert not report.ok
        assert report.witness == RowContainmentWitness(rows=(1,), columns=(1, 2))
        assert report.witness.confirms(code, p)

    def test_definitional_witness(self):
        code = BatchCode(3, [(1,), (1,)])
        p = CodeParams(2, 2, 3, 1)
        report = verify(code, p, "definitional")
        assert not report.ok
        assert isinstance(report.witness, ServiceWitness)
        assert report.witness.confirms(code, p)

    def test_empty_column_rejected_by_all_strategies(self):
        code = BatchCode(3, [(), (1, 2)])
        p = CodeParams(2, 1, 3, 0)
        for strategy in STRATEGIES:
            report = verify(code, p, strategy)
            assert not report.ok
            assert report.witness.confirms(code, p)

    def test_auto_picks_a_real_strategy(self):
        report = verify(tall_code(), TALL_PARAMS)
        assert report.strategy in ("column-union", "row-containment")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy 'bogus'"):
            verify(tall_code(), TALL_PARAMS, "bogus")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="parameters say"):
            verify(tall_code(), CodeParams(5, 3, 6, 3))
        with pytest.raises(ValueError, match="parameters say"):
            verify(tall_code(), CodeParams(4, 3, 7, 3))

    def test_server_side_conditions_enforced(self):
        code = BatchCode(3, [(1,), (2,)])
        with pytest.raises(ParameterError):
            verify(code, CodeParams(2, 1, 3, 3))
        with pytest.raises(ParameterError):
            verify(code, CodeParams(2, 3, 3, 1))

    def test_fewer_columns_than_batch_still_checkable(self):
        # Subset conditions still make sense when n < k.
        code = BatchCode(5, [(1, 2), (1, 2, 3, 4)])
        report = verify(code, CodeParams(2, 3, 5, 1))
        assert report.ok

    def test_empty_code_verifies(self):
        report = verify(BatchCode(4, []), CodeParams(0, 2, 4, 1))
        assert report.ok

    def test_strategies_agree_exhaustively_small(self):
        for m, n in [(2, 2), (3, 2), (3, 3), (2, 3)]:
            pairs = valid_kr_pairs(m, n)
            for code in all_matrices(m, n):
                for k, r in pairs:
                    p = CodeParams(n, k, m, r)
                    verdicts = {s: verify(code, p, s).ok for s in STRATEGIES}
                    assert len(set(verdicts.values())) == 1, (code.columns, p, verdicts)

    def test_strategies_agree_on_random_matrices(self):
        rng = random.Random(23)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            code = random_matrix(rng, m, n)
            pairs = valid_kr_pairs(m, n)
            if not pairs:
                continue
            k, r = rng.choice(pairs)
            p = CodeParams(n, k, m, r)
            reports = [verify(code, p, s) for s in STRATEGIES]
            assert len({rep.ok for rep in reports}) == 1
            for rep in reports:
                if not rep.ok:
                    assert rep.witness.confirms(code, p)

    def test_verdict_invariant_under_relabeling(self):
        rng = random.Random(37)
        for _ in range(100):
            p = random_valid_params(rng, max_m=5, max_n=5)
            code = random_matrix(rng, p.m, p.n)
            before = verify(code, p).ok
            rows = list(range(1, p.m + 1))
            rng.shuffle(rows)
            relabel = {old: new for old, new in zip(range(1, p.m + 1), rows)}
            cols = [tuple(relabel[s] for s in col) for col in code.columns]
            rng.shuffle(cols)
            assert verify(BatchCode(p.m, cols), p).ok == before

    def test_cross_check_agrees_with_verify(self):
        assert cross_check(tall_code(), TALL_PARAMS).ok
        code = BatchCode(3, [(1,), (1,)])
        report = cross_check(code, CodeParams(2, 2, 3, 1))
        assert not report.ok
        assert report.witness.confirms(code, CodeParams(2, 2, 3, 1))


class TestMoveOnes:
    def test_spec_shift(self):
        code = many_files_code()
        out = move_ones(code, 1, 7, {3})
        assert out.column(1) == (1, 2, 3)
        assert out.column(7) == (1, 2)
        assert weight(out) == weight(code)
        assert verify(out, MANY_FILES_PARAMS).ok

    def test_moving_whole_difference_swaps_cardinalities(self):
        code = BatchCode(3, [(1,), (1, 2)])
        out = move_ones(code, 1, 2, {2})
        assert out.columns == ((1, 2), (1,))

    def test_requires_distinct_columns(self):
        code = BatchCode(3, [(1,), (1, 2)])
        with pytest.raises(ValueError, match="must differ"):
            move_ones(code, 1, 1, {2})

    def test_requires_proper_subset(self):
        code = BatchCode(3, [(1, 3), (1, 2)])
        with pytest.raises(ValueError, match="proper subset"):
            move_ones(code, 1, 2, {2})

    def test_requires_nonempty_moved_set(self):
        code = BatchCode(3, [(1,), (1, 2)])
        with pytest.raises(ValueError, match="empty"):
            move_ones(code, 1, 2, set())

    def test_moved_must_come_from_difference(self):
        code = BatchCode(4, [(1,), (1, 2, 3)])
        with pytest.raises(ValueError, match="difference"):
            move_ones(code, 1, 2, {4})
        with pytest.raises(ValueError, match="difference"):
            move_ones(code, 1, 2, {1})

    def test_preserves_verification_on_random_codes(self):
        rng = random.Random(41)
        done = 0
        while done < 60:
            code, p = random_accepted_code(rng, max_m=5, max_n=5)
            pairs = [
                (i, j)
                for i in range(1, code.n + 1)
                for j in range(1, code.n + 1)
                if i != j and set(code.column(i)) < set(code.column(j))
            ]
            if not pairs:
                continue
            i, j = pairs[0]
            diff = sorted(set(code.column(j)) - set(code.column(i)))
            take = rng.randint(1, len(diff))
            out = move_ones(code, i, j, rng.sample(diff, take))
            assert weight(out) == weight(code)
            assert verify(out, p).ok
            done += 1


def test_proof_transforms_are_not_in_the_library():
    # The type lemma's transforms and the profile live in tests/helpers.py.
    moved = ("normalize_types", "move_ones", "_smallest_superset",
             "cardinality_profile", "CardinalityProfile")
    for name in moved:
        assert not hasattr(rcbc, name), name
        assert not hasattr(rcbc.core, name), name
    assert len(rcbc.__all__) == 46


class TestNormalizeTypes:
    def test_splits_oversized_column(self):
        p = CodeParams(2, 3, 5, 1)
        code = BatchCode(5, [(1, 2), (1, 2, 3, 4)])
        out = normalize_types(code, p)
        assert out.columns == ((1, 2, 3), (1, 2, 4))
        assert weight(out) == weight(code)
        assert verify(out, p).ok

    def test_type_two_left_alone(self):
        code = many_files_code()
        assert normalize_types(code, MANY_FILES_PARAMS) == code

    def test_no_short_columns_left_alone(self):
        p = CodeParams(3, 2, 4, 1)
        code = BatchCode(4, [(1, 2, 3), (1, 2, 4), (2, 3, 4)])
        assert normalize_types(code, p) == code

    def test_rejects_out_of_band_cardinalities(self):
        p = CodeParams(2, 2, 4, 1)
        with pytest.raises(ValueError, match="outside"):
            normalize_types(BatchCode(4, [(1,), (1, 2)]), p)

    def test_rejects_failing_codes(self):
        p = CodeParams(2, 2, 4, 1)
        with pytest.raises(ValueError, match="does not verify"):
            normalize_types(BatchCode(4, [(1, 2), (1, 2)]), p)

    def test_lands_in_a_type_on_random_codes(self):
        rng = random.Random(43)
        for _ in range(60):
            code, p = random_accepted_code(rng, max_m=5, max_n=5)
            out = normalize_types(code, p)
            assert weight(out) == weight(code)
            assert verify(out, p).ok
            cards = sorted({len(col) for col in out.columns})
            low, high = p.r + 1, p.r + p.k
            type_one = all(low <= c <= high - 1 for c in cards)
            type_two = all(c in (high - 1, high) for c in cards)
            assert type_one or type_two, (code.columns, out.columns, p)


class TestWeightBounds:
    def test_accepted_matrices_satisfy_lower_weight_bound(self):
        # Acceptance forces every column to r+1 servers, so weight >= (r+1)n.
        rng = random.Random(47)
        seen_ok = 0
        for _ in range(400):
            p = random_valid_params(rng, max_m=4, max_n=4)
            code = random_matrix(rng, p.m, p.n)
            if verify(code, p).ok:
                seen_ok += 1
                assert min(len(col) for col in code.columns) >= p.r + 1
                assert weight(code) >= (p.r + 1) * p.n
        assert seen_ok > 20

    def test_short_column_always_rejected(self):
        rng = random.Random(53)
        for _ in range(60):
            code, p = random_accepted_code(rng, max_m=5, max_n=5)
            cols = list(code.columns)
            j = rng.randrange(len(cols))
            cols[j] = tuple(sorted(rng.sample(range(1, p.m + 1), p.r)))
            broken = BatchCode(p.m, cols)
            assert not verify(broken, p).ok


def assert_reports_match_references(code: BatchCode, p: CodeParams) -> bool:
    """Assert the definitional and row-containment reports equal the
    pair-by-pair and set-by-set references; return whether the code fails."""
    service = reference_pairwise_service_check(code, p)
    want = VerifyReport(service is None, "definitional", service)
    assert verify(code, p, "definitional") == want, (code.columns, p)
    rows = reference_row_containment(code, p)
    assert verify(code, p, "row-containment") == rows, (code.columns, p)
    assert rows.ok == want.ok
    return not rows.ok


class TestReferenceSweeps:
    # The prefix-tree definitional sweep and the column-side row-containment
    # count must give the same verdict, strategy and witness as the sweeps
    # they replaced.

    def test_random_codes_with_repeated_columns(self):
        rng = random.Random(97)
        failing = 0
        for _ in range(2_500):
            code, p = random_banded_code(rng)
            cols = list(code.columns)
            for _ in range(rng.randint(0, p.n)):
                cols[rng.randrange(p.n)] = rng.choice(cols)
            failing += assert_reports_match_references(BatchCode(p.m, cols), p)
        assert 1_500 < failing < 2_400

    def test_constructed_codes_and_one_server_perturbations(self):
        rng = random.Random(101)
        codes = failing = 0
        for m in range(2, 8):
            for r in range(m):
                for k in range(1, m - r + 1):
                    for n in range(k, 16):
                        p = CodeParams(n, k, m, r)
                        try:
                            code, _ = construct_optimal(p)
                        except NoKnownConstruction:
                            continue
                        assert not assert_reports_match_references(code, p)
                        cols = [set(col) for col in code.columns]
                        cols[rng.randrange(n)] ^= {rng.randint(1, m)}
                        perturbed = BatchCode(m, cols)
                        failing += assert_reports_match_references(perturbed, p)
                        codes += 1
        assert codes > 1_000
        assert 300 < failing < codes

    def test_row_containment_accepts_the_large_n_code(self):
        p = CodeParams(800, 4, 10, 2)
        report = verify(construct_large_n(p), p, "row-containment")
        assert report == VerifyReport(True, "row-containment")
