"""Retrieval planning and exhaustive serviceability checks."""

from __future__ import annotations

import gc
import random
from itertools import combinations

import pytest

from rcbc import (
    BatchCode,
    CodeParams,
    InfeasibleDemand,
    ParameterError,
    RetrievalPlan,
    exhaustive_service_check,
    plan_retrieval,
    verify,
)
from helpers import (
    MANY_FILES_PARAMS,
    TALL_PARAMS,
    assert_matches_reference,
    brute_force_feasible,
    many_files_code,
    max_batch_code,
    random_accepted_code,
    random_banded_code,
    random_matrix,
    random_valid_params,
    tall_code,
)


class TestPlanRetrieval:
    def test_reference_plan(self):
        plan = plan_retrieval(tall_code(), TALL_PARAMS, [1, 2, 4], [1, 2, 4, 5, 6])
        assert plan.as_dict() == {1: 1, 2: 2, 4: 4}

    def test_lowest_file_takes_lowest_server(self):
        code = BatchCode(3, [(1, 2, 3), (1, 2, 3), (1, 2, 3)])
        p = CodeParams(3, 2, 3, 1)
        plan = plan_retrieval(code, p, [1, 2], [1, 2, 3])
        assert plan.assignment == ((1, 1), (2, 2))

    def test_reassignment_when_forced(self):
        # File 2 only has server 1, so file 1 must step aside.
        code = BatchCode(3, [(1, 2), (1,), (3,)])
        p = CodeParams(3, 2, 3, 1)
        plan = plan_retrieval(code, p, [1, 2], [1, 2, 3])
        assert plan.as_dict() == {1: 2, 2: 1}

    def test_demand_order_does_not_matter(self):
        code = tall_code()
        a = plan_retrieval(code, TALL_PARAMS, [4, 1, 2], range(1, 7))
        b = plan_retrieval(code, TALL_PARAMS, [1, 2, 4], range(1, 7))
        assert a == b

    def test_plan_accessors(self):
        plan = RetrievalPlan(((1, 3), (2, 5)))
        assert plan.server_for(2) == 5
        assert plan.as_dict() == {1: 3, 2: 5}
        with pytest.raises(KeyError):
            plan.server_for(9)

    def test_plan_uses_only_available_copies(self):
        rng = random.Random(61)
        for _ in range(200):
            code, p = random_accepted_code(rng, max_m=5, max_n=6)
            files = rng.sample(range(1, p.n + 1), rng.randint(1, min(p.k, p.n)))
            down = rng.sample(range(1, p.m + 1), rng.randint(0, p.r))
            avail = [s for s in range(1, p.m + 1) if s not in down]
            plan = plan_retrieval(code, p, files, avail)
            assert sorted(f for f, _ in plan.assignment) == sorted(files)
            servers = [s for _, s in plan.assignment]
            assert len(set(servers)) == len(servers)
            for f, s in plan.assignment:
                assert s in code.column(f)
                assert s in avail

    def test_agrees_with_brute_force_on_arbitrary_matrices(self):
        rng = random.Random(67)
        for _ in range(400):
            p = random_valid_params(rng, max_m=5, max_n=5)
            code = random_matrix(rng, p.m, p.n)
            files = rng.sample(range(1, p.n + 1), rng.randint(1, min(p.k, p.n)))
            avail = sorted(
                rng.sample(range(1, p.m + 1), rng.randint(p.m - p.r, p.m))
            )
            feasible = brute_force_feasible(code, files, avail)
            try:
                plan = plan_retrieval(code, p, files, avail)
            except InfeasibleDemand as exc:
                assert not feasible
                # The Hall set must certify the failure on its own.
                span = set()
                for f in exc.hall_set:
                    span.update(set(code.column(f)) & set(avail))
                assert len(span) < len(exc.hall_set)
            else:
                assert feasible
                assert {f for f, _ in plan.assignment} == set(files)

    def test_infeasible_reports_demand_and_availability(self):
        code = BatchCode(3, [(1,), (1,)])
        p = CodeParams(2, 2, 3, 1)
        with pytest.raises(InfeasibleDemand) as info:
            plan_retrieval(code, p, [1, 2], [1, 2])
        assert info.value.demand == (1, 2)
        assert info.value.available == (1, 2)
        assert set(info.value.hall_set) == {1, 2}

    def test_input_validation(self):
        code = tall_code()
        with pytest.raises(ValueError, match="demand is empty"):
            plan_retrieval(code, TALL_PARAMS, [], range(1, 7))
        with pytest.raises(ValueError, match="batch size"):
            plan_retrieval(code, TALL_PARAMS, [1, 2, 3, 4], range(1, 7))
        with pytest.raises(ValueError, match="files 1"):
            plan_retrieval(code, TALL_PARAMS, [5], range(1, 7))
        with pytest.raises(ValueError, match="servers 1"):
            plan_retrieval(code, TALL_PARAMS, [1], [0, 1, 2])
        with pytest.raises(ValueError, match="need at least"):
            plan_retrieval(code, TALL_PARAMS, [1], [1, 2])
        with pytest.raises(ValueError, match="parameters say"):
            plan_retrieval(code, CodeParams(4, 3, 7, 3), [1], range(1, 8))
        with pytest.raises(ParameterError):
            plan_retrieval(BatchCode(2, [(1,)]), CodeParams(1, 1, 2, 2), [1], [1, 2])

    def test_extra_availability_never_hurts(self):
        rng = random.Random(71)
        for _ in range(100):
            code, p = random_accepted_code(rng, max_m=5, max_n=5)
            files = rng.sample(range(1, p.n + 1), min(p.k, p.n))
            minimal = sorted(rng.sample(range(1, p.m + 1), p.m - p.r))
            plan_retrieval(code, p, files, minimal)  # must not raise
            plan_retrieval(code, p, files, range(1, p.m + 1))


class TestExhaustiveCheck:
    def test_reference_codes_fully_servable(self):
        assert exhaustive_service_check(tall_code(), TALL_PARAMS) is None
        assert exhaustive_service_check(max_batch_code(), CodeParams(7, 3, 6, 3)) is None
        assert exhaustive_service_check(many_files_code(), MANY_FILES_PARAMS) is None

    def test_first_failure_in_lexicographic_order(self):
        # Files 1 and 3 share only server 1, so {1, 3} fails once server 2 is
        # down; every demand pair before it is servable.
        code = BatchCode(3, [(1, 2), (2, 3), (1,)])
        p = CodeParams(3, 2, 3, 1)
        failure = exhaustive_service_check(code, p)
        assert failure is not None
        assert failure.demand == (1, 3)
        assert failure.available == (1, 3)
        assert set(failure.hall_set) == {1, 3}

    def test_empty_code_has_nothing_to_fail(self):
        assert exhaustive_service_check(BatchCode(3, ()), CodeParams(0, 2, 3, 1)) is None

    def test_matches_verify_on_random_matrices(self):
        rng = random.Random(73)
        for _ in range(200):
            p = random_valid_params(rng, max_m=5, max_n=5)
            code = random_matrix(rng, p.m, p.n)
            failure = exhaustive_service_check(code, p)
            assert (failure is None) == verify(code, p, "column-union").ok

    def test_every_maximal_pair_of_a_verified_code_has_a_plan(self):
        code = many_files_code()
        p = MANY_FILES_PARAMS
        for dem in combinations(range(1, p.n + 1), p.k):
            for avail in combinations(range(1, p.m + 1), p.m - p.r):
                plan = plan_retrieval(code, p, dem, avail)
                assert {f for f, _ in plan.assignment} == set(dem)


class TestReferenceMatcher:
    def test_matches_set_based_matcher_on_random_codes(self):
        # Same witnesses, plans and Hall sets as the matcher over sets.
        rng = random.Random(83)
        failing = infeasible = 0
        for _ in range(4_000):
            code, p = random_banded_code(rng)
            files = rng.sample(range(1, p.n + 1), rng.randint(1, min(p.k, p.n)))
            avail = rng.sample(range(1, p.m + 1), p.m - p.r)
            infeasible += assert_matches_reference(code, p, files, avail)
            failing += not verify(code, p, "column-union").ok
        # Both outcomes are well represented.
        assert 2_000 < failing < 3_900
        assert 500 < infeasible < 3_500

    def test_calls_leave_no_cyclic_garbage(self):
        # A self-calling closure in the matcher would leave a reference cycle
        # per call, holding the call's mask list until a collection.
        rng = random.Random(89)
        cases = [random_banded_code(rng) for _ in range(200)]
        passing = [random_accepted_code(rng, max_m=6, max_n=8) for _ in range(50)]
        code, p = many_files_code(), MANY_FILES_PARAMS
        plans = [
            (dem, avail)
            for dem in combinations(range(1, p.n + 1), p.k)
            for avail in combinations(range(1, p.m + 1), p.m - p.r)
        ]
        gc.collect()
        gc.disable()
        try:
            for dem, avail in plans:
                plan_retrieval(code, p, dem, avail)
            for c, q in cases + passing:
                exhaustive_service_check(c, q)
            assert gc.collect() == 0
        finally:
            gc.enable()
