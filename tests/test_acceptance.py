"""Acceptance gate: ten stated criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py` to see one line per criterion;
each test also prints `criterion N: PASS (elapsed)` and enforces its stated
wall-clock bound.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

from rcbc import (
    BatchCode,
    CodeParams,
    code_from_graph,
    construct_circulant,
    construct_gap,
    construct_large_n,
    construct_max_k,
    exact_min_weight,
    gap_base_max,
    girth,
    plan_retrieval,
    predicted_weight,
    trivial_weight_max,
    verify,
    weight,
)
from rcbc.graphs import SimpleGraph
from helpers import (
    MANY_FILES_PARAMS,
    MAX_BATCH_PARAMS,
    TALL_PARAMS,
    all_matrices,
    cardinality_profile,
    many_files_code,
    max_batch_code,
    move_ones,
    normalize_types,
    random_accepted_code,
    random_matrix,
    tall_code,
    valid_kr_pairs,
)

STRATEGIES = ("definitional", "column-union", "row-containment")


def within(number: int, seconds: float):
    """Context manager printing the criterion verdict and enforcing time."""

    class _Gate:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.perf_counter() - self.start
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {number}: {verdict} ({elapsed:.2f}s)")
            assert elapsed < seconds, (
                f"criterion {number} took {elapsed:.2f}s, bound {seconds}s"
            )
            return False

    return _Gate()


def test_criterion_01_reference_constructions():
    with within(1, 1.0):
        assert construct_circulant(TALL_PARAMS) == tall_code()
        assert construct_max_k(7, 6, 3) == max_batch_code()
        assert weight(max_batch_code()) == 30
        wide = construct_large_n(MANY_FILES_PARAMS)
        assert weight(wide) == 18
        assert cardinality_profile(wide, MANY_FILES_PARAMS).band == {2: 6, 3: 2}


def test_criterion_02_strategy_equivalence():
    with within(2, 60.0):
        for n in (1, 2, 3):
            pairs = valid_kr_pairs(4, n)
            for code in all_matrices(4, n):
                for k, r in pairs:
                    p = CodeParams(n, k, 4, r)
                    verdicts = {verify(code, p, s).ok for s in STRATEGIES}
                    assert len(verdicts) == 1, (code.columns, p)
        rng = random.Random(20240817)
        for _ in range(1000):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            code = random_matrix(rng, m, n)
            pairs = valid_kr_pairs(m, n)
            if not pairs:
                continue
            k, r = rng.choice(pairs)
            p = CodeParams(n, k, m, r)
            verdicts = {verify(code, p, s).ok for s in STRATEGIES}
            assert len(verdicts) == 1, (code.columns, p)


def test_criterion_03_oracle_vs_formulas():
    with within(3, 600.0):
        mismatches = []
        for m in range(1, 6):
            for n in range(1, 8):
                for k, r in valid_kr_pairs(m, n):
                    p = CodeParams(n, k, m, r)
                    prediction = predicted_weight(p)
                    if not prediction.known:
                        continue
                    oracle = exact_min_weight(p)
                    assert oracle.exact, p
                    if oracle.value != prediction.value:
                        mismatches.append((p, prediction, oracle.value))
                    # Spot-check the published closed forms directly.
                    if n <= m:
                        assert prediction.value == (r + 1) * n, p
                    if k == m - r and n >= m:
                        assert prediction.value == m * n - m * (m - r - 1), p
                    total = (k - 1) * math.comb(m, r + k - 1)
                    if k >= 2 and n >= total:
                        assert prediction.value == (r + k) * n - total, p
                    if k == 1:
                        assert prediction.value == (r + 1) * n, p
                    if k == 2 and n <= math.comb(m, r + 1):
                        assert prediction.value == (r + 1) * n, p
        assert mismatches == []


def test_criterion_04_gap_regime_consistency():
    with within(4, 60.0):
        base = gap_base_max(3, 5, 0).witness
        seam = CodeParams(20, 3, 5, 0)
        assert weight(construct_gap(seam, base)) == weight(construct_large_n(seam))
        assert weight(construct_large_n(seam)) == 40
        interior = CodeParams(10, 3, 5, 0)
        code = construct_gap(interior, base)
        assert weight(code) == 17
        assert verify(code, interior).ok
        assert exact_min_weight(interior).value == 17


def test_criterion_05_base_packing_values():
    with within(5, 60.0):
        for m in (4, 5, 6):
            assert gap_base_max(3, m, 1).value == m * m // 4, m
        for k, m, r in [(3, 4, 1), (3, 5, 1), (3, 6, 1), (3, 5, 0), (4, 6, 0)]:
            value = gap_base_max(k, m, r).value
            assert value * (r + k - 1) <= (k - 1) * math.comb(m, r + k - 2)


def test_criterion_06_trivial_weight_thresholds():
    with within(6, 120.0):
        for m in (4, 5):
            assert trivial_weight_max(2, m, 1).value == math.comb(m, 2), m
            assert trivial_weight_max(3, m, 1).value == m * m // 4, m
        for m in range(2, 6):
            for k in range(2, m + 1):
                assert trivial_weight_max(k, m, 0).value == m, (k, m)
        assert trivial_weight_max(1, 5, 0).unbounded


def test_criterion_07_girth_equivalence():
    with within(7, 60.0):
        pool = list(combinations(range(1, 6), 2))
        for bits in range(1 << 10):
            edges = [e for i, e in enumerate(pool) if bits >> i & 1]
            if len(edges) < 5:  # correspondence stated for n >= m
                continue
            graph = SimpleGraph(5, edges)
            code = code_from_graph(graph)
            g = girth(graph)
            for k in (2, 3, 4):
                p = CodeParams(code.n, k, 5, 1)
                assert verify(code, p).ok == (g >= k + 1), (edges, k)


def test_criterion_08_retrieval_completeness():
    with within(8, 60.0):
        jobs = [
            (tall_code(), TALL_PARAMS),
            (max_batch_code(), MAX_BATCH_PARAMS),
            (many_files_code(), MANY_FILES_PARAMS),
        ]
        for code, p in jobs:
            checked = 0
            for demand in combinations(range(1, p.n + 1), p.k):
                for down in combinations(range(1, p.m + 1), p.r):
                    available = [s for s in range(1, p.m + 1) if s not in down]
                    plan = plan_retrieval(code, p, demand, available)
                    got = dict(plan.assignment)
                    assert sorted(got) == list(demand)
                    servers = list(got.values())
                    assert len(set(servers)) == len(servers)
                    for f, s in got.items():
                        assert s in code.column(f)
                        assert s not in down
                    checked += 1
            assert checked == math.comb(p.n, p.k) * math.comb(p.m, p.r)


def test_criterion_09_transform_preservation():
    with within(9, 60.0):
        rng = random.Random(20240818)
        for _ in range(500):
            code, p = random_accepted_code(rng, max_m=6, max_n=6)
            w = weight(code)

            out = normalize_types(code, p)
            assert weight(out) == w
            assert verify(out, p).ok
            cards = {len(col) for col in out.columns}
            low, high = p.r + 1, p.r + p.k
            type_one = all(low <= c <= high - 1 for c in cards)
            type_two = all(c in (high - 1, high) for c in cards)
            assert type_one or type_two, (code.columns, out.columns, p)

            pairs = [
                (i, j)
                for i in range(1, code.n + 1)
                for j in range(1, code.n + 1)
                if i != j and set(code.column(i)) < set(code.column(j))
            ]
            if pairs:
                i, j = pairs[0]
                diff = sorted(set(code.column(j)) - set(code.column(i)))
                moved = diff[: rng.randint(1, len(diff))]
                shifted = move_ones(code, i, j, moved)
                assert weight(shifted) == w
                assert verify(shifted, p).ok


def test_criterion_10_floor_inequality():
    with within(10, 1.0):
        for m in range(2, 13):
            for p in range(1, m):
                for i in range(1, p + 1):
                    lhs = (math.comb(m - i, p - i) - 1) // (m - p)
                    assert lhs >= p - i, (i, p, m)
