"""Property tests of exact_min_weight on random parameters (hypothesis is a
test-only dependency; the module is skipped without it)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rcbc import CodeParams, SearchBudget, exact_min_weight, verify, weight
from helpers import min_weight_witness, reference_exact_min_weight

# Enough for the reference to prove all but a few of these tuples.
REFERENCE_BUDGET = SearchBudget(node_limit=2_000_000)


@st.composite
def valid_params(draw) -> CodeParams:
    m = draw(st.integers(1, 6))
    r = draw(st.integers(0, m - 1))
    k = draw(st.integers(1, m - r))
    n = draw(st.integers(k, 9))
    return CodeParams(n, k, m, r)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(valid_params())
def test_matches_reference_loop(p):
    # The weight bound only skips subtrees that hold no better code, so the
    # optimum is that of the scan without it, and so is the witness below
    # U0; at U0 it is the top-of-band code, where the search starts.
    got = exact_min_weight(p)
    want = reference_exact_min_weight(p, REFERENCE_BUDGET)
    assert got.exact
    assert verify(got.witness, p).ok
    assert weight(got.witness) == got.value
    if want.exact:
        assert got.value == want.value
        assert got.witness.columns == min_weight_witness(p, want)
        assert got.nodes <= want.nodes
    else:
        assert got.value <= weight(want.witness)
