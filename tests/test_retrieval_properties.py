"""Property test of the bitmask matcher against the set-based reference
(hypothesis is a test-only dependency; the module is skipped without it)."""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from rcbc import BatchCode, CodeParams
from helpers import assert_matches_reference


@st.composite
def code_and_pair(draw):
    m = draw(st.integers(2, 7))
    r = draw(st.integers(0, m - 1))
    k = draw(st.integers(1, m - r))
    n = draw(st.integers(k, 9))
    servers = st.sets(st.integers(1, m), min_size=1, max_size=min(r + k, m))
    cols = draw(st.lists(servers, min_size=n, max_size=n))
    files = draw(st.sets(st.integers(1, n), min_size=1, max_size=min(k, n)))
    avail = draw(st.sets(st.integers(1, m), min_size=m - r))
    return BatchCode(m, [tuple(col) for col in cols]), CodeParams(n, k, m, r), files, avail


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(code_and_pair())
def test_matches_reference_matcher(case):
    assert_matches_reference(*case)
