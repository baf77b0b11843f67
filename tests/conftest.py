"""Fixtures shared by every test module."""

from __future__ import annotations

import pytest

from rcbc import constructions


@pytest.fixture(autouse=True)
def empty_base_cache(monkeypatch):
    """Start each test with no cached gap bases, so none relies on another's."""
    monkeypatch.setattr(constructions, "_base_cache", {})
