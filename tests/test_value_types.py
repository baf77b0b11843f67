"""The value types: construction, equality, hashing, printing, immutability,
normalisation, validation and pickling, as the frozen records they replace
behaved."""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rcbc
from rcbc import (
    BatchCode,
    CodeParams,
    ColumnUnionWitness,
    RegimePrediction,
    RetrievalPlan,
    RowContainmentWitness,
    SearchBudget,
    SearchResult,
    ServiceWitness,
    SimpleGraph,
    VerifyReport,
)
from rcbc.core import _Value
from helpers import CardinalityProfile

# One instance of each type, by keyword, with every field given and already
# in normal form, so the fields read back as given.
CASES = [
    (CodeParams, dict(n=5, k=2, m=4, r=1)),
    (BatchCode, dict(m=3, columns=((1, 2), (2, 3), (1, 2)))),
    (CardinalityProfile, dict(band={2: 1, 3: 0}, out_of_band={1: 2})),
    (ColumnUnionWitness, dict(columns=(1, 2), span=(1, 2))),
    (RowContainmentWitness, dict(rows=(1, 2), columns=(1, 2))),
    (ServiceWitness, dict(demand=(1, 2), available=(1, 3), hall_set=(1, 2))),
    (VerifyReport, dict(ok=False, strategy="column-union",
                        witness=ColumnUnionWitness((1, 2), (1,)))),
    (SearchBudget, dict(node_limit=1_000, time_limit=5.0)),
    (SearchResult, dict(value=4, witness=BatchCode(2, [(1,), (2,)]), exact=True,
                        nodes=17)),
    (RegimePrediction, dict(value=None, regime=None, budget_limited=True)),
    (SimpleGraph, dict(vertices=3, edges=((1, 2), (2, 3)))),
    (RetrievalPlan, dict(assignment=((1, 2), (2, 1)))),
]
IDS = [cls.__name__ for cls, _ in CASES]


def test_every_public_value_type_is_covered():
    exported = {getattr(rcbc, name) for name in rcbc.__all__}
    values = {
        obj for obj in exported if isinstance(obj, type) and issubclass(obj, _Value)
    }
    cases = {cls for cls, _ in CASES}
    assert values == {cls for cls in cases if cls.__module__.startswith("rcbc.")}
    assert cases - values == {CardinalityProfile}  # the test-only lemma type


@pytest.mark.parametrize("cls, fields", CASES, ids=IDS)
class TestContract:
    def test_positional_and_keyword_construction(self, cls, fields):
        by_name = cls(**fields)
        in_order = cls(*fields.values())
        for name, value in fields.items():
            assert getattr(by_name, name) == value
            assert getattr(in_order, name) == value
        assert by_name == in_order
        assert not by_name != in_order

    def test_unequal_to_other_types_and_tuples(self, cls, fields):
        value = cls(**fields)
        assert value != tuple(fields.values())
        for other_cls, other_fields in CASES:
            if other_cls is not cls:
                assert value != other_cls(**other_fields)
                assert other_cls(**other_fields) != value

    def test_hash_agrees_with_equality(self, cls, fields):
        a, b = cls(**fields), cls(*fields.values())
        if cls is CardinalityProfile:  # it holds dicts
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_repr_lists_fields_in_order(self, cls, fields):
        args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({args})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields):
        value = cls(**fields)
        for name in [*fields, "extra"]:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert value == cls(**fields)
        assert not hasattr(value, "extra")

    def test_pickle_round_trip(self, cls, fields):
        value = cls(**fields)
        back = pickle.loads(pickle.dumps(value))
        assert type(back) is cls
        assert back == value
        assert repr(back) == repr(value)


def test_unequal_when_one_field_differs():
    assert CodeParams(5, 2, 4, 1) != CodeParams(5, 2, 4, 0)
    assert BatchCode(3, [(1, 2)]) != BatchCode(4, [(1, 2)])
    assert SearchResult(4, None, True, 3) != SearchResult(4, None, True, 4)
    assert VerifyReport(True, "definitional") != VerifyReport(True, "column-union")
    assert SimpleGraph(3, [(1, 2)]) != SimpleGraph(3, [(1, 3)])
    assert RetrievalPlan(((1, 1),)) != RetrievalPlan(((1, 2),))


def test_defaults():
    assert SearchBudget() == SearchBudget(20_000_000, 600.0)
    assert SearchBudget(node_limit=7) == SearchBudget(7, 600.0)
    assert SearchBudget(time_limit=1.5) == SearchBudget(20_000_000, 1.5)
    assert SearchResult(3, None, True).nodes == 0
    assert VerifyReport(True, "column-union").witness is None
    assert RegimePrediction(12, "k1").budget_limited is False


def test_pinned_reprs():
    assert repr(CodeParams(5, 2, 4, 1)) == "CodeParams(n=5, k=2, m=4, r=1)"
    assert repr(BatchCode(3, [[2, 1], {3}])) == "BatchCode(m=3, columns=((1, 2), (3,)))"
    assert repr(SearchBudget()) == "SearchBudget(node_limit=20000000, time_limit=600.0)"
    report = VerifyReport(False, "definitional", ServiceWitness((1,), (2,), (1,)))
    assert repr(report) == (
        "VerifyReport(ok=False, strategy='definitional', "
        "witness=ServiceWitness(demand=(1,), available=(2,), hall_set=(1,)))"
    )
    assert repr(SearchResult(None, None, False, 9)) == (
        "SearchResult(value=None, witness=None, exact=False, nodes=9)"
    )
    assert repr(SimpleGraph(3, [(2, 1)])) == "SimpleGraph(vertices=3, edges=((1, 2),))"
    assert repr(RetrievalPlan(((1, 3),))) == "RetrievalPlan(assignment=((1, 3),))"


def test_batch_code_normalisation():
    code = BatchCode(4, [[3, 1, 3], (2,), set(), iter([4, 2])])
    assert code.columns == ((1, 3), (2,), (), (2, 4))
    assert code == BatchCode(4, [(1, 3), (2,), (), (2, 4)])
    assert code.n == 4


def test_simple_graph_normalisation():
    graph = SimpleGraph(4, [(3, 2), (1, 2), (2, 1), (4, 1)])
    assert graph.edges == ((1, 2), (1, 4), (2, 3))
    assert graph == SimpleGraph(4, [(1, 2), (1, 4), (2, 3)])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: CodeParams(-1, 1, 1, 0), "nonsensical parameters (-1, 1, 1, 0)"),
        (lambda: CodeParams(3, 0, 4, 1), "nonsensical parameters (3, 0, 4, 1)"),
        (lambda: CodeParams(3, 1, 0, 0), "nonsensical parameters (3, 1, 0, 0)"),
        (lambda: CodeParams(3, 1, 4, -2), "nonsensical parameters (3, 1, 4, -2)"),
        (lambda: BatchCode(0, []), "need at least one server, got m=0"),
        (lambda: BatchCode(3, [(1,), (4, 1)]),
         "column (1, 4) is not within servers 1..3"),
        (lambda: BatchCode(3, [(0, 2)]), "column (0, 2) is not within servers 1..3"),
        (lambda: SearchBudget(0), "node_limit must be positive, got 0"),
        (lambda: SearchBudget(node_limit=-5), "node_limit must be positive, got -5"),
        (lambda: SearchBudget(node_limit=2.5),
         "node_limit must be a whole number, got 2.5"),
        (lambda: SearchBudget(node_limit=0.5),
         "node_limit must be a whole number, got 0.5"),
        (lambda: SearchBudget(time_limit=0.0), "time_limit must be positive, got 0.0"),
        (lambda: SearchBudget(time_limit=float("nan")),
         "time_limit must be positive, got nan"),
        (lambda: SimpleGraph(0, []), "need at least one vertex, got 0"),
        (lambda: SimpleGraph(3, [(1, 2), (2, 2)]), "loop at vertex 2"),
        (lambda: SimpleGraph(3, [(1, 4)]), "edge (1, 4) not within vertices 1..3"),
        (lambda: SimpleGraph(3, [(0, 1)]), "edge (0, 1) not within vertices 1..3"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_import_generates_no_code():
    """A cold `import rcbc.cli` loads neither dataclasses nor inspect."""
    src = str(Path(rcbc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = (
        "import rcbc.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
