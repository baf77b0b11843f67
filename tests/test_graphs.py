"""Girth, graph/code conversion, extremal edge counts, and graph text."""

from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from rcbc import (
    BatchCode,
    CodeParams,
    GraphFormatError,
    NotAGraph,
    SearchBudget,
    SimpleGraph,
    code_from_graph,
    girth,
    graph_from_code,
    max_edges_with_girth,
    parse_graph,
    render_graph,
    trivial_weight_max,
    uniform_packing_max,
    verify,
    weight,
)
from helpers import brute_girth, reference_max_edges_with_girth


def cycle_graph(n: int) -> SimpleGraph:
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return SimpleGraph(n, edges)


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, combinations(range(1, n + 1), 2))


def all_graphs(vertices: int):
    pool = list(combinations(range(1, vertices + 1), 2))
    for bits in range(1 << len(pool)):
        yield SimpleGraph(
            vertices, [e for i, e in enumerate(pool) if bits >> i & 1]
        )


class TestSimpleGraph:
    def test_normalizes_edges(self):
        g = SimpleGraph(4, [(3, 1), (2, 4), (1, 3)])
        assert g.edges == ((1, 3), (2, 4))
        assert g.edge_count == 2

    def test_rejects_loops_and_strays(self):
        with pytest.raises(ValueError, match="loop"):
            SimpleGraph(3, [(2, 2)])
        with pytest.raises(ValueError, match="not within"):
            SimpleGraph(3, [(1, 4)])
        with pytest.raises(ValueError, match="at least one vertex"):
            SimpleGraph(0, [])


class TestGirth:
    def test_known_graphs(self):
        assert girth(cycle_graph(5)) == 5
        assert girth(cycle_graph(3)) == 3
        assert girth(complete_graph(4)) == 3
        assert girth(SimpleGraph(4, [(1, 2), (2, 3), (3, 4)])) == math.inf
        assert girth(SimpleGraph(1, [])) == math.inf
        # K_{2,2} is the 4-cycle 1-3-2-4.
        assert girth(SimpleGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])) == 4

    def test_petersen_graph(self):
        outer = [(i, i % 5 + 1) for i in range(1, 6)]
        spokes = [(i, i + 5) for i in range(1, 6)]
        inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
        assert girth(SimpleGraph(10, outer + spokes + inner)) == 5

    def test_matches_brute_force_exhaustively(self):
        for vertices in (3, 4):
            for g in all_graphs(vertices):
                assert girth(g) == brute_girth(g), g.edges

    def test_matches_brute_force_random_five_vertices(self):
        rng = random.Random(83)
        pool = list(combinations(range(1, 6), 2))
        for _ in range(200):
            chosen = [e for e in pool if rng.random() < 0.5]
            g = SimpleGraph(5, chosen)
            assert girth(g) == brute_girth(g), g.edges


class TestConversion:
    def test_round_trip(self):
        g = cycle_graph(5)
        assert graph_from_code(code_from_graph(g)) == g

    def test_code_columns_are_edges(self):
        code = code_from_graph(SimpleGraph(4, [(2, 1), (3, 4)]))
        assert code.m == 4
        assert code.columns == ((1, 2), (3, 4))

    def test_rejects_non_graph_codes(self):
        with pytest.raises(NotAGraph) as info:
            graph_from_code(BatchCode(4, [(1, 2), (1, 2, 3)]))
        assert info.value.column == 2
        with pytest.raises(NotAGraph, match="parallel"):
            graph_from_code(BatchCode(4, [(1, 2), (2, 1)]))
        with pytest.raises(NotAGraph):
            graph_from_code(BatchCode(4, [(1,)]))

    def test_girth_determines_batch_size(self):
        # The 5-cycle has girth 5, so its incidence code serves batches up
        # to k=4 with r=1, and fails at nothing below that.
        code = code_from_graph(cycle_graph(5))
        for k in (2, 3, 4):
            assert verify(code, CodeParams(5, k, 5, 1)).ok, k

    def test_triangle_fails_above_k2(self):
        tri = BatchCode(4, [(1, 2), (1, 3), (2, 3)])
        assert verify(tri, CodeParams(3, 2, 4, 1)).ok
        assert not verify(tri, CodeParams(3, 3, 4, 1)).ok

    def test_equivalence_on_all_four_vertex_graphs(self):
        # Weight-2n codes with r=1 are exactly graphs of girth > k.
        for g in all_graphs(4):
            if g.edge_count < 4:  # need n >= m for the correspondence
                continue
            code = code_from_graph(g)
            for k in (2, 3):
                p = CodeParams(code.n, k, 4, 1)
                assert verify(code, p).ok == (girth(g) >= k + 1), (g.edges, k)


class TestMaxEdges:
    def test_known_extremal_values(self):
        # Triangle-free on 5 vertices: the complete bipartite split, 6 edges.
        assert max_edges_with_girth(5, 4).value == 6
        # No constraint below girth 3: all pairs fit.
        assert max_edges_with_girth(5, 3).value == 10
        assert max_edges_with_girth(5, 5).value == 5
        assert max_edges_with_girth(6, 4).value == 9
        # OEIS A006855 (no 3- or 4-cycle) at 11 vertices, A006856 (girth 6).
        for m, girth_min, expected in ((11, 5, 16), (10, 6, 12), (12, 6, 16)):
            result = max_edges_with_girth(m, girth_min)
            assert (result.value, result.exact) == (expected, True), (m, girth_min)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            max_edges_with_girth(0, 4)
        with pytest.raises(ValueError, match="at least 3"):
            max_edges_with_girth(5, 2)

    def test_extremal_values_up_to_ten_vertices(self):
        # Mantel: triangle-free graphs have at most floor(m^2/4) edges.
        # OEIS A006855: most edges with no 3- or 4-cycle.
        girth5 = (0, 1, 2, 3, 5, 6, 8, 10, 12, 15)
        for m in range(1, 11):
            four = max_edges_with_girth(m, 4)
            five = max_edges_with_girth(m, 5)
            assert (four.value, four.exact) == (m * m // 4, True), m
            assert (five.value, five.exact) == (girth5[m - 1], True), m

    def test_witness_achieves_the_bound(self):
        result = max_edges_with_girth(6, 4)
        g = graph_from_code(result.witness)
        assert g.edge_count == result.value
        assert girth(g) >= 4

    def test_matches_trivial_weight_threshold(self):
        # Batch size k needs girth k+1, so the extremal edge count equals the
        # largest n whose minimum weight is exactly 2n at that k, r=1.
        for m in (4, 5):
            assert (
                max_edges_with_girth(m, 4).value
                == trivial_weight_max(3, m, 1).value
            )
        assert max_edges_with_girth(5, 5).value == trivial_weight_max(4, 5, 1).value
        # Girth 4 is the packing of triangle-free codes (k = 3 needs m >= 4).
        for m in range(4, 10):
            mantel = max_edges_with_girth(m, 4).value
            assert mantel == uniform_packing_max(3, m, 1, 2).value, m

    def test_matches_exhaustive_search(self):
        for girth_min in (3, 4, 5, 6):
            expected = max(
                (g.edge_count for g in all_graphs(4) if girth(g) >= girth_min),
            )
            assert max_edges_with_girth(4, girth_min).value == expected

    def test_pinned_node_count(self):
        # Taken from the packing search uniform_packing_max(4, 7, 1, 2).
        result = max_edges_with_girth(7, 5)
        assert (result.value, result.exact, result.nodes) == (8, True, 416)
        assert result.witness.columns == (
            (1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 6), (5, 7),
        )

    @pytest.mark.parametrize("node_limit", [4_095, 4_096, 4_097])
    def test_stop_points(self, node_limit):
        # A capped run stops at exactly its node limit, on both sides of the
        # first checkpoint at 4096 nodes.
        result = max_edges_with_girth(10, 5, SearchBudget(node_limit=node_limit))
        assert (result.value, result.exact, result.nodes) == (12, False, node_limit)
        assert result.witness.columns == (
            (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 7), (2, 8), (3, 9),
            (4, 10), (7, 9), (8, 10), (9, 10),
        )

    @pytest.mark.parametrize(
        "node_limit, expected", [(416, (8, False, 416)), (417, (8, True, 416))]
    )
    def test_limit_counts_the_last_node(self, node_limit, expected):
        # The proof of (7, 5) takes exactly 416 nodes.  A search stops when it
        # counts its node_limit-th node, before handling it, so the proof
        # needs node_limit=417.
        result = max_edges_with_girth(7, 5, SearchBudget(node_limit=node_limit))
        assert (result.value, result.exact, result.nodes) == expected

    @pytest.mark.parametrize("node_limit", [1, 37, 20_000])
    def test_matches_reference_loop(self, node_limit):
        # Where the two-call include/exclude search in helpers (no symmetry
        # rule) is exact, the value is the same.  Capped or not, the witness
        # is a simple graph of girth >= girth_min with `value` edges.
        budget = SearchBudget(node_limit=node_limit)
        for m in range(1, 9):
            for girth_min in range(3, 8):
                got = max_edges_with_girth(m, girth_min, budget)
                want = reference_max_edges_with_girth(m, girth_min, budget)
                if want.exact:
                    assert (got.value, got.exact) == (want.value, True), (m, girth_min)
                assert got.bound == ("exact" if got.exact else "lower")
                g = graph_from_code(got.witness)
                assert g.vertices == m
                assert g.edge_count == got.value
                assert girth(g) >= girth_min, (m, girth_min)

    def test_budget_exhaustion_reports_lower_bound(self):
        result = max_edges_with_girth(9, 5, SearchBudget(node_limit=20))
        assert not result.exact
        assert result.bound == "lower"
        g = graph_from_code(result.witness)
        assert girth(g) >= 5
        assert g.edge_count == result.value


class TestNetworkxOracle:
    """Witnesses checked with networkx's girth, which shares no code with
    the library (networkx is a test-only dependency)."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_witness_girth(self, m):
        nx = pytest.importorskip("networkx")
        for girth_min in range(3, 7):
            result = max_edges_with_girth(m, girth_min)
            assert result.exact
            g = nx.Graph(result.witness.columns)
            g.add_nodes_from(range(1, m + 1))
            assert g.number_of_nodes() == m
            assert g.number_of_edges() == result.value
            assert nx.girth(g) >= girth_min, (m, girth_min)


class TestGraphText:
    def test_parse_and_render(self):
        text = "5 5\n1 2\n2 3\n3 4\n4 5\n1 5\n"
        g = parse_graph(text)
        assert g == cycle_graph(5)
        assert parse_graph(render_graph(g)) == g

    def test_comments_and_blanks(self):
        g = parse_graph("# pentagon\n\n3 1\n\n1 2\n")
        assert g.edges == ((1, 2),)

    def test_header_errors(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("")
        with pytest.raises(GraphFormatError, match="two integers"):
            parse_graph("3\n")

    def test_edge_errors_carry_line_numbers(self):
        with pytest.raises(GraphFormatError) as info:
            parse_graph("3 2\n1 2\n1 2\n")
        assert info.value.line == 3
        with pytest.raises(GraphFormatError) as info:
            parse_graph("3 2\n1 2\n2 2\n")
        assert info.value.line == 3
        with pytest.raises(GraphFormatError) as info:
            parse_graph("3 2\n1 4\n2 3\n")
        assert info.value.line == 2

    def test_non_integer_edge_line_carries_line_number(self):
        with pytest.raises(GraphFormatError, match="two integers") as info:
            parse_graph("3 2\n1 2\n# note\n2 x\n")
        assert info.value.line == 4

    def test_edge_line_needs_decimal_digits(self):
        # "²" is a digit to str.isdigit but not a decimal int() accepts.
        with pytest.raises(GraphFormatError, match="two integers") as info:
            parse_graph("3 1\n1 ²\n")
        assert info.value.line == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            parse_graph("3 2\n1 2\n")
        with pytest.raises(GraphFormatError):
            parse_graph("3 1\n1 2\n2 3\n")

    def test_isolated_vertices_round_trip(self):
        g = SimpleGraph(6, [(2, 5)])
        assert parse_graph(render_graph(g)) == g
        assert render_graph(g) == "6 1\n2 5\n"
