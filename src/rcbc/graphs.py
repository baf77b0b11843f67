"""Weight-2n codes with r = 1 are exactly simple graphs of high girth.

View a code whose columns all have cardinality 2 as a graph on the servers:
columns are edges.  For 2 <= k < m <= n, the code serves batches of k under
one server outage exactly when the graph is simple with girth at least k+1.
That turns the search for the largest such code into an extremal graph
question, answered here by exhaustive edge search.  The search fixes
vertex 1 as a vertex of maximum degree d with neighbours 2, ..., d+1, which
every graph satisfies after relabelling, and caps every other degree at d.

Graph text format: an "m e" header (vertices, edges), then e lines "u v".
Blank lines and '#' comments are ignored, as in the matrix format.
"""

from __future__ import annotations

import math
import time
from collections import deque
from itertools import combinations
from typing import Iterable

from .core import BatchCode, _Value
from .matrixio import read_records
from .search import (
    DEFAULT_BUDGET, BudgetExhausted, SearchBudget, SearchResult, checkpoint, too_deep
)

__all__ = [
    "GraphFormatError",
    "NotAGraph",
    "SimpleGraph",
    "code_from_graph",
    "girth",
    "graph_from_code",
    "max_edges_with_girth",
    "parse_graph",
    "render_graph",
]


class SimpleGraph(_Value):
    """An undirected graph on vertices 1..vertices; no loops, no multi-edges."""

    vertices: int
    edges: tuple[tuple[int, int], ...]  # sorted pairs, sorted lexicographically

    def __init__(self, vertices: int, edges: Iterable[tuple[int, int]]) -> None:
        if vertices < 1:
            raise ValueError(f"need at least one vertex, got {vertices}")
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= vertices and 1 <= v <= vertices):
                raise ValueError(f"edge ({u}, {v}) not within vertices 1..{vertices}")
            norm.add((min(u, v), max(u, v)))
        self.__dict__.update(vertices=vertices, edges=tuple(sorted(norm)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def _adjacency(graph: SimpleGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(graph.vertices + 1)]
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def girth(graph: SimpleGraph) -> int | float:
    """Length of the shortest cycle, or math.inf for forests.

    Breadth-first search from every vertex; a non-tree edge between vertices
    at depths a and b closes a cycle of length at most a + b + 1, and the
    minimum over all roots is exact.
    """
    adj = _adjacency(graph)
    best: int | float = math.inf
    for root in range(1, graph.vertices + 1):
        dist = {root: 0}
        parent = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
        if best == 3:
            return 3
    return best


class NotAGraph(ValueError):
    """The code is not an incidence matrix of a simple graph."""

    def __init__(self, message: str, column: int) -> None:
        super().__init__(f"{message} (column {column})")
        self.column = column


def code_from_graph(graph: SimpleGraph) -> BatchCode:
    """Columns are the edges, in lexicographic order."""
    return BatchCode(graph.vertices, graph.edges)


def graph_from_code(code: BatchCode) -> SimpleGraph:
    """Inverse of code_from_graph; rejects non-graph codes."""
    seen: set[tuple[int, ...]] = set()
    for j, col in enumerate(code.columns, start=1):
        if len(col) != 2:
            raise NotAGraph(f"column cardinality {len(col)}, expected 2", j)
        if col in seen:
            raise NotAGraph(f"parallel edge {col}", j)
        seen.add(col)
    return SimpleGraph(code.m, code.columns)


def max_edges_with_girth(
    m: int, girth_min: int, budget: SearchBudget | None = None
) -> SearchResult:
    """Most edges of a simple graph on m vertices with girth >= girth_min.

    Include/exclude search over edges in lexicographic order: an edge may be
    added only when its endpoints are at distance >= girth_min - 1, so every
    cycle ever closed has length >= girth_min.

    Symmetry: vertex 1 has the maximum degree d, and its neighbours are
    exactly 2, ..., d+1.  Any graph can be relabelled so that a vertex of
    maximum degree is 1 and its neighbours come next, so no optimum is lost.
    The search tries d = m-1, m-2, ... in turn, which fixes the edges at
    vertex 1, and searches the other edges with every degree capped at d.
    It stops once floor(m d / 2), the most edges a graph of maximum degree
    d can have, cannot beat the best graph.

    A node is one choice of d, or one edge between vertices 2..m
    considered, whether it can be added or not; a branch stops once the
    edges left cannot beat the best graph.  The witness is returned as a
    code (columns are the edges of a maximum graph).
    """
    if m < 1:
        raise ValueError(f"need at least one vertex, got {m}")
    if girth_min < 3:
        raise ValueError(f"girth bound must be at least 3, got {girth_min}")
    budget = budget or DEFAULT_BUDGET
    all_edges = list(combinations(range(1, m + 1), 2))
    steps = range(girth_min - 2)
    node_limit, deadline = budget.node_limit, time.monotonic() + budget.time_limit
    nodes = check_at = 0
    adj = [0] * (m + 1)  # neighbour bitmask of each vertex
    cap = m - 1  # degree of vertex 1, which no other vertex may exceed
    chosen: list[tuple[int, int]] = []
    best = 0
    best_edges: list[tuple[int, int]] = []

    def descend(idx: int) -> None:
        """Search edges idx, idx+1, ...: including recurses, excluding loops."""
        nonlocal best, best_edges, nodes, check_at
        depth = len(chosen)
        if depth > best:
            best = depth
            best_edges = chosen.copy()
        while idx < len(all_edges) + depth - best:
            u, v = all_edges[idx]
            idx += 1
            nodes += 1
            if nodes >= check_at:
                check_at = checkpoint(nodes, check_at, node_limit, deadline)
            if adj[u].bit_count() == cap or adj[v].bit_count() == cap:
                continue
            # Frontier BFS from u over bitmasks: v must not be reached
            # within girth_min - 2 steps.
            target = 1 << v
            seen = frontier = 1 << u
            for _ in steps:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
                if reach & target:
                    break  # u-v would close a cycle shorter than girth_min
                frontier = reach & ~seen
                seen |= frontier
            else:
                adj[u] |= target
                adj[v] |= 1 << u
                chosen.append((u, v))
                descend(idx)
                chosen.pop()
                adj[u] ^= target
                adj[v] ^= 1 << u

    # Vertex 1 starts adjacent to every other vertex; each pass of the loop
    # below drops its last neighbour.
    for v in range(2, m + 1):
        adj[1] |= 1 << v
        adj[v] = 1 << 1
        chosen.append((1, v))
    exact = True
    try:
        # Vertex 1 has maximum degree `cap` and neighbours 2, ..., cap+1;
        # the edges between vertices 2..m (from index m-1) are searched
        # under that cap.
        while m * cap // 2 > best:
            nodes += 1
            if nodes >= check_at:
                check_at = checkpoint(nodes, check_at, node_limit, deadline)
            descend(m - 1)
            v = cap + 1
            adj[1] ^= 1 << v
            adj[v] = 0
            chosen.pop()
            cap -= 1
    except BudgetExhausted as stop:
        exact, nodes = False, stop.args[0]
    except RecursionError:  # one level per added edge
        raise too_deep("max_edges_with_girth") from None
    witness = code_from_graph(SimpleGraph(m, best_edges))
    return SearchResult(best, witness, exact, nodes)


# ---------------------------------------------------------------------------
# Graph text format


class GraphFormatError(ValueError):
    """Malformed graph text; carries the offending 1-based line."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"{message} (line {line})")
        self.line = line


def parse_graph(text: str) -> SimpleGraph:
    """Read a SimpleGraph from graph text."""
    m, e, head_num, rows = read_records(text, "m e", GraphFormatError)
    if len(rows) != e:
        where = rows[e][0] if len(rows) > e else (rows[-1][0] if rows else head_num)
        raise GraphFormatError(f"expected {e} edge lines, found {len(rows)}", where)
    edges = []
    seen: set[tuple[int, int]] = set()
    for num, row in rows:
        fields = row.split()
        if len(fields) != 2 or not all(f.isdecimal() for f in fields):
            raise GraphFormatError(f"edge line must be two integers, got {row!r}", num)
        u, v = int(fields[0]), int(fields[1])
        if u == v:
            raise GraphFormatError(f"loop at vertex {u}", num)
        if not (1 <= u <= m and 1 <= v <= m):
            raise GraphFormatError(f"edge ({u}, {v}) not within vertices 1..{m}", num)
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise GraphFormatError(f"duplicate edge {pair}", num)
        seen.add(pair)
        edges.append(pair)
    return SimpleGraph(m, edges)


def render_graph(graph: SimpleGraph) -> str:
    """Graph text for a SimpleGraph; parses back to an equal graph."""
    lines = [f"{graph.vertices} {graph.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(lines) + "\n"
