"""Weight-2n codes with r = 1 are exactly simple graphs of high girth.

View a code whose columns all have cardinality 2 as a graph on the servers:
columns are edges.  For 2 <= k < m <= n, the code serves batches of k under
one server outage exactly when the graph is simple with girth at least k+1.
So the most edges on m vertices at girth >= g is the largest
cardinality-2 code for k = g-1 and r = 1.  max_edges_with_girth answers
girth above m in closed form and leaves every other girth to that packing
search, uniform_packing_max(g-1, m, 1, 2), itself a closed form at girth 3
and 4.

Graph text format: an "m e" header (vertices, edges), then e lines "u v".
Blank lines and '#' comments are ignored, as in the matrix format.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable

from .core import BatchCode, _Value
from .matrixio import read_records
from .search import SearchBudget, SearchResult, uniform_packing_max

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

    Above girth m no cycle fits, so a star with m-1 edges is exact at 0
    nodes.  Every other girth is answered by uniform_packing_max(girth_min -
    1, m, 1, 2), whose codes are these graphs; its result, node count and
    witness are returned as they are.  That search answers girth 3 (the
    complete graph) and girth 4 (Mantel's K_{ceil(m/2), floor(m/2)}) in
    closed form.
    """
    if m < 1:
        raise ValueError(f"need at least one vertex, got {m}")
    if girth_min < 3:
        raise ValueError(f"girth bound must be at least 3, got {girth_min}")
    if girth_min <= m:
        return uniform_packing_max(girth_min - 1, m, 1, 2, budget=budget)
    witness = code_from_graph(SimpleGraph(m, ((1, v) for v in range(2, m + 1))))
    return SearchResult(witness.n, witness, True)


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
