"""Retrieval planning: assign demanded files to distinct available servers.

A plan exists exactly when the demanded columns, restricted to the available
servers, satisfy Hall's condition.  Feasibility of every maximal demand under
every maximal outage is what makes a placement a code, so the exhaustive
check here doubles as the definitional verification strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .core import (
    BatchCode,
    CodeParams,
    ServiceWitness,
    _check_dimensions,
    _check_serviceability,
)

__all__ = [
    "InfeasibleDemand",
    "RetrievalPlan",
    "exhaustive_service_check",
    "plan_retrieval",
]


@dataclass(frozen=True)
class RetrievalPlan:
    """A one-file-per-server assignment, sorted by file index."""

    assignment: tuple[tuple[int, int], ...]  # (file, server) pairs

    def server_for(self, file: int) -> int:
        for f, s in self.assignment:
            if f == file:
                return s
        raise KeyError(f"file {file} is not in the plan")

    def as_dict(self) -> dict[int, int]:
        return dict(self.assignment)


class InfeasibleDemand(Exception):
    """No assignment exists; `hall_set` jointly reaches too few servers."""

    def __init__(
        self,
        demand: tuple[int, ...],
        available: tuple[int, ...],
        hall_set: tuple[int, ...],
    ) -> None:
        super().__init__(
            f"files {list(hall_set)} reach fewer than {len(hall_set)} "
            "of the available servers"
        )
        self.demand = demand
        self.available = available
        self.hall_set = hall_set


def _find_assignment(
    colsets: list[set[int]], demand: tuple[int, ...], avail: set[int]
) -> dict[int, int] | tuple[int, ...]:
    """Match files to servers; return file->server, or a Hall set on failure.

    Deterministic: files are taken in ascending order and each file probes
    its candidate servers in ascending order.
    """
    candidates = {f: sorted(colsets[f - 1] & avail) for f in demand}
    matched: dict[int, int] = {}  # server -> file

    def augment(f: int, visited: set[int]) -> bool:
        # Free servers first, so earlier files keep their lowest servers.
        for s in candidates[f]:
            if s not in matched:
                matched[s] = f
                return True
        for s in candidates[f]:
            if s in visited:
                continue
            visited.add(s)
            if augment(matched[s], visited):
                matched[s] = f
                return True
        return False

    for f in demand:
        visited: set[int] = set()
        if not augment(f, visited):
            # Every visited server is matched; those files plus f jointly
            # reach only the visited servers, one short of what they need.
            stuck = sorted({f} | {matched[s] for s in visited})
            return tuple(stuck)
    return {f: s for s, f in matched.items()}


def plan_retrieval(
    code: BatchCode,
    p: CodeParams,
    demand: Iterable[int],
    available: Iterable[int],
) -> RetrievalPlan:
    """Plan one server per demanded file, or raise InfeasibleDemand.

    The demand must be a nonempty set of at most k files; the available set
    must hold at least m - r servers.  Ties break toward lower server
    indices, files assigned in ascending order.
    """
    _check_dimensions(code, p)
    _check_serviceability(p)
    dem = tuple(sorted(set(demand)))
    avail = tuple(sorted(set(available)))
    if not dem:
        raise ValueError("demand is empty")
    if len(dem) > p.k:
        raise ValueError(f"demand has {len(dem)} files, batch size is {p.k}")
    if dem[0] < 1 or dem[-1] > p.n:
        raise ValueError(f"demand {list(dem)} is not within files 1..{p.n}")
    if avail and (avail[0] < 1 or avail[-1] > p.m):
        raise ValueError(f"availability {list(avail)} is not within servers 1..{p.m}")
    if len(avail) < p.m - p.r:
        raise ValueError(
            f"only {len(avail)} servers available, need at least {p.m - p.r}"
        )
    colsets = [set(col) for col in code.columns]
    result = _find_assignment(colsets, dem, set(avail))
    if isinstance(result, tuple):
        raise InfeasibleDemand(dem, avail, result)
    return RetrievalPlan(tuple(sorted(result.items())))


def exhaustive_service_check(code: BatchCode, p: CodeParams) -> ServiceWitness | None:
    """Try every maximal demand against every maximal availability set.

    Returns None when all pairs are servable, else a witness for the first
    failing pair in (demand, availability) lexicographic order.  Serving smaller demands or
    larger availability sets is implied by restriction, so maximal pairs
    decide the property.
    """
    _check_dimensions(code, p)
    _check_serviceability(p)
    if p.n == 0:
        return None
    colsets = [set(col) for col in code.columns]
    dsize = min(p.k, p.n)
    asize = p.m - p.r
    for dem in combinations(range(1, p.n + 1), dsize):
        for avail in combinations(range(1, p.m + 1), asize):
            result = _find_assignment(colsets, dem, set(avail))
            if isinstance(result, tuple):
                return ServiceWitness(dem, avail, result)
    return None
