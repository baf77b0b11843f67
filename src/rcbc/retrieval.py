"""Retrieval planning: assign demanded files to distinct available servers.

A plan exists exactly when the demanded columns, restricted to the available
servers, satisfy Hall's condition.  Feasibility of every maximal demand under
every maximal outage is what makes a placement a code, so the exhaustive
check here doubles as the definitional verification strategy.

Matching walks augmenting paths over server bitmasks, files and then servers
in ascending order, so equal inputs give the same plan and Hall set.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .core import (
    BatchCode,
    CodeParams,
    ServiceWitness,
    _check_dimensions,
    _check_serviceability,
    _masks,
    _Value,
)

__all__ = [
    "InfeasibleDemand",
    "RetrievalPlan",
    "exhaustive_service_check",
    "plan_retrieval",
]


class RetrievalPlan(_Value):
    """A one-file-per-server assignment, sorted by file index."""

    assignment: tuple[tuple[int, int], ...]  # (file, server) pairs

    def __init__(self, assignment: tuple[tuple[int, int], ...]) -> None:
        self.__dict__["assignment"] = assignment

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


def _augment(
    masks: list[int], avail: int, owner: dict, taken: int, f: int, seen: list
) -> int:
    """Walk an augmenting path from file f; return the server bit it frees, or 0.

    `owner` (matched server bit -> file) is rewired along the path; visited
    servers gather in seen[0].  Not a closure that calls itself: that is a
    reference cycle, leaving each call's state to the garbage collector.
    """
    cand = masks[f - 1] & avail
    if free := cand & ~taken:  # free servers first: earlier files keep the lowest
        owner[free & -free] = f
        return free & -free
    # Candidates below the lowest unvisited one are visited, so this ascends.
    while rest := cand & ~seen[0]:
        bit = rest & -rest
        seen[0] |= bit
        if freed := _augment(masks, avail, owner, taken, owner[bit], seen):
            owner[bit] = f
            return freed
    return 0


def _find_assignment(
    masks: list[int], demand: tuple[int, ...], avail: int
) -> dict[int, int] | tuple[int, ...]:
    """Match files to servers; return server bit -> file, or a Hall set."""
    owner: dict[int, int] = {}
    taken = 0
    for f in demand:
        if free := masks[f - 1] & avail & ~taken:  # the common case, with no call
            bit = free & -free
            owner[bit] = f
        else:
            seen = [0]
            bit = _augment(masks, avail, owner, taken, f, seen)
            if not bit:
                # Every visited server is matched; those files plus f jointly
                # reach only the visited servers, one short of what they need.
                return tuple(sorted({f, *(g for s, g in owner.items() if s & seen[0])}))
        taken |= bit
    return owner


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
    result = _find_assignment(_masks(code), dem, sum(1 << (s - 1) for s in avail))
    if isinstance(result, tuple):
        raise InfeasibleDemand(dem, avail, result)
    return RetrievalPlan(tuple(sorted((f, b.bit_length()) for b, f in result.items())))


def _first_unserved(
    masks: list[int], avail: int, owner: dict, taken: int, start: int, left: int,
    limit: tuple[int, ...] | None,
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(suffix, Hall set) for the first `left` files from `start` on that
    `avail` cannot serve after a prefix matched into `owner` and `taken`, or
    None.  While the prefix agrees with the best failing demand so far,
    `limit` is the rest of that demand, and only suffixes before it run.
    """
    stop = len(masks) - left + 2 if limit is None else limit[0] + (left > 1)
    free = avail & ~taken
    for f in range(start, stop):
        if b := masks[f - 1] & free:
            if left == 1:  # the last file needs only a free server
                continue
            bit = b & -b
            owner[bit] = f  # entries outside `taken` are stale and never read
            mine = owner
        else:
            mine = dict(owner)  # _augment rewires servers the prefix matched
            seen = [0]
            bit = _augment(masks, avail, mine, taken, f, seen)
            if not bit:  # every suffix starting with f fails at f
                hall = {f, *(g for s, g in owner.items() if s & seen[0])}
                return tuple(range(f, f + left)), tuple(sorted(hall))
            if left == 1:
                continue
        rest = limit[1:] if limit is not None and f == limit[0] else None
        found = _first_unserved(masks, avail, mine, taken | bit, f + 1, left - 1, rest)
        if found:
            return (f, *found[0]), found[1]
    return None


def exhaustive_service_check(code: BatchCode, p: CodeParams) -> ServiceWitness | None:
    """Try every maximal demand against every maximal availability set.

    Returns None when all pairs are servable, else a witness for the first
    failing pair in (demand, availability) lexicographic order.  Serving smaller demands or
    larger availability sets is implied by restriction, so maximal pairs
    decide the property.  Each availability set matches each demand prefix
    once, as _find_assignment would, and tries only demands before the best
    failing one so far, so the witness is still the first pair's.
    """
    _check_dimensions(code, p)
    _check_serviceability(p)
    if p.n == 0:
        return None
    masks = _masks(code)
    best: ServiceWitness | None = None
    for avail in combinations(range(1, p.m + 1), p.m - p.r):
        amask = sum(1 << (s - 1) for s in avail)
        limit = None if best is None else best.demand
        found = _first_unserved(masks, amask, {}, 0, 1, min(p.k, p.n), limit)
        if found and (limit is None or found[0] < limit):
            best = ServiceWitness(found[0], avail, found[1])
    return best
