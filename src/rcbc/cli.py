"""Command-line front end.

Exit codes: 0 success, 1 verification or retrieval failure, 2 usage error,
3 search budget exhausted.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path

from .constructions import NoKnownConstruction, construct_optimal, predicted_weight
from .core import (
    STRATEGIES,
    CodeParams,
    ColumnUnionWitness,
    RowContainmentWitness,
    cross_check,
    validate_params,
    verify,
    weight,
)
from .graphs import graph_from_code, max_edges_with_girth, render_graph
from .matrixio import parse_matrix, render_matrix
from .retrieval import InfeasibleDemand, plan_retrieval
from .search import DEFAULT_BUDGET, SearchBudget, exact_min_weight

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _add_param_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--params", help="packed parameters n,k,m,r")
    sub.add_argument("--n", type=_int, help="number of files")
    sub.add_argument("--k", type=_int, help="batch size")
    sub.add_argument("--m", type=_int, help="number of servers")
    sub.add_argument("--r", type=_int, help="tolerated server outages")


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--node-limit",
        type=_int,
        default=DEFAULT_BUDGET.node_limit,
        help="search node cap (default %(default)s)",
    )
    sub.add_argument(
        "--time-limit",
        type=float,
        default=DEFAULT_BUDGET.time_limit,
        help="search seconds cap (default %(default)s)",
    )


def _resolve_params(args: argparse.Namespace) -> CodeParams:
    if args.params is not None:
        if any(getattr(args, f) is not None for f in "nkmr"):
            raise ValueError("--params cannot be combined with --n/--k/--m/--r")
        usage = "--params needs four comma-separated integers"
        n, k, m, r = _int_list(args.params, usage, count=4)
    else:
        for f in "nkmr":
            if getattr(args, f) is None:
                raise ValueError(f"missing --{f} (or pass --params n,k,m,r)")
        n, k, m, r = args.n, args.k, args.m, args.r
    p = CodeParams(n, k, m, r)
    validate_params(p)
    return p


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(node_limit=args.node_limit, time_limit=args.time_limit)


def _int_list(
    text: str, usage: str, sep: str = ",", count: int | None = None
) -> list[int]:
    """The integers in `text` separated by `sep`; empty text gives [].

    Each integer is decimal digits with an optional leading minus, so a
    negative value reaches the range checks; no plus, space or underscore.
    Raises ValueError with `usage` on anything else, or when `count` is
    given and the number of integers differs.
    """
    fields = text.split(sep) if text else []
    digits = all(f.removeprefix("-").isdecimal() for f in fields)
    if not digits or count not in (None, len(fields)):
        raise ValueError(f"{usage}, got {text!r}")
    return [int(f) for f in fields]


def _int(text: str) -> int:
    """One integer as _int_list reads it; the argparse `type` of integer flags."""
    try:
        return _int_list(text, "expected an integer", count=1)[0]
    except ValueError as exc:  # argparse shows this message, not "invalid value"
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_range(text: str) -> list[int]:
    if ":" in text:
        lo, hi = _int_list(text, "bad range, expected LO:HI", sep=":", count=2)
        return list(range(lo, hi + 1))
    return _int_list(text, "expected N, LO:HI, or comma-separated integers")


def _describe(witness) -> str:
    if isinstance(witness, ColumnUnionWitness):
        return (
            f"columns {list(witness.columns)} span only servers "
            f"{list(witness.span)} ({len(witness.span)} of the required "
            f"r + {len(witness.columns)})"
        )
    if isinstance(witness, RowContainmentWitness):
        return (
            f"servers {list(witness.rows)} fully contain columns "
            f"{list(witness.columns)} ({len(witness.columns)} exceeds "
            f"{len(witness.rows)} - r)"
        )
    return (
        f"demand {list(witness.demand)} with servers {list(witness.available)} "
        f"available: files {list(witness.hall_set)} reach fewer than "
        f"{len(witness.hall_set)} servers"
    )


def _cmd_construct(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    try:
        code, prediction = construct_optimal(p, budget=_budget(args))
    except NoKnownConstruction as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if exc.budget_limited else 2
    text = (
        f"# regime: {prediction.regime}\n"
        f"# weight: {prediction.value}\n" + render_matrix(code)
    )
    _emit(text, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    code = parse_matrix(_read_text(args.file))
    if args.strategy == "all":
        report = cross_check(code, p)
        shown = "all strategies agree"
    else:
        report = verify(code, p, args.strategy)
        shown = report.strategy
    if report.ok:
        print(f"ok ({shown})")
        return 0
    print(f"fail ({report.strategy}): {_describe(report.witness)}", file=sys.stderr)
    return 1


def _cmd_retrieve(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    code = parse_matrix(_read_text(args.file))
    demand = _int_list(args.demand, "--demand needs comma-separated integers")
    down = set(_int_list(args.down, "--down needs comma-separated integers"))
    outside = sorted(s for s in down if not 1 <= s <= p.m)
    if outside:
        raise ValueError(f"down servers {outside} are not within servers 1..{p.m}")
    available = sorted(set(range(1, p.m + 1)) - down)
    try:
        plan = plan_retrieval(code, p, demand, available)
    except InfeasibleDemand as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    print(" ".join(f"{f}->{s}" for f, s in plan.assignment))
    return 0


def _cmd_optimal(args: argparse.Namespace) -> int:
    p = _resolve_params(args)
    result = exact_min_weight(p, _budget(args))
    text = (
        f"# {'weight' if result.exact else 'weight-lower-bound'}: {result.value}\n"
        f"# exact: {'yes' if result.exact else 'no'}\n"
        f"# nodes: {result.nodes}\n"
    )
    if result.witness is not None:
        if not result.exact:
            text += f"# best-found-weight: {weight(result.witness)}\n"
        text += render_matrix(result.witness)
    _emit(text, args.out)
    return 0 if result.exact else 3


def _table_row(budget: SearchBudget, p: CodeParams) -> tuple[str, bool]:
    """One CSV row comparing p's formula with the oracle, and oracle.exact."""
    prediction = predicted_weight(p, budget=budget)
    oracle = exact_min_weight(p, budget)
    predicted = "" if prediction.value is None else prediction.value
    return (
        f"{p.n},{p.k},{p.m},{p.r},{prediction.regime or 'unknown'},{predicted},"
        f"{oracle.value},{'true' if oracle.exact else 'false'}",
        oracle.exact,
    )


def _cmd_table(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    ranges = [_parse_range(text) for text in (args.n, args.k, args.m, args.r)]
    row = functools.partial(_table_row, _budget(args))
    params = []
    for n, k, m, r in itertools.product(*ranges):
        try:
            p = CodeParams(n, k, m, r)
        except ValueError:
            continue
        if p.is_valid:
            params.append(p)
    print("n,k,m,r,regime,predicted,oracle,exact")
    workers = min(args.jobs, len(params))  # never more processes than rows
    if workers > 1:
        from multiprocessing import Pool

        with Pool(workers) as pool:
            rows = pool.map(row, params)
    else:
        rows = [row(p) for p in params]
    for line, _ in rows:
        print(line)
    return 0 if all(exact for _, exact in rows) else 3


def _cmd_girth_search(args: argparse.Namespace) -> int:
    result = max_edges_with_girth(args.m, args.girth, _budget(args))
    graph = graph_from_code(result.witness)
    text = (
        f"# max-edges: {result.value}\n"
        f"# exact: {'yes' if result.exact else 'no'}\n" + render_graph(graph)
    )
    sys.stdout.write(text)
    return 0 if result.exact else 3


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcbc",
        description="Redundant batch codes: construct, verify, plan retrieval, search.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("construct", help="emit an optimal code for a covered regime")
    _add_param_flags(sub)
    _add_budget_flags(sub)
    sub.add_argument("--out", help="output file (default stdout)")
    sub.set_defaults(handler=_cmd_construct)

    sub = subs.add_parser("verify", help="check a matrix file against parameters")
    _add_param_flags(sub)
    sub.add_argument(
        "--strategy",
        choices=["auto", *STRATEGIES, "all"],
        default="auto",
        help="verification strategy; 'all' cross-checks the three",
    )
    sub.add_argument("file", help="matrix file, or - for stdin")
    sub.set_defaults(handler=_cmd_verify)

    sub = subs.add_parser("retrieve", help="plan one server per demanded file")
    _add_param_flags(sub)
    sub.add_argument("--demand", required=True, help="files to fetch, e.g. 1,4")
    sub.add_argument("--down", default="", help="unavailable servers, e.g. 1,2,3")
    sub.add_argument("file", help="matrix file, or - for stdin")
    sub.set_defaults(handler=_cmd_retrieve)

    sub = subs.add_parser("optimal", help="exact minimum weight by branch and bound")
    _add_param_flags(sub)
    _add_budget_flags(sub)
    sub.add_argument("--out", help="output file (default stdout)")
    sub.set_defaults(handler=_cmd_optimal)

    sub = subs.add_parser("table", help="CSV sweep comparing formulas to the oracle")
    sub.add_argument("--n", required=True, help="range: N, LO:HI, or comma list")
    sub.add_argument("--k", required=True, help="range: N, LO:HI, or comma list")
    sub.add_argument("--m", required=True, help="range: N, LO:HI, or comma list")
    sub.add_argument("--r", required=True, help="range: N, LO:HI, or comma list")
    sub.add_argument(
        "--jobs", type=_int, default=1, help="workers, at most one per row"
    )
    _add_budget_flags(sub)
    sub.set_defaults(handler=_cmd_table)

    sub = subs.add_parser(
        "girth-search", help="most edges of an m-vertex graph with girth >= bound"
    )
    sub.add_argument("--m", type=_int, required=True, help="number of vertices")
    sub.add_argument("--girth", type=_int, required=True, help="minimum girth")
    _add_budget_flags(sub)
    sub.set_defaults(handler=_cmd_girth_search)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
