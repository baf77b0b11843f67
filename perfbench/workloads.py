"""The three benchmark workloads.

Each workload builds its inputs from the seed when it is created, then
exposes

- `setup(tracer=None)`: the program's set-up, timed as `setup_s`;
- `run_round(tracer=None)`: one fixed amount of work (a round), timing each
  operation; the same inputs are replayed in every round;
- `check(outputs)`: one verdict per operation (None when correct), run
  outside every timed span.

A round's outputs compare equal to the first round's exactly when the
program behaved identically, so only the first round needs the full check.
"""

from __future__ import annotations

import importlib
import io
import math
import random
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from array import array
from dataclasses import dataclass
from pathlib import Path

from tracing import gap_window

clock = time.perf_counter_ns


def fresh_rcbc():
    """Import rcbc anew, so module-level caches start cold as in a new process."""
    for name in [n for n in sys.modules if n.split(".")[0] == "rcbc"]:
        del sys.modules[name]
    importlib.import_module("rcbc.cli")
    return importlib.import_module("rcbc")


def traced(tracer):
    return tracer.installed() if tracer is not None else nullcontext()


def unexpected(exc: Exception) -> tuple[str, str]:
    traceback.print_exception(exc, file=sys.stderr)
    return ("error", f"{type(exc).__name__}: {exc}")


@dataclass
class Round:
    latencies_ns: array  # one per operation
    outputs: list | None  # dropped once checked, to keep memory flat
    label: str | None = None  # the tracer's phase, when traced


# ---------------------------------------------------------------------------
# retrieve-stream


class RetrieveStream:
    """Closed loop, one client: plan_retrieval on the large-n (800,4,10,2) code.

    Every tenth request goes to a degraded copy in which a seeded set of
    files keeps only two servers, with demands drawn partly from those
    files, so some demands are infeasible.
    """

    name = "retrieve-stream"
    operation = "plan_retrieval call"
    tail = 99
    params = (800, 4, 10, 2)
    degraded_files = 40
    sizes = {"full": 4000, "smoke": 200}

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        n, k, m, r = self.params
        rng = random.Random(seed)
        degraded_set = sorted(rng.sample(range(1, n + 1), self.degraded_files))
        # Each degraded file keeps two of its servers, by position in its
        # column; every column of the large-n code has at least r+k-1.
        self.kept = {f: rng.sample(range(r + k - 1), 2) for f in degraded_set}
        self.requests = []
        for i in range(self.sizes[size]):
            degraded = i % 10 == 9
            count = rng.randint(1, k)
            if degraded:
                demand = set(rng.sample(degraded_set, rng.randint(1, count)))
                while len(demand) < count:
                    demand.add(rng.randint(1, n))
            else:
                demand = set(rng.sample(range(1, n + 1), count))
            down = set(rng.sample(range(1, m + 1), r))
            available = tuple(s for s in range(1, m + 1) if s not in down)
            self.requests.append((degraded, tuple(sorted(demand)), available))

    def setup(self, tracer=None) -> None:
        rcbc = fresh_rcbc()
        p = rcbc.CodeParams(*self.params)
        with traced(tracer):
            code, prediction = rcbc.construct_optimal(p)
        columns = list(code.columns)
        for f, positions in self.kept.items():
            columns[f - 1] = [columns[f - 1][i] for i in positions]
        self.rcbc, self.p, self.prediction = rcbc, p, prediction
        self.codes = {False: code, True: rcbc.BatchCode(p.m, columns)}

    def check_setup(self) -> list[str]:
        n, k, m, r = self.params
        want = (r + k) * n - (k - 1) * math.comb(m, r + k - 1)
        got = (self.prediction.regime, self.prediction.value, self.rcbc.weight(self.codes[False]))
        return [] if got == ("large-n", want, want) else [f"set-up code {got}, want large-n {want}"]

    def run_round(self, tracer=None) -> Round:
        codes, p = self.codes, self.p
        infeasible = self.rcbc.InfeasibleDemand
        latencies, outputs = array("q"), []
        with traced(tracer):
            plan = self.rcbc.plan_retrieval
            for degraded, demand, available in self.requests:
                t0 = clock()
                try:
                    out = plan(codes[degraded], p, demand, available).assignment
                except infeasible as exc:
                    out = ("infeasible", exc.hall_set)
                except Exception as exc:
                    out = unexpected(exc)
                latencies.append(clock() - t0)
                outputs.append(out)
        return Round(latencies, outputs)

    def check(self, outputs: list) -> list[str | None]:
        verdicts = []
        for (degraded, demand, available), out in zip(self.requests, outputs):
            code = self.codes[degraded]
            if out[0] == "infeasible":
                witness = self.rcbc.ServiceWitness(demand, available, out[1])
                ok = witness.confirms(code, self.p)
            elif out[0] == "error":
                ok = False
            else:
                files = tuple(f for f, _ in out)
                servers = [s for _, s in out]
                ok = (
                    files == demand
                    and len(set(servers)) == len(servers)
                    and all(s in available and s in code.column(f) for f, s in out)
                )
            verdicts.append(None if ok else f"demand {demand} on {available}: {out}")
        return verdicts


# ---------------------------------------------------------------------------
# search-proof


@dataclass(frozen=True)
class Instance:
    oracle: str  # rcbc function name
    args: tuple
    node_limit: int | None  # None: run to proof under the default budget
    expect: int | None  # known optimum, when the search must prove it


class SearchProof:
    """Fixed search-oracle instances; only node caps, never time limits.

    Each instance takes well under a second, so that a run replays each one
    often enough for the fastest replay to be steady.
    """

    name = "search-proof"
    operation = "search instance"
    tail = 90
    sizes = {
        "full": (
            Instance("gap_base_max", (3, 8, 1), None, 16),  # floor(8^2 / 4)
            Instance("gap_base_max", (4, 10, 2), 300_000, None),
            Instance("max_edges_with_girth", (7, 5), None, 8),  # OEIS A006855
            Instance("exact_min_weight", ((20, 3, 5, 1),), None, 60),  # large-n formula
        ),
        "smoke": (
            Instance("gap_base_max", (3, 6, 1), None, 9),
            Instance("gap_base_max", (4, 8, 1), 20_000, None),
            Instance("max_edges_with_girth", (6, 4), None, 9),
            Instance("exact_min_weight", ((7, 3, 5, 1),), None, 15),
        ),
    }

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.instances = self.sizes[size]

    def setup(self, tracer=None) -> None:
        self.rcbc = fresh_rcbc()

    def check_setup(self) -> list[str]:
        return []

    def _call(self, inst: Instance):
        rcbc = self.rcbc
        args = inst.args
        if inst.oracle == "exact_min_weight":
            args = (rcbc.CodeParams(*args[0]),)
        kwargs = {}
        if inst.node_limit is not None:
            kwargs["budget"] = rcbc.SearchBudget(node_limit=inst.node_limit)
        return getattr(rcbc, inst.oracle)(*args, **kwargs)

    def run_round(self, tracer=None) -> Round:
        latencies, outputs = array("q"), []
        with traced(tracer):
            for inst in self.instances:
                t0 = clock()
                try:
                    res = self._call(inst)
                    witness = res.witness.columns if res.witness is not None else None
                    out = (res.value, res.exact, res.bound, res.nodes, witness)
                except Exception as exc:
                    out = unexpected(exc)
                latencies.append(clock() - t0)
                outputs.append(out)
        return Round(latencies, outputs)

    def check(self, outputs: list) -> list[str | None]:
        return [self._check(inst, out) for inst, out in zip(self.instances, outputs)]

    def _check(self, inst: Instance, out) -> str | None:
        if out[0] == "error":
            return out[1]
        value, exact, _, _, columns = out
        rcbc = self.rcbc
        if inst.expect is not None and (value, exact) != (inst.expect, True):
            return f"{inst}: got {value} (exact={exact})"
        if columns is None:
            return f"{inst}: no witness"
        if inst.oracle == "gap_base_max":
            k, m, r = inst.args
            p = rcbc.CodeParams(value, k, m, r)
            if value * (r + k - 1) > (k - 1) * math.comb(m, r + k - 2):
                return f"{inst}: {value} exceeds the counting bound"
            if any(len(col) != r + k - 2 for col in columns):
                return f"{inst}: witness column outside cardinality {r + k - 2}"
        elif inst.oracle == "max_edges_with_girth":
            # Simple graphs of girth >= g are the r=1 codes for batches of g-1.
            m, g = inst.args
            p = rcbc.CodeParams(value, g - 1, m, 1)
            if any(len(col) != 2 for col in columns) or len(set(columns)) != value:
                return f"{inst}: witness is not a simple graph"
        else:
            p = rcbc.CodeParams(*inst.args[0])
            if sum(map(len, columns)) != value:
                return f"{inst}: witness weight differs from {value}"
        if len(columns) != p.n:
            return f"{inst}: witness has the wrong size"
        if not rcbc.verify(rcbc.BatchCode(p.m, columns), p).ok:
            return f"{inst}: witness does not verify"
        return None


# ---------------------------------------------------------------------------
# construct-verify


def closed_form(n: int, k: int, m: int, r: int) -> tuple[str, int] | None:
    """First closed-form regime covering the tuple and its weight, if any.

    Written out here, apart from the library, as the reference the
    constructed weights are checked against.
    """
    total = (k - 1) * math.comb(m, r + k - 1)
    if k == 1:
        return "k1", (r + 1) * n
    if n <= m:
        return "circulant", (r + 1) * n
    if k == 2 and n <= math.comb(m, r + 1):
        return "k2-small", (r + 1) * n
    if k == m - r and n >= m:
        return "max-k", m * (n - m + r + 1)
    if k >= 2 and n >= total:
        return "large-n", (r + k) * n - total
    return None


def gap_weight(n: int, k: int, m: int, r: int) -> int:
    total = (k - 1) * math.comb(m, r + k - 1)
    return (r + k - 1) * n - (total - n) // (m - r - k + 1)


def parse_construct_file(text: str) -> tuple[str, int, int, list[tuple[int, ...]]]:
    """(regime, weight, m, columns) from `construct --out` text."""
    lines = text.splitlines()
    regime = lines[0].removeprefix("# regime: ")
    weight = int(lines[1].removeprefix("# weight: "))
    m, n = map(int, lines[2].split())
    rows = lines[3 : 3 + m]
    if len(rows) != m or any(len(row) != n or set(row) - {"0", "1"} for row in rows):
        raise ValueError("malformed matrix")
    columns = [tuple(i + 1 for i in range(m) if rows[i][j] == "1") for j in range(n)]
    return regime, weight, m, columns


@dataclass(frozen=True)
class Case:
    n: int
    k: int
    m: int
    r: int
    strategy: str  # verify strategy: "all" on small tuples, else "auto"
    demand: tuple[int, ...]  # the one retrieve after a successful construct
    down: tuple[int, ...]

    @property
    def params(self) -> str:
        return f"{self.n},{self.k},{self.m},{self.r}"


class ConstructVerify:
    """A seeded sample of tuples, each run through the CLI in-process.

    Tuples fall into strata; every triple (k, m, r) gives a fixed number of
    tuples to each stratum, with n drawn from the seed, so that every seed
    does comparable work:

    - `closed`: a closed-form regime covers the tuple and no base search runs;
    - `outside`: no regime can cover the tuple, so construct exits 2 at once;
    - `gap`: gap-window tuples of bases whose search finishes within the
      node limit (the first tuple of each base searches, later ones hit the
      module's cache);
    - `limited`: gap-window tuples of one base the node limit cuts short, so
      each one reruns the capped search and exits 3.

    Tuples whose column-union re-verification would enumerate more than
    `CHECK_SUBSETS` subsets are left out, to keep the output check bounded.
    """

    name = "construct-verify"
    operation = "CLI command"
    tail = 90
    CHECK_SUBSETS = 50_000
    ALL_PAIRS = 2_000  # verify --strategy all when the definitional sweep is this small
    LIMITED_BASE = (4, 8, 1)
    sizes = {  # tuples per triple and stratum; closed and outside triples have m <= max_m
        "full": dict(
            closed=2, outside=1, gap=4, limited=4, max_m=8, node_limit=100_000,
            bases=((3, 5, 1), (4, 5, 1), (5, 5, 0), (3, 6, 1), (4, 6, 0),
                   (3, 6, 2), (4, 6, 2), (3, 7, 1), (3, 8, 1)),
        ),
        "smoke": dict(
            closed=1, outside=1, gap=1, limited=2, max_m=5, node_limit=5_000,
            bases=((3, 5, 1), (3, 6, 1)),
        ),
    }

    def __init__(self, seed: int, size: str, work_dir: Path) -> None:
        self.config = self.sizes[size]
        self.work_dir = work_dir
        self.tuples = self._sample(random.Random(seed))

    def _stratum(self, n: int, k: int, m: int, r: int) -> str | None:
        cfg = self.config
        cover = closed_form(n, k, m, r)
        checkable = sum(math.comb(n, c) for c in range(1, k + 1)) <= self.CHECK_SUBSETS
        if gap_window(n, k, m, r):
            if (k, m, r) in cfg["bases"] and checkable:
                return "gap"
            if (k, m, r) == self.LIMITED_BASE and cover is None:
                return "limited"
            return None
        if m > cfg["max_m"]:
            return None
        if cover is None:
            return "outside"
        return "closed" if checkable else None

    def _sample(self, rng: random.Random) -> list[Case]:
        pools: dict[tuple[str, int, int, int], list[int]] = {}
        for m in range(2, 9):
            for r in range(min(2, m - 1) + 1):
                for k in range(1, m - r + 1):
                    for n in range(k, 61):
                        stratum = self._stratum(n, k, m, r)
                        if stratum is not None:
                            pools.setdefault((stratum, k, m, r), []).append(n)
        chosen: set[tuple[int, int, int, int]] = set()
        for (stratum, k, m, r), ns in sorted(pools.items()):
            count = min(self.config[stratum], len(ns))
            chosen.update((n, k, m, r) for n in rng.sample(ns, count))
        tuples = []
        for n, k, m, r in sorted(chosen):
            pairs = math.comb(n, k) * math.comb(m, m - r)
            tuples.append(
                Case(
                    n, k, m, r,
                    strategy="all" if pairs <= self.ALL_PAIRS else "auto",
                    demand=tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, k)))),
                    down=tuple(sorted(rng.sample(range(1, m + 1), r))),
                )
            )
        rng.shuffle(tuples)
        return tuples

    def setup(self, tracer=None) -> None:
        self.rcbc = fresh_rcbc()
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def check_setup(self) -> list[str]:
        return []

    def run_round(self, tracer=None) -> Round:
        self.rcbc = fresh_rcbc()  # cold caches, as for every CLI user
        latencies, outputs = array("q"), []
        limit = str(self.config["node_limit"])

        def cli(argv: list[str], tag: tuple) -> int:
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
                except Exception as exc:
                    code = unexpected(exc)
            latencies.append(clock() - t0)
            outputs.append((*tag, code, out.getvalue(), err.getvalue()))
            return code

        with traced(tracer):
            main = sys.modules["rcbc.cli"].main
            for i, t in enumerate(self.tuples):
                path = str(self.work_dir / f"tuple{i}.txt")
                built = cli(
                    ["construct", "--params", t.params, "--node-limit", limit, "--out", path],
                    ("construct", i),
                )
                if built == 0:
                    cli(["verify", "--params", t.params, "--strategy", t.strategy, path],
                        ("verify", i))
                    cli(
                        ["retrieve", "--params", t.params, "--demand",
                         ",".join(map(str, t.demand)), "--down", ",".join(map(str, t.down)),
                         path],
                        ("retrieve", i),
                    )
        for j, out in enumerate(outputs):
            if out[0] == "construct" and out[2] == 0:
                text = (self.work_dir / f"tuple{out[1]}.txt").read_text()
                outputs[j] = (*out, text)
        return Round(latencies, outputs)

    def check(self, outputs: list) -> list[str | None]:
        built: dict[Case, list[tuple[int, ...]]] = {}  # columns of each built code
        verdicts = []
        for out in outputs:
            command, i = out[0], out[1]
            try:
                problem = getattr(self, f"_check_{command}")(self.tuples[i], out, built)
            except Exception as exc:  # malformed output
                problem = f"unreadable output: {exc!r}"
            verdicts.append(None if problem is None else f"{command} {self.tuples[i].params}: {problem}")
        return verdicts

    def _check_construct(self, t: Case, out, built) -> str | None:
        code = out[2]
        cover = closed_form(t.n, t.k, t.m, t.r)
        window = gap_window(t.n, t.k, t.m, t.r)
        if code == 3:
            return None if window and cover is None else "budget-limited outside the gap window"
        if code == 2:
            return None if cover is None else f"uncovered, but {cover[0]} applies"
        if code != 0:
            return f"exit {code}: {out[4]}"
        regime, weight, m, columns = parse_construct_file(out[5])
        want = cover or (("gap", gap_weight(t.n, t.k, t.m, t.r)) if window else None)
        if (regime, weight) != want:
            return f"regime {regime} weight {weight}, want {want}"
        if (m, len(columns)) != (t.m, t.n) or sum(map(len, columns)) != weight:
            return "matrix does not match the header"
        p = self.rcbc.CodeParams(t.n, t.k, t.m, t.r)
        if not self.rcbc.verify(self.rcbc.BatchCode(m, columns), p, "column-union").ok:
            return "constructed code fails column-union verification"
        built[t] = columns
        return None

    def _check_verify(self, t: Case, out, built) -> str | None:
        shown = ("all strategies agree",) if t.strategy == "all" else (
            "row-containment", "column-union")
        ok = out[2] == 0 and out[3] in [f"ok ({s})\n" for s in shown] and t in built
        return None if ok else f"exit {out[2]}: {out[3]}{out[4]}"

    def _check_retrieve(self, t: Case, out, built) -> str | None:
        if out[2] != 0 or t not in built:
            return f"exit {out[2]}: {out[4]}"
        pairs = [tuple(map(int, item.split("->"))) for item in out[3].split()]
        files = tuple(f for f, _ in pairs)
        servers = [s for _, s in pairs]
        ok = (
            files == t.demand
            and len(set(servers)) == len(servers)
            and all(s not in t.down and s in built[t][f - 1] for f, s in pairs)
        )
        return None if ok else f"bad plan {out[3].strip()}"


WORKLOADS = {w.name: w for w in (RetrieveStream, SearchProof, ConstructVerify)}
