"""The three benchmark workloads, their set-up and their correctness oracles.

Each workload has a serial phase, timed operation by operation, and a
parallel phase that does the same operations with 2 worker processes.  An
operation is one CLI certificate (``cli.main`` with stdout captured for
checking and stderr discarded) or one library query, and it fails when
its oracle finds a problem:

  census         search-support on AG(3,2), theta=-2, size 6.  Serial, then
                 ``--jobs 2`` (the program's own worker pool).  Fixed input.
  constructions  enumerate-optimal AG(3,3), enumerate-reguli PG(3,3) and
                 enumerate-affine-reguli AG(3,3).  In the parallel phase the
                 benchmark hands the three commands to 2 forked workers,
                 longest first.  Fixed input.
  queries        a seeded stream of Cameron-Liebler queries on PG(3,2):
                 stars, planes, star+plane unions, complements and random
                 line sets, 20 of each in seeded order.  An accepted proper
                 class also gets a balance check of a seeded regulus sign
                 function.  The parallel phase splits the stream over 2
                 forked workers.

Forked workers inherit the warm caches that set-up built, as the program's
own ``--jobs`` pool does, so both phases start from the same state.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import multiprocessing
import random
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

PACKAGE = "steinergraphs"
MODULES = ("errors", "gf", "geometry", "designs", "reguli", "eigenfunctions", "partitions", "cli")
WORKERS = 2
QUERIES_PER_KIND = 20


def fresh_import() -> dict:
    """Import the package afresh, dropping every cached module and
    with them the package's field, space, design and graph caches."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}


@dataclass
class Outcome:
    """One operation: its latency and what its oracle found wrong."""

    seconds: float
    problems: list[str]
    digest: str | None = None
    cert_bytes: int = 0


# -- CLI certificates ----------------------------------------------------------------


def canonical_digest(result) -> str:
    blob = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class CliCase:
    """A CLI command with the counts and result digest pinned on the seed."""

    argv: tuple[str, ...]
    digest: str
    counts: Callable[[dict], dict]
    expected: dict


def _census_counts(result: dict) -> dict:
    return {
        "rays": len(result["functions"]),
        "families": len(result["families"]),
        "census": result["census"],
        "complete": result["complete"],
    }


def _optimal_counts(result: dict) -> dict:
    return {"count": result["count"], "classification": result["classification"]}


def _ordered_count(result: dict) -> dict:
    return {"count_ordered": result["count_ordered"]}


CENSUS = CliCase(
    argv=("search-support", "--space", "aff", "--n", "3", "--q", "2", "--theta", "-2", "--size", "6"),
    digest="a73f38db7016e2a3259605795eef03dd2e1b384b983235fc69a775e2ecb6eb21",
    counts=_census_counts,
    expected={
        "rays": 2520,
        "families": 630,
        "census": {"BipartiteMinusMatching": 1680, "Other": 840},
        "complete": True,
    },
)

CONSTRUCTIONS = (
    CliCase(
        argv=("enumerate-optimal", "--space", "aff", "--n", "3", "--q", "3"),
        digest="367ba789688842636f14da774e084838ef65b287a4e4182449bfd063128a7632",
        counts=_optimal_counts,
        expected={"count": 4446, "classification": {"GrassmannRegulus": 0, "Type1": 234, "Type2": 4212}},
    ),
    CliCase(
        argv=("enumerate-reguli", "--q", "3"),
        digest="d6a6db19348d21070ea3305d625d0292cbc9cb0c5492d44886bd9f0ee31f0d9c",
        counts=_ordered_count,
        expected={"count_ordered": 21060},
    ),
    CliCase(
        argv=("enumerate-affine-reguli", "--q", "3"),
        digest="32b09ca764d5e9553ad688fbb9a43d0205490fc88a876b6b904a07553736a190",
        counts=_ordered_count,
        expected={"count_ordered": 8424},
    ),
)


def run_cli(cli, case: CliCase, extra: tuple[str, ...] = (), digest: str | None = None) -> Outcome:
    """Run one certificate command and check it against its pins.
    ``digest`` overrides the pinned result digest."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*case.argv, *extra, "--format", "json"])
    seconds = perf_counter() - start
    text = out.getvalue()
    name = " ".join(case.argv[:1] + extra)
    problems = []
    if code != 0:
        problems.append(f"{name}: exit code {code}")
    try:
        cert = json.loads(text)
    except json.JSONDecodeError:
        return Outcome(seconds, problems + [f"{name}: no certificate on stdout"], None, len(text))
    problems += [f"{name}: check {c['name']} failed" for c in cert["checks"] if not c["passed"]]
    got = canonical_digest(cert["result"])
    if got != (digest or case.digest):
        problems.append(f"{name}: result digest {got[:16]} differs from the pinned one")
    try:
        counts = case.counts(cert["result"])
    except (KeyError, TypeError) as ex:
        counts = {"missing": repr(ex)}
    if counts != case.expected:
        problems.append(f"{name}: counts {counts} != pinned {case.expected}")
    return Outcome(seconds, problems, got, len(text))


# -- Cameron-Liebler queries -----------------------------------------------------------


NAMED_CLASSES = ("star", "plane", "union", "complement")


@dataclass(frozen=True)
class Query:
    kind: str
    lines: tuple[int, ...]
    part: object  # Partition2 of the line set against the rest
    sign_function: int  # index into the prebuilt regulus sign functions


def make_queries(mods: dict, space, graph, nsigns: int, seed: int) -> list[Query]:
    """Stratified seeded stream: QUERIES_PER_KIND of each kind."""
    rng = random.Random(seed)
    partitions = mods["partitions"]
    field_ = space.field
    nlines = len(space.lines)
    npoints = len(space.points)
    hyperplanes = space.hyperplanes

    def star():
        return set(partitions.star_line_set(space, rng.randrange(npoints)))

    def plane():
        return set(partitions.plane_line_set(space, rng.choice(hyperplanes)))

    def union():
        p = rng.randrange(npoints)
        h = rng.choice([h for h in hyperplanes if not h.contains_point(field_, space.points[p])])
        return set(partitions.star_line_set(space, p)) | set(partitions.plane_line_set(space, h))

    def complement():
        return set(range(nlines)) - rng.choice((star, plane, union))()

    def random_set():
        return set(rng.sample(range(nlines), rng.randrange(1, nlines - 1)))

    makers = {"star": star, "plane": plane, "union": union, "complement": complement,
              "random": random_set}
    kinds = [k for k in makers for _ in range(QUERIES_PER_KIND)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        lines = tuple(sorted(makers[kind]()))
        part = partitions.Partition2.from_part(graph, lines)
        out.append(Query(kind, lines, part, rng.randrange(nsigns)))
    return out


def run_query(state: QueryState, query: Query) -> Outcome:
    partitions = state.mods["partitions"]
    errors = state.mods["errors"]
    problems = []
    start = perf_counter()
    try:
        verdict = partitions.cameron_liebler_check(state.space, query.lines, state.graph)
        report = None
        if verdict.agree and verdict.is_cl_reguli:
            f1 = state.sign_functions[query.sign_function]
            report = partitions.balance_check(state.graph, f1, [f1], query.part, state.r)
    except (errors.SteinerError, ValueError) as ex:
        return Outcome(perf_counter() - start, [f"{query.kind} query raised {ex!r}"])
    seconds = perf_counter() - start
    if not verdict.agree:
        problems.append(f"{query.kind} query: the two Cameron-Liebler criteria disagree")
    if query.kind in NAMED_CLASSES and not verdict.is_cl_reguli:
        problems.append(f"{query.kind} query: a named class was rejected")
    if report is not None and not report.equal:
        problems.append(f"{query.kind} query: unequal balance {report.m_plus} != {report.m_minus}")
    return Outcome(seconds, problems)


@dataclass
class QueryState:
    mods: dict
    space: object
    graph: object
    r: int
    sign_functions: list
    queries: list[Query] = field(default_factory=list)


# -- forked workers for the parallel phases --------------------------------------------

_CHILD: dict = {}


def _adopt(state, run_one) -> None:
    _CHILD.update(state=state, run_one=run_one)


def run_adopted(item):
    return _CHILD["run_one"](_CHILD["state"], item)


@contextlib.contextmanager
def forked_pool(state, run_one, processes: int = WORKERS):
    """A pool of forked processes whose tasks are ``run_one(state, item)``;
    submit items through ``run_adopted``.  The benchmark process has no
    other threads when it forks: earlier pools are joined before."""
    ctx = multiprocessing.get_context("fork")
    pool = ctx.Pool(processes=processes, initializer=_adopt, initargs=(state, run_one))
    try:
        yield pool
        pool.close()
    finally:
        pool.terminate()
        pool.join()


def run_forked(state, run_one, items, chunksize: int = 1) -> tuple[float, list[Outcome]]:
    """Wall time and outcomes of ``run_one(state, item)`` for every item,
    on WORKERS forked processes.  The pool start is timed, as it is in the
    program's own ``--jobs`` pool."""
    start = perf_counter()
    with forked_pool(state, run_one) as pool:
        outcomes = list(pool.imap_unordered(run_adopted, items, chunksize))
        seconds = perf_counter() - start
    return seconds, outcomes


def serial_phase(state, workload) -> list[Outcome]:
    return workload.serial(state)


# -- workloads -------------------------------------------------------------------------


@dataclass
class CliState:
    mods: dict
    cases: tuple[CliCase, ...]


def _run_case(state: CliState, index: int) -> Outcome:
    return run_cli(state.mods["cli"], state.cases[index])


def _graph_with_srg(mods: dict, design):
    graph = mods["designs"].cached_block_graph(design)
    mods["designs"].srg_params_brute(graph)
    return graph


class Census:
    name = "census"
    trace_parallel = True  # the per-layer search_par_s needs the --jobs run

    @staticmethod
    def setup(mods: dict, seed: int) -> CliState:
        _graph_with_srg(mods, mods["designs"].affine_design(3, 2))
        return CliState(mods, (CENSUS,))

    @staticmethod
    def serial(state: CliState) -> list[Outcome]:
        return [run_cli(state.mods["cli"], CENSUS)]

    @staticmethod
    def parallel(state: CliState, serial: list[Outcome]) -> tuple[float, list[Outcome]]:
        outcome = run_cli(state.mods["cli"], CENSUS, ("--jobs", str(WORKERS)))
        if serial[0].digest is not None and outcome.digest != serial[0].digest:
            outcome.problems.append("search-support --jobs: result differs from the serial run")
        return outcome.seconds, [outcome]


class Constructions:
    name = "constructions"
    trace_parallel = False

    @staticmethod
    def setup(mods: dict, seed: int) -> CliState:
        _graph_with_srg(mods, mods["designs"].affine_design(3, 3))
        mods["designs"].projective_design(3, 3)
        return CliState(mods, CONSTRUCTIONS)

    @staticmethod
    def serial(state: CliState) -> list[Outcome]:
        return [_run_case(state, i) for i in range(len(state.cases))]

    @staticmethod
    def parallel(state: CliState, serial: list[Outcome]) -> tuple[float, list[Outcome]]:
        return run_forked(state, _run_case, range(len(state.cases)))


class Queries:
    name = "queries"
    trace_parallel = False

    @staticmethod
    def setup(mods: dict, seed: int) -> QueryState:
        designs = mods["designs"]
        graph = _graph_with_srg(mods, designs.projective_design(3, 2))
        space = graph.design.space
        r = designs.srg_params_formula(graph.design.N, graph.design.M).r
        make = mods["eigenfunctions"].optimal_from_regulus
        signs = [make(pair, graph) for pair in mods["reguli"].enumerate_reguli(space)]
        state = QueryState(mods, space, graph, r, signs)
        state.queries = make_queries(mods, space, graph, len(signs), seed)
        return state

    @staticmethod
    def serial(state: QueryState) -> list[Outcome]:
        return [run_query(state, q) for q in state.queries]

    @staticmethod
    def parallel(state: QueryState, serial: list[Outcome]) -> tuple[float, list[Outcome]]:
        return run_forked(state, _run_query_at, range(len(state.queries)), chunksize=5)


def _run_query_at(state: QueryState, index: int) -> Outcome:
    return run_query(state, state.queries[index])


WORKLOADS = {w.name: w for w in (Census, Constructions, Queries)}
