"""Command-line interface emitting verifiable JSON certificates.

Conventions:
  * every command assembles a certificate {schema_version: "sv1",
    command, parameters, result, checks, timing_ms}; the result payload
    is byte-deterministic for identical inputs and timing lives outside
    it;
  * results go to stdout, progress notes to stderr;
  * exit codes: 0 success, 1 a check failed, 2 usage error, 3 resource
    limit reached;
  * bad input fails at this boundary with exit code 2: malformed JSON,
    a --function that is not an object, a --part that is not a list of
    line indices in range, a --lines or --vectors that is not three
    lines (each of two basis rows of rank 2) or vectors, a --plane,
    --hyperplane, --direction or --star that is not a list of field
    elements of the space's length (--star also takes a point index in
    range, and in a projective space any nonzero multiple of a point),
    a negative --limit, a --jobs below 1, or an --n other than 3 where
    a command works in dimension 3 only;
  * every named check recomputes what its name claims, and a failed
    check carries a witness;
  * lines are encoded as integer arrays via their canonical forms: a
    projective line by its reduced two-row basis, an affine line by
    (direction, least point); payloads that refer to vertex indices
    embed the index -> line decoding table, and line families, which
    the library returns as line indices, are rendered through it;
  * block graphs come from the deterministic builder, once per process
    (designs.cached_block_graph).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import designs, eigenfunctions, geometry, partitions, reguli
from .designs import _field_of, srg_params_brute, wdb
from .errors import DimensionMismatchError, LimitExceededError, NotAnEigenfunctionError, NotEquitableError, SteinerError

SCHEMA_VERSION = "sv1"


# -- helpers -----------------------------------------------------------------------


def _space_of(kind: str, n: int, q: int):
    field = _field_of(q)
    if kind == "proj":
        return geometry.proj_space(n, field)
    return geometry.aff_space(n, field)


def _graph_of(kind: str, n: int, q: int):
    return designs.block_graph_of(_space_of(kind, n, q))


def _line_json(line):
    if isinstance(line, geometry.ProjLine):
        return {"basis": [list(r) for r in line.basis]}
    return {"dir": list(line.dir), "base": list(line.base)}


def _line_table(space) -> list:
    return [_line_json(l) for l in space.lines]


def _pair_json(pair, table: list, first: str = "r_lines") -> dict:
    """The two families of a pair, each line rendered by its table entry."""
    return {first: [table[t] for t in pair.r_ids], "opp_lines": [table[t] for t in pair.opp_ids]}


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        raise _UsageError(f"invalid JSON for {what}: {ex}") from ex


def _vector(data, what: str, space) -> tuple[int, ...]:
    """A parsed JSON value as a coordinate vector of the space: a list of
    field elements of the length of its points."""
    length, q = len(space.points[0]), space.field.q
    if not (isinstance(data, list) and len(data) == length
            and all(type(x) is int and 0 <= x < q for x in data)):
        raise _UsageError(f"{what} must be a list of {length} integers in range({q}), got {json.dumps(data)}")
    return tuple(data)


def _vector_arg(text: str, flag: str, space, point: bool = False):
    """A vector option; with ``point`` the option names a point, by its
    coordinates or its index, and the point index is returned.  The
    coordinates of a projective point may be any nonzero multiple of
    its normalised ones."""
    data = _parse_json_arg(text, flag)
    if point and type(data) is int:
        if not 0 <= data < len(space.points):
            raise _UsageError(f"{flag} point index {data} is not in range({len(space.points)})")
        return data
    vec = _vector(data, flag, space)
    if point:
        if isinstance(space, geometry.ProjSpace) and any(vec):
            vec = space.field.normalize_row(vec)
        if vec not in space.point_index:
            raise _UsageError(f"{flag} {list(vec)} is not a point of {space}")
        return space.point_index[vec]
    return vec


def _lines_arg(text: str, space):
    """--lines: a JSON list of three projective lines, each given by two
    basis rows."""
    data = _parse_json_arg(text, "--lines")
    if not (isinstance(data, list) and len(data) == 3):
        raise _UsageError("--lines must hold exactly three lines")
    lines = []
    for d in data:
        if not (isinstance(d, list) and len(d) == 2):
            raise _UsageError("--lines: a projective line is [[...], [...]] basis rows")
        rows = tuple(_vector(row, "--lines basis row", space) for row in d)
        try:
            lines.append(space.line_from_basis(rows))
        except DimensionMismatchError as ex:
            raise _UsageError(f"--lines: {ex}, got {json.dumps(d)}") from ex
    return lines


def _validator_witness(check, *args) -> str | None:
    """None when the validator accepts its input, else why it does not."""
    try:
        check(*args)
    except SteinerError as ex:
        return str(ex)
    return None


def _function_json(f: eigenfunctions.Eigenfunction, structure: str | None = None) -> dict:
    entry = {
        "support": list(f.support),
        "values": [[u, str(f.values[u])] for u in f.support],
    }
    if structure is not None:
        entry["structure"] = structure
    return entry


class _UsageError(Exception):
    pass


class _Cert:
    """Accumulates the result payload and named checks of one command."""

    def __init__(self, command: str, parameters: dict):
        self.command = command
        self.parameters = parameters
        self.result: dict = {}
        self.checks: list[dict] = []

    def check(self, name: str, passed: bool, witness=None) -> bool:
        entry = {"name": name, "passed": bool(passed)}
        if witness is not None:
            entry["witness"] = witness
        self.checks.append(entry)
        return passed

    def payload(self, timing_ms: int) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "result": self.result,
            "checks": self.checks,
            "timing_ms": timing_ms,
        }

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


# -- subcommand implementations ----------------------------------------------------


def _cmd_geometry(args, cert: _Cert) -> None:
    space = _space_of(args.space, args.n, args.q)
    q, n = args.q, args.n
    if args.space == "proj":
        npts = (q ** (n + 1) - 1) // (q - 1)
        nlin = (q ** (n + 1) - 1) * (q ** n - 1) // ((q ** 2 - 1) * (q - 1))
    else:
        npts = q ** n
        nlin = q ** (n - 1) * (q ** n - 1) // (q - 1)
    cert.result = {
        "space": f"{'PG' if args.space == 'proj' else 'AG'}({n},{q})",
        "num_points": len(space.points),
        "num_lines": len(space.lines),
        "points": [list(p) for p in space.points],
        "lines": [dict(_line_json(l), points=list(l.points)) for l in space.lines],
    }
    cert.check("point_count_formula", len(space.points) == npts, {"expected": npts})
    cert.check("line_count_formula", len(space.lines) == nlin, {"expected": nlin})
    if args.space == "aff" and n >= 3:
        planes = geometry.enumerate_planes(space)
        nplanes = q ** (n - 2) * (q ** n - 1) * (q ** (n - 1) - 1) // ((q ** 2 - 1) * (q - 1))
        cert.result["num_planes"] = len(planes)
        cert.result["planes"] = [
            {"dirbasis": [list(r) for r in pl.dirbasis], "base": list(pl.base)} for pl in planes
        ]
        cert.check("plane_count_formula", len(planes) == nplanes, {"expected": nplanes})


def _cmd_srg(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    design = graph.design
    formula = design.params
    brute = srg_params_brute(graph)
    as_dict = lambda p: {"v": p.v, "k": p.k, "lambda": p.lmbda, "mu": p.mu,
                         "r": p.r, "s": p.s, "m_r": p.m_r, "m_s": p.m_s}
    cert.result = {"formula": as_dict(formula), "brute": as_dict(brute)}
    cert.check("formula_matches_brute", formula == brute)


def _cmd_wdb(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    params = graph.design.params
    # the closed form -2s / 2(r+1) from the spectrum of the graph built
    spectrum = srg_params_brute(graph)
    thetas = [args.theta] if args.theta is not None else [params.s, params.r]
    values = {}
    ok = True
    for theta in thetas:
        bound = wdb(params, theta)
        closed = -2 * spectrum.s if theta == spectrum.s else 2 * (spectrum.r + 1)
        values[str(theta)] = bound
        ok = ok and bound == closed
    cert.result = {"r": params.r, "s": params.s, "wdb": values}
    cert.check("closed_form_matches", ok)


def _cmd_regulus(args, cert: _Cert) -> None:
    space = _space_of("proj", args.n, args.q)
    pair = reguli.regulus_through(space, *_lines_arg(args.lines, space))
    cert.result = dict(
        _pair_json(pair, _line_table(space)),
        r_indices=list(pair.r_ids),
        opp_indices=list(pair.opp_ids),
    )
    witness = _validator_witness(reguli._check_regulus_pair, space, pair.r_ids, pair.opp_ids)
    cert.check("regulus_axioms", witness is None, witness)


def _cmd_affine_regulus(args, cert: _Cert) -> None:
    space = _space_of("aff", args.n, args.q)
    data = _parse_json_arg(args.vectors, "--vectors")
    if not (isinstance(data, list) and len(data) == 3):
        raise _UsageError("--vectors must hold exactly three vectors")
    pair = reguli.affine_regulus_construct(space, *(_vector(v, "--vectors entry", space) for v in data))
    rp = reguli.lift_to_projective(pair)
    cert.result = dict(
        _pair_json(pair, _line_table(space), "s_lines"),
        projective_lift=_pair_json(rp, _line_table(rp.space)),
    )
    witness = _validator_witness(reguli._check_regulus_pair, space, pair.r_ids, pair.opp_ids)
    cert.check("affine_regulus_axioms", witness is None, witness)
    witness = _validator_witness(reguli._check_lift, pair, rp)
    cert.check("projective_lift", witness is None, witness)


def _require_dimension_3(args, name: str) -> None:
    if args.n != 3:
        raise _UsageError(f"{args.command} works in {name}(3,q) only, got --n {args.n}")


def _cmd_enumerate_reguli(args, cert: _Cert) -> None:
    _require_dimension_3(args, "PG")
    space = _space_of("proj", 3, args.q)
    print(f"enumerating reguli of PG(3,{args.q})", file=sys.stderr)
    pairs = reguli.enumerate_reguli(space)
    table = _line_table(space)
    cert.result = {
        "count_ordered": len(pairs),
        "count_unordered": len(pairs) // 2,
        "count_quadrics": len(pairs) // 2,
        "convention": "ordered (R, R_opp) pairs; the swapped orientation is"
        " counted separately; unordered sets and underlying quadrics each"
        " number half the ordered count",
        "reguli": [_pair_json(p, table) for p in pairs[: args.limit]],
    }
    seen = {(p.r_ids, p.opp_ids) for p in pairs}
    cert.check("swap_closed", all((p.opp_ids, p.r_ids) in seen for p in pairs))
    expected = args.q ** 4 * (args.q ** 3 - 1) * (args.q ** 2 + 1)
    cert.check("count_matches_formula", len(pairs) == expected, {"expected": expected})


def _cmd_enumerate_affine_reguli(args, cert: _Cert) -> None:
    _require_dimension_3(args, "AG")
    space = _space_of("aff", 3, args.q)
    q = args.q
    print(f"enumerating affine reguli of AG(3,{q})", file=sys.stderr)
    pairs = reguli.enumerate_affine_reguli(space)
    expected = q ** 4 * (q ** 3 - 1) * (q + 1)
    table = _line_table(space)
    cert.result = {
        "count_ordered": len(pairs),
        "count_unordered": len(pairs) // 2,
        "count_quadrics": len(pairs) // 2,
        "formula_q4": expected,
        "convention": "ordered (S, S_opp) pairs; the swapped orientation is"
        " counted separately and the count formula refers to this convention;"
        " unordered-set and lifted-quadric conventions each count half; a"
        " 2-line skew family over GF(2) admits two distinct opposite"
        " families, which stay distinct here",
        "pairs": [_pair_json(p, table, "s_lines") for p in pairs[: args.limit]],
    }
    cert.check("count_matches_formula", len(pairs) == expected, {"expected": expected})


def _cmd_enumerate_optimal(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    design = graph.design
    params = design.params
    a = -params.s
    print(f"enumerating induced K_{{{a},{a}}} part-pairs", file=sys.stderr)
    pairs = eigenfunctions.enumerate_complete_bipartite(graph, a)
    counts = {"Type1": 0, "Type2": 0, "GrassmannRegulus": 0}
    all_verify = True
    listing = []
    for t0, t1 in pairs:
        # classify_optimal verifies the eigenvalue equation, once
        values = dict.fromkeys(t0, 1) | dict.fromkeys(t1, -1)
        try:
            cls = eigenfunctions.classify_optimal(graph, eigenfunctions.Eigenfunction(graph, params.s, values))
        except NotAnEigenfunctionError:
            all_verify = False
            continue
        kind = type(cls).__name__
        counts[kind] += 1
        listing.append({"t0": list(t0), "t1": list(t1), "kind": kind})
    if args.limit is not None:
        listing = listing[: args.limit]
    cert.result = {
        "part_size": a,
        "count": len(pairs),
        "classification": counts,
        "pairs": listing,
        "lines": _line_table(design.space),
    }
    cert.check("all_pairs_verify", all_verify)
    cert.check(
        "classification_total", sum(counts.values()) == len(pairs), {"count": len(pairs)}
    )


def _cmd_verify_eigenfunction(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    data = _parse_json_arg(args.function, "--function")
    if not isinstance(data, dict):
        raise _UsageError('--function must be a JSON object {"vertex": value, ...}')
    values = {int(u): Fraction(str(x)) for u, x in data.items()}
    f = eigenfunctions.Eigenfunction(graph, args.theta, values)
    res = eigenfunctions.verify_eigenfunction(graph, f)
    cert.result = {
        "theta": args.theta,
        "support": list(f.support),
        "ok": res.ok,
    }
    if res.witness is not None:
        u, lhs, rhs = res.witness
        cert.result["witness"] = {"vertex": u, "lhs": str(lhs), "rhs": str(rhs)}
    cert.check("eigenvalue_equation", res.ok, cert.result.get("witness"))


def _cmd_wdbplus2(args, cert: _Cert) -> None:
    space = _space_of("proj", args.n, args.q)
    pair = reguli.regulus_through(space, *_lines_arg(args.lines, space))
    normal = _vector_arg(args.hyperplane, "--hyperplane", space)
    hyp = geometry.Hyperplane(geometry.normalize_point(space.field, normal))
    f = eigenfunctions.wdbplus2_function(pair, hyp)
    graph = f.graph
    structure = eigenfunctions.support_structure(graph, f)
    cert.result = {
        "theta": f.theta,
        "support_size": len(f.support),
        "function": _function_json(f, structure.kind),
        "lines": _line_table(graph.design.space),
    }
    q = args.q
    cert.check("support_size_2q_plus_2", len(f.support) == 2 * (q + 1))
    cert.check("structure_bipartite_minus_matching", structure.kind == "BipartiteMinusMatching")
    cert.check("verifies", bool(eigenfunctions.verify_eigenfunction(graph, f)))


def _cmd_search_support(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    resume = None
    prior_functions: list[dict] = []
    prior_families: list[dict] = []
    if args.resume:
        with open(args.resume) as fh:
            prev = json.load(fh)
        keys = ("space", "n", "q", "theta", "size", "mode")
        if prev["command"] != cert.command or any(
            prev["parameters"].get(k) != cert.parameters.get(k) for k in keys
        ):
            raise _UsageError(f"{args.resume} is a checkpoint of a different search")
        prev_result = prev["result"]
        resume = {"done": [tuple(p) for p in prev_result["checkpoint"]["done"]]}
        prior_functions = prev_result["functions"]
        prior_families = prev_result["families"]
        print(f"resuming from {args.resume}: {len(resume['done'])} prefixes done", file=sys.stderr)
    print(
        f"searching supports of size {args.size} at theta={args.theta} ({args.mode})",
        file=sys.stderr,
    )
    limit_hit = False
    checkpoint = None
    try:
        res = eigenfunctions.search_min_support(
            graph, args.theta, args.size, args.mode,
            limit=args.limit, resume=resume, jobs=args.jobs,
        )
    except LimitExceededError as ex:
        limit_hit = True
        checkpoint = ex.checkpoint
        res = ex.partial
    fn_entries = list(prior_functions)
    verified = all(
        eigenfunctions.verify_eigenfunction(
            graph,
            eigenfunctions.Eigenfunction(graph, args.theta, {u: Fraction(x) for u, x in e["values"]}),
        )
        for e in prior_functions
    )
    for f in res.functions:
        structure = eigenfunctions.support_structure(graph, f)
        verified = verified and bool(eigenfunctions.verify_eigenfunction(graph, f))
        fn_entries.append(_function_json(f, structure.kind))
    fam_entries = list(prior_families)
    for fam in res.families:
        fam_entries.append({
            "support": list(fam.support),
            "dimension": fam.dimension,
            "basis": [_function_json(g) for g in fam.basis],
        })
    fn_entries.sort(key=lambda e: e["support"])
    fam_entries.sort(key=lambda e: e["support"])
    census: dict[str, int] = {}
    for entry in fn_entries:
        census[entry["structure"]] = census.get(entry["structure"], 0) + 1
    cert.result = {
        "theta": args.theta,
        "size": args.size,
        "mode": args.mode,
        "complete": res.complete,
        "functions": fn_entries,
        "families": fam_entries,
        "census": census,
        "census_note": (
            "computational finding: structure census of the eigenfunction "
            "supports found at this size, not a theorem"
        ),
        "lines": _line_table(graph.design.space),
    }
    if limit_hit:
        cert.result["checkpoint"] = {"done": [list(p) for p in checkpoint["done"]]}
    cert.check("all_new_functions_verify", verified)
    cert.check("complete", res.complete)
    if limit_hit:
        raise _LimitSignal(cert)


def _cmd_equitable(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    space = graph.design.space
    part_indices = _named_line_set(args, space)
    part = partitions.Partition2.from_part(graph, part_indices)
    try:
        quotient = partitions.quotient_matrix(graph, part)
    except NotEquitableError as ex:
        cert.result = {"part": list(part.v1), "lines": _line_table(space)}
        cert.check("equitable", False, ex.witness)
        return
    theta = partitions.partition_eigenvalue(quotient)
    cert.result = {
        "part": list(part.v1),
        "quotient": [list(r) for r in quotient.rows()],
        "theta": theta,
        "principal": quotient.is_principal,
        "lines": _line_table(space),
    }
    if not quotient.is_principal:
        f = partitions.partition_to_eigenfunction(graph, part)
        cert.result["eigenfunction_values"] = [
            str(f.value(part.v1[0])), str(f.value(part.v2[0]))
        ]
    cert.check("equitable", True)  # quotient_matrix found constant counts


def _cmd_balance(args, cert: _Cert) -> None:
    space = _space_of("proj", args.n, args.q)
    pair = reguli.regulus_through(space, *_lines_arg(args.lines, space))
    graph = _graph_of("proj", args.n, args.q)
    f1 = eigenfunctions.optimal_from_regulus(pair, graph)
    part_indices = _named_line_set(args, space)
    part = partitions.Partition2.from_part(graph, part_indices)
    theta = args.theta
    if theta is None:
        theta = partitions.partition_eigenvalue(partitions.quotient_matrix(graph, part))
    report = partitions.balance_check(graph, f1, [f1], part, theta)
    cert.result = {
        "theta": theta,
        "m_plus": report.m_plus,
        "m_minus": report.m_minus,
        "function": _function_json(f1),
        "part": list(part.v1),
        "lines": _line_table(space),
    }
    cert.check("balanced", report.equal, {"m_plus": report.m_plus, "m_minus": report.m_minus})


def _cmd_cameron_liebler(args, cert: _Cert) -> None:
    _require_dimension_3(args, "PG")
    space = _space_of("proj", 3, args.q)
    line_set = _named_line_set(args, space)
    verdict = partitions.cameron_liebler_check(space, line_set)
    table = _line_table(space)
    cert.result = {
        "line_set": sorted(line_set),
        "is_cameron_liebler": verdict.is_cl_reguli,
        "method_reguli": verdict.is_cl_reguli,
        "method_equitable": verdict.is_cl_equitable,
        "lines": table,
    }
    if verdict.quotient is not None:
        cert.result["quotient"] = [list(r) for r in verdict.quotient.rows()]
    if verdict.witness is not None:
        cert.result["witness"] = _pair_json(verdict.witness, table)
    cert.check("methods_agree", verdict.agree)


def _named_line_set(args, space) -> tuple[int, ...]:
    """Resolve --part / --star / --plane / --direction to line indices."""
    chosen = [x for x in ("part", "star", "plane", "direction") if getattr(args, x, None) is not None]
    if len(chosen) != 1:
        raise _UsageError("give exactly one of --part, --star, --plane, --direction")
    kind = chosen[0]
    if kind == "part":
        data = _parse_json_arg(args.part, "--part")
        if not (isinstance(data, list) and all(type(u) is int for u in data)):
            raise _UsageError("--part must be a JSON list of integer line indices")
        bad = next((u for u in data if not 0 <= u < len(space.lines)), None)
        if bad is not None:
            raise _UsageError(f"--part line index {bad} is not in range({len(space.lines)})")
        return tuple(data)
    if kind == "star":
        return partitions.star_line_set(space, _vector_arg(args.star, "--star", space, point=True))
    if kind == "plane":
        if not isinstance(space, geometry.ProjSpace):
            raise _UsageError("--plane needs a projective space")
        normal = _vector_arg(args.plane, "--plane", space)
        return partitions.plane_line_set(space, geometry.Hyperplane(normal))
    if not isinstance(space, geometry.AffSpace):
        raise _UsageError("--direction needs an affine space")
    return partitions.direction_class_line_set(space, _vector_arg(args.direction, "--direction", space))


class _LimitSignal(Exception):
    """Raised after a limited search has filled its certificate."""

    def __init__(self, cert: _Cert):
        self.cert = cert


# -- argument parsing and dispatch ---------------------------------------------------


_COMMANDS = {
    "geometry": _cmd_geometry,
    "srg": _cmd_srg,
    "wdb": _cmd_wdb,
    "regulus": _cmd_regulus,
    "affine-regulus": _cmd_affine_regulus,
    "enumerate-reguli": _cmd_enumerate_reguli,
    "enumerate-affine-reguli": _cmd_enumerate_affine_reguli,
    "enumerate-optimal": _cmd_enumerate_optimal,
    "verify-eigenfunction": _cmd_verify_eigenfunction,
    "wdbplus2": _cmd_wdbplus2,
    "search-support": _cmd_search_support,
    "equitable": _cmd_equitable,
    "balance": _cmd_balance,
    "cameron-liebler": _cmd_cameron_liebler,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinergraphs",
        description="exact constructions and verifications on block graphs of line designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, space_default=None, n_default=3):
        p.add_argument("--q", type=int, default=2, help="field order (prime power)")
        p.add_argument("--n", type=int, default=n_default, help="dimension")
        if space_default is not None:
            p.add_argument("--space", choices=("proj", "aff"), default=space_default)
        p.add_argument("--out", metavar="FILE", help="write the JSON certificate here")
        p.add_argument("--jobs", type=int, default=1, help="worker processes")
        p.add_argument("--limit", type=int, default=None,
                       help="search-support: one node budget counted in prefix order, whatever"
                            " --jobs is; enumerations: entries listed")
        p.add_argument("--format", choices=("json", "text"), default="text")

    common(sub.add_parser("geometry", help="enumerate points, lines, planes"), "proj")
    common(sub.add_parser("srg", help="strongly regular parameters, formula vs brute force"), "proj")
    p = sub.add_parser("wdb", help="weight-distribution bounds")
    common(p, "proj")
    p.add_argument("--theta", type=int, default=None)
    p = sub.add_parser("regulus", help="regulus through three pairwise skew lines")
    common(p)
    p.add_argument("--lines", required=True, help="JSON: three projective lines")
    p = sub.add_parser("affine-regulus", help="affine regulus from three independent vectors")
    common(p)
    p.add_argument("--vectors", required=True, help="JSON: three vectors")
    common(sub.add_parser("enumerate-reguli", help="all reguli of PG(3,q)"))
    common(sub.add_parser("enumerate-affine-reguli", help="all affine reguli of AG(3,q)"))
    common(sub.add_parser("enumerate-optimal",
                          help="induced complete bipartite part-pairs and their classification"),
           "proj")
    p = sub.add_parser("verify-eigenfunction", help="check the eigenvalue equation vertex-wise")
    common(p, "proj")
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--function", required=True, help='JSON: {"vertex": value, ...}')
    p = sub.add_parser("wdbplus2", help="sign function from a regulus and an avoiding plane")
    common(p)
    p.add_argument("--lines", required=True, help="JSON: three projective lines")
    p.add_argument("--hyperplane", required=True, help="JSON: hyperplane normal vector")
    p = sub.add_parser("search-support", help="all eigenfunctions with a given support size")
    common(p, "aff")
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "branch-and-prune"),
                   default="branch-and-prune")
    p.add_argument("--resume", metavar="FILE", help="certificate of an interrupted run")
    p = sub.add_parser("equitable", help="quotient matrix of a 2-partition")
    common(p, "proj")
    _part_flags(p)
    p = sub.add_parser("balance", help="balance of a regulus sign function on a partition part")
    common(p)
    p.add_argument("--lines", required=True, help="JSON: three projective lines")
    p.add_argument("--theta", type=int, default=None)
    _part_flags(p)
    p = sub.add_parser("cameron-liebler", help="test a line set with both criteria")
    common(p)
    _part_flags(p)
    return parser


def _part_flags(p) -> None:
    p.add_argument("--part", help="JSON: explicit list of line indices")
    p.add_argument("--star", help="JSON: point (index or coordinates) for its line star")
    p.add_argument("--plane", help="JSON: hyperplane normal for its line set")
    p.add_argument("--direction", help="JSON: direction vector for its parallel class")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("command", "out", "format") and value is not None
    }
    cert = _Cert(args.command, parameters)
    start = time.monotonic()
    exit_code = 0
    try:
        if args.limit is not None and args.limit < 0:
            raise _UsageError(f"--limit must be >= 0, got {args.limit}")
        if args.jobs < 1:
            raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
        _COMMANDS[args.command](args, cert)
    except _LimitSignal:
        exit_code = 3
    except _UsageError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except LimitExceededError as ex:
        print(f"resource limit: {ex}", file=sys.stderr)
        return 3
    except SteinerError as ex:
        cert.check("no_errors", False, str(ex))
        exit_code = 1
    except (ValueError, KeyError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    timing_ms = int((time.monotonic() - start) * 1000)
    payload = cert.payload(timing_ms)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.format == "json":
        print(text)
    else:
        _print_summary(payload)
    if exit_code == 0 and not cert.all_passed:
        exit_code = 1
    return exit_code


def _print_summary(payload: dict) -> None:
    print(f"{payload['command']}: schema {payload['schema_version']}, {payload['timing_ms']} ms")
    result = payload["result"]
    for key in sorted(result):
        value = result[key]
        if isinstance(value, (int, str, bool)):
            print(f"  {key}: {value}")
        elif isinstance(value, dict) and all(isinstance(v, (int, str, bool)) for v in value.values()):
            print(f"  {key}: {value}")
        elif isinstance(value, list) and len(value) <= 4 and all(
            isinstance(v, (int, str)) for v in value
        ):
            print(f"  {key}: {value}")
        else:
            print(f"  {key}: [{len(value)} entries]")
    for check in payload["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"  check {check['name']}: {mark}")


if __name__ == "__main__":
    sys.exit(main())
