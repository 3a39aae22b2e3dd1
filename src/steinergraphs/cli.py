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
    a --function that is no function of the graph (not an object, or zero
    everywhere), a --part that is not a list of distinct line indices in
    range, a --lines or --vectors that is not three lines (each of two
    basis rows of rank 2) or vectors, a --plane, --hyperplane or
    --direction that is not a nonzero list of field elements of the
    space's length, a --star that is no point (by coordinates, any nonzero
    multiple in a projective space, or index), an option the command does
    not read (--jobs belongs to search-support, --limit to it and the
    three enumerations, --theta to it, wdb and verify-eigenfunction, and
    enumerate-reguli, enumerate-affine-reguli and cameron-liebler, which
    work in dimension 3, take no --n), a negative --limit, a --jobs below
    1, a --resume file that cannot be read, that carries an entry other
    than, as canonical JSON, the one the search writes for the values it
    holds, or that the search refuses to resume from (a done prefix it
    does not have, a support it cannot have found, a function that does
    not verify), all before any search work, or an --out file that cannot
    be written; past the parser each is a ValueError;
  * every named check recomputes what its name claims, and a failed
    check carries a witness;
  * lines are encoded as integer arrays via their canonical forms: a
    projective line by its reduced two-row basis, an affine line by
    (direction, least point); payloads that refer to vertex indices
    embed the index -> line decoding table, and line families, which
    the library returns as line indices, are rendered through it;
  * a block graph's rows are its space's meet table (``space.meets``);
    spaces and designs are memoised, and a design keeps its block graph;
  * each line's JSON is encoded once per command; line listings are joined
    from those texts and each listed regulus pair is written in one step
    from that table, with the same bytes as encoding the whole certificate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from itertools import chain

from . import designs, eigenfunctions, geometry, gf, partitions, reguli
from .designs import srg_params_brute, wdb
from .errors import LimitExceededError, NotAnEigenfunctionError, NotEquitableError, SteinerError

SCHEMA_VERSION = "sv1"


# -- helpers -----------------------------------------------------------------------


def _space_of(kind: str, n: int, q: int):
    return (geometry.proj_space if kind == "proj" else geometry.aff_space)(n, gf.field_of_order(q))


def _graph_of(kind: str, n: int, q: int):
    return designs.block_graph_of(_space_of(kind, n, q))


def _line_json(line):
    if isinstance(line, geometry.ProjLine):
        return {"basis": [list(r) for r in line.basis]}
    return {"dir": list(line.dir), "base": list(line.base)}


class _Items:
    """A JSON array of already-encoded texts; not a str or a list, so
    json.dumps refuses it wherever _dumps does not write it."""

    __slots__ = ("items",)

    def __init__(self, items: list[str]):
        self.items = items

    def __len__(self) -> int:
        return len(self.items)


def _dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, with
    each _Items written as its joined texts."""
    if isinstance(obj, _Items):
        return "[" + ",".join(obj.items) + "]"
    if isinstance(obj, dict) and all(type(k) is str for k in obj):
        return "{" + ",".join(json.dumps(k) + ":" + _dumps(obj[k]) for k in sorted(obj)) + "}"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _line_table(space) -> list[str]:
    """The encoded JSON of each line of the space, by line index."""
    return [_dumps(_line_json(l)) for l in space.lines]


def _pair_json(pair, table: list[str], first: str = "r_lines") -> dict:
    """The two families of a pair, each line rendered by its table entry."""
    return {first: _Items([table[t] for t in pair.r_ids]), "opp_lines": _Items([table[t] for t in pair.opp_ids])}


def _pair_text(pair, table: list[str], first: str = "r_lines") -> str:
    """``_dumps(_pair_json(pair, table, first))`` in one join, keys sorted."""
    return "".join(('{"opp_lines":[', ",".join([table[t] for t in pair.opp_ids]), '],"', first, '":[',
                    ",".join([table[t] for t in pair.r_ids]), "]}"))


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused when it repeats a key (json keeps the last)."""
    keys = [k for k, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return dict(pairs)


def _parse_json_arg(text: str, what: str):
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as ex:
        raise ValueError(f"invalid JSON for {what}: {ex}") from ex


def _vector(data, what: str, space) -> tuple[int, ...]:
    """A parsed JSON value as a coordinate vector of the space: a list of
    field elements of the length of its points."""
    length, q = len(space.points[0]), space.field.q
    if not (isinstance(data, list) and len(data) == length
            and all(type(x) is int and 0 <= x < q for x in data)):
        raise ValueError(f"{what} must be a list of {length} integers in range({q}), got {json.dumps(data)}")
    return tuple(data)


def _vector_arg(text: str, flag: str, space, point: bool = False):
    """A nonzero vector option; with ``point`` the option names a point
    instead, by its coordinates or its index, and the point index is
    returned.  The coordinates of a projective point may be any nonzero
    multiple of its normalised ones."""
    data = _parse_json_arg(text, flag)
    if point and type(data) is int:
        if not 0 <= data < len(space.points):
            raise ValueError(f"{flag} point index {data} is not in range({len(space.points)})")
        return data
    vec = _vector(data, flag, space)
    if not point:
        if not any(vec):
            raise ValueError(f"{flag} must be a nonzero vector, got {list(vec)}")
        return vec
    if isinstance(space, geometry.ProjSpace) and any(vec):
        vec = space.field.normalize_row(vec)
    if vec not in space.point_index:
        raise ValueError(f"{flag} {list(vec)} is not a point of {space}")
    return space.point_index[vec]


def _regulus_arg(args):
    """PG(--n, --q) and the regulus pair through --lines: a JSON list of
    three projective lines, each given by two basis rows."""
    space = _space_of("proj", args.n, args.q)
    data = _parse_json_arg(args.lines, "--lines")
    if not (isinstance(data, list) and len(data) == 3):
        raise ValueError("--lines must hold exactly three lines")
    lines = []
    for d in data:
        if not (isinstance(d, list) and len(d) == 2):
            raise ValueError("--lines: a projective line is [[...], [...]] basis rows")
        rows = tuple(_vector(row, "--lines basis row", space) for row in d)
        try:
            lines.append(space.line_from_basis(rows))
        except SteinerError as ex:
            raise ValueError(f"--lines: {ex}, got {json.dumps(d)}") from ex
    return space, reguli.regulus_through(space, *lines)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as ex:
        raise ValueError(f"{text!r} is not a rational number") from ex


def _function_arg(pairs, what: str, graph, theta: int) -> eigenfunctions.Eigenfunction:
    """The function of ``graph`` at ``theta`` with the parsed (vertex,
    value) pairs; pairs that give no such function (a malformed pair or
    value, a vertex out of range, every value zero) are a ValueError
    naming ``what``."""
    try:
        return eigenfunctions.Eigenfunction(graph, theta, {u: _rational(str(x)) for u, x in pairs})
    except (TypeError, ValueError, SteinerError) as ex:
        raise ValueError(f"{what}: {ex}") from ex


def _function_json(f: eigenfunctions.Eigenfunction, structure: str | None = None) -> dict:
    entry = {"support": list(f.support), "values": [[u, str(f.values[u])] for u in f.support]}
    if structure is not None:
        entry["structure"] = structure
    return entry


def _family_json(fam: eigenfunctions.SupportFamily) -> dict:
    return {"support": list(fam.support), "dimension": fam.dimension, "basis": list(map(_function_json, fam.basis))}


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

    def validate(self, name: str, validator, *args) -> None:
        """The check ``name``: whether the validator accepts its input,
        with why it does not as the witness."""
        try:
            validator(*args)
        except SteinerError as ex:
            self.check(name, False, str(ex))
        else:
            self.check(name, True)

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
    npts, nlin = space.point_count(), space.line_count()
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
    formula = graph.design.params
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
    space, pair = _regulus_arg(args)
    cert.result = dict(
        _pair_json(pair, _line_table(space)),
        r_indices=list(pair.r_ids),
        opp_indices=list(pair.opp_ids),
    )
    cert.validate("regulus_axioms", reguli._check_regulus_pair, space, pair.r_ids, pair.opp_ids)


def _cmd_affine_regulus(args, cert: _Cert) -> None:
    space = _space_of("aff", args.n, args.q)
    data = _parse_json_arg(args.vectors, "--vectors")
    if not (isinstance(data, list) and len(data) == 3):
        raise ValueError("--vectors must hold exactly three vectors")
    pair = reguli.affine_regulus_construct(space, *(_vector(v, "--vectors entry", space) for v in data))
    rp = reguli.lift_to_projective(pair)
    cert.result = dict(
        _pair_json(pair, _line_table(space), "s_lines"),
        projective_lift=_pair_json(rp, _line_table(rp.space)),
    )
    cert.validate("affine_regulus_axioms", reguli._check_regulus_pair, space, pair.r_ids, pair.opp_ids)
    cert.validate("projective_lift", reguli._check_lift, pair, rp)


def _cmd_enumerate_reguli(args, cert: _Cert) -> None:
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
        "reguli": _Items([_pair_text(p, table) for p in pairs[: args.limit]]),
    }
    seen = {(p.r_ids, p.opp_ids) for p in pairs}
    cert.check("swap_closed", all((p.opp_ids, p.r_ids) in seen for p in pairs))
    expected = args.q ** 4 * (args.q ** 3 - 1) * (args.q ** 2 + 1)
    cert.check("count_matches_formula", len(pairs) == expected, {"expected": expected})


def _cmd_enumerate_affine_reguli(args, cert: _Cert) -> None:
    space = _space_of("aff", 3, args.q)
    q = args.q
    print(f"enumerating affine reguli of AG(3,{q})", file=sys.stderr)
    pairs = reguli.enumerate_reguli(space)
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
        "pairs": _Items([_pair_text(p, table, "s_lines") for p in pairs[: args.limit]]),
    }
    cert.check("count_matches_formula", len(pairs) == expected, {"expected": expected})


def _cmd_enumerate_optimal(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    params = graph.design.params
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
            cls = eigenfunctions.classify_optimal(eigenfunctions.Eigenfunction(graph, params.s, values))
        except NotAnEigenfunctionError:
            all_verify = False
            continue
        kind = type(cls).__name__
        counts[kind] += 1
        listing.append({"t0": list(t0), "t1": list(t1), "kind": kind})
    cert.result = {
        "part_size": a,
        "count": len(pairs),
        "classification": counts,
        "pairs": listing[: args.limit],
        "lines": _Items(_line_table(graph.design.space)),
    }
    cert.check("all_pairs_verify", all_verify)
    cert.check("classification_total", sum(counts.values()) == len(pairs), {"count": len(pairs)})


def _cmd_verify_eigenfunction(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    data = _parse_json_arg(args.function, "--function")
    if not isinstance(data, dict):
        raise ValueError('--function must be a JSON object {"vertex": value, ...}')
    vertices = {str(u): u for u in range(graph.v)}
    for u in data:
        if u not in vertices:
            raise ValueError(f"--function: vertex {u!r} is not an index in 0..{graph.v - 1}")
    f = _function_arg(((vertices[u], x) for u, x in data.items()), "--function", graph, args.theta)
    res = eigenfunctions.verify_eigenfunction(f)
    cert.result = {"theta": args.theta, "support": list(f.support), "ok": res.ok}
    if res.witness is not None:
        u, lhs, rhs = res.witness
        cert.result["witness"] = {"vertex": u, "lhs": str(lhs), "rhs": str(rhs)}
    cert.check("eigenvalue_equation", res.ok, cert.result.get("witness"))


def _cmd_wdbplus2(args, cert: _Cert) -> None:
    space, pair = _regulus_arg(args)
    normal = _vector_arg(args.hyperplane, "--hyperplane", space)
    hyp = geometry.Hyperplane(geometry.normalize_point(space.field, normal))
    f = eigenfunctions.wdbplus2_function(pair, hyp)
    graph = f.graph
    structure = eigenfunctions.support_structure(f)
    cert.result = {
        "theta": f.theta,
        "support_size": len(f.support),
        "function": _function_json(f, structure),
        "lines": _Items(_line_table(graph.design.space)),
    }
    cert.check("support_size_2q_plus_2", len(f.support) == 2 * (args.q + 1))
    cert.check("structure_bipartite_minus_matching", structure == "BipartiteMinusMatching")
    cert.check("verifies", bool(eigenfunctions.verify_eigenfunction(f)))


def _found_json(res: eigenfunctions.SearchResult) -> tuple[list, list]:
    """The function and the family entries of a search result's certificate."""
    return ([_function_json(f, eigenfunctions.support_structure(f)) for f in res.functions],
            list(map(_family_json, res.families)))


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(u) is int for u in value)


def _resume_arg(path: str, cert: _Cert, graph) -> eigenfunctions.SearchResult:
    """The certificate of an interrupted run of the same search on
    ``graph``, rebuilt into the cut SearchResult that search_min_support
    resumes (which checks its prefixes and what it carries); each carried
    entry must be, as canonical JSON, the one its values give."""
    what = f"--resume {path}"
    try:
        with open(path) as fh:
            prev = _parse_json_arg(fh.read(), what)
    except OSError as ex:
        raise ValueError(f"{what}: {ex.strerror or ex}") from ex
    result = prev.get("result") if isinstance(prev, dict) else None
    if not (isinstance(result, dict) and isinstance(prev.get("parameters"), dict)):
        raise ValueError(f"{what} is not the certificate of a search")
    keys = ("space", "n", "q", "theta", "size", "mode")
    if prev.get("command") != cert.command or any(prev["parameters"].get(k) != cert.parameters.get(k) for k in keys):
        raise ValueError(f"{what} is a checkpoint of a different search")
    checkpoint, functions, families = (result.get(k) for k in ("checkpoint", "functions", "families"))
    done = checkpoint.get("done") if isinstance(checkpoint, dict) else None
    # the library would read a prefix [true, 2] as (1, 2) and write it back
    if not (isinstance(done, list) and all(map(_int_list, done))
            and isinstance(functions, list) and isinstance(families, list)):
        raise ValueError(f"{what} holds no checkpoint of an interrupted search")
    rebuild = lambda entry: _function_arg(entry["values"], "a carried function", graph, cert.parameters["theta"])
    try:
        fams = tuple(eigenfunctions.SupportFamily(tuple(map(rebuild, e["basis"]))) for e in families)
        cut = eigenfunctions.SearchResult(tuple(map(rebuild, functions)), fams, 0, 0, False, {"done": done})
    except (TypeError, KeyError, ValueError) as ex:
        raise ValueError(f"{what}: {ex}") from ex
    for entry, own in zip(chain(functions, families), chain(*_found_json(cut))):
        if _dumps(entry) != _dumps(own):
            raise ValueError(f"{what}: carried entry {_dumps(entry)} is not {_dumps(own)}, as its values give it")
    print(f"resuming from {path}: {len(done)} prefixes done", file=sys.stderr)
    return cut


def _cmd_search_support(args, cert: _Cert) -> int:
    graph = _graph_of(args.space, args.n, args.q)
    cut = _resume_arg(args.resume, cert, graph) if args.resume else None
    print(f"searching supports of size {args.size} at theta={args.theta} ({args.mode})", file=sys.stderr)
    try:
        res = eigenfunctions.search_min_support(graph, args.theta, args.size, args.mode, limit=args.limit,
                                                resume=cut, jobs=args.jobs)
    except ValueError as ex:
        raise ValueError(f"--resume {args.resume}: {ex}") if cut else ex
    fn_entries, fam_entries = _found_json(res)
    verified = all(map(eigenfunctions.verify_eigenfunction, chain(res.functions, *(fam.basis for fam in res.families))))
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
        "lines": _Items(_line_table(graph.design.space)),
    }
    if not res.complete:
        cert.result["checkpoint"] = res.checkpoint
    cert.check("all_new_functions_verify", verified)
    cert.check("complete", res.complete)
    return 0 if res.complete else 3


def _cmd_equitable(args, cert: _Cert) -> None:
    graph = _graph_of(args.space, args.n, args.q)
    space = graph.design.space
    part_indices = _named_line_set(args, space)
    part = partitions.Partition2.from_part(graph, part_indices)
    try:
        quotient = partitions.quotient_matrix(graph, part)
    except NotEquitableError as ex:
        cert.result = {"part": list(part.v1), "lines": _Items(_line_table(space))}
        cert.check("equitable", False, ex.witness)
        return
    theta = partitions.partition_eigenvalue(quotient)
    cert.result = {
        "part": list(part.v1),
        "quotient": [list(r) for r in quotient.rows()],
        "theta": theta,
        "principal": quotient.is_principal,
        "lines": _Items(_line_table(space)),
    }
    if not quotient.is_principal:
        f = partitions.partition_to_eigenfunction(graph, part)
        cert.result["eigenfunction_values"] = [
            str(f.value(part.v1[0])), str(f.value(part.v2[0]))
        ]
    cert.check("equitable", True)  # quotient_matrix found constant counts


def _cmd_balance(args, cert: _Cert) -> None:
    space, pair = _regulus_arg(args)
    graph = designs.block_graph_of(space)
    f1 = eigenfunctions.optimal_from_regulus(pair, graph)
    part_indices = _named_line_set(args, space)
    part = partitions.Partition2.from_part(graph, part_indices)
    # the sign function's eigenvalue is s, and balance_check refuses s and
    # k, so r is the one eigenvalue at which a partition can balance it
    theta = graph.design.params.r
    report = partitions.balance_check(graph, f1, [f1], part, theta)
    cert.result = {
        "theta": theta,
        "m_plus": report.m_plus,
        "m_minus": report.m_minus,
        "function": _function_json(f1),
        "part": list(part.v1),
        "lines": _Items(_line_table(space)),
    }
    cert.check("balanced", report.equal, {"m_plus": report.m_plus, "m_minus": report.m_minus})


def _cmd_cameron_liebler(args, cert: _Cert) -> None:
    space = _space_of("proj", 3, args.q)
    line_set = _named_line_set(args, space)
    verdict = partitions.cameron_liebler_check(space, line_set)
    table = _line_table(space)
    cert.result = {
        "line_set": sorted(line_set),
        "is_cameron_liebler": verdict.is_cl_reguli,
        "method_reguli": verdict.is_cl_reguli,
        "method_equitable": verdict.is_cl_equitable,
        "lines": _Items(table),
    }
    if verdict.quotient is not None:
        cert.result["quotient"] = [list(r) for r in verdict.quotient.rows()]
    if verdict.witness is not None:
        cert.result["witness"] = _pair_json(verdict.witness, table)
    cert.check("methods_agree", verdict.agree)


def _named_line_set(args, space) -> tuple[int, ...]:
    """Resolve --part / --star / --plane / --direction to line indices."""
    if [args.part, args.star, args.plane, args.direction].count(None) != 3:
        raise ValueError("give exactly one of --part, --star, --plane, --direction")
    if args.part is not None:
        data = _parse_json_arg(args.part, "--part")
        if not (isinstance(data, list) and all(type(u) is int for u in data)):
            raise ValueError("--part must be a JSON list of integer line indices")
        bad = next((u for u in data if not 0 <= u < len(space.lines)), None)
        if bad is not None:
            raise ValueError(f"--part line index {bad} is not in range({len(space.lines)})")
        if len(set(data)) != len(data):
            raise ValueError(f"--part repeats line index {next(u for u in data if data.count(u) > 1)}")
        return tuple(data)
    if args.star is not None:
        return partitions.star_line_set(space, _vector_arg(args.star, "--star", space, point=True))
    if args.plane is not None:
        if not isinstance(space, geometry.ProjSpace):
            raise ValueError("--plane needs a projective space")
        normal = _vector_arg(args.plane, "--plane", space)
        return partitions.plane_line_set(space, geometry.Hyperplane(normal))
    if not isinstance(space, geometry.AffSpace):
        raise ValueError("--direction needs an affine space")
    return partitions.direction_class_line_set(space, _vector_arg(args.direction, "--direction", space))


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


def _at_least(least: int):
    """An argparse type: an integer of at least ``least``.  Anything else
    exits with code 2, naming the option, before any work."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    """Each command declares only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="steinergraphs",
        description="exact constructions and verifications on block graphs of line designs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def base(p):
        """The options of every command: the field order and the output."""
        p.add_argument("--q", type=int, default=2, help="field order (prime power)")
        p.add_argument("--out", metavar="FILE", help="write the JSON certificate here")
        p.add_argument("--format", choices=("json", "text"), default="text")
        return p

    def common(p, space_default=None):
        """The base options, --n and, where it has a default, --space."""
        base(p).add_argument("--n", type=int, default=3, help="dimension")
        if space_default is not None:
            p.add_argument("--space", choices=("proj", "aff"), default=space_default)
        return p

    def listing(p, entries: str) -> None:
        p.add_argument("--limit", type=_at_least(0), help=f"list only the first LIMIT {entries}")

    common(sub.add_parser("geometry", help="enumerate points, lines, planes"), "proj")
    common(sub.add_parser("srg", help="strongly regular parameters, formula vs brute force"), "proj")
    p = common(sub.add_parser("wdb", help="weight-distribution bounds"), "proj")
    p.add_argument("--theta", type=int, default=None)
    p = common(sub.add_parser("regulus", help="regulus through three pairwise skew lines"))
    p.add_argument("--lines", required=True, help="JSON: three projective lines")
    p = common(sub.add_parser("affine-regulus", help="affine regulus from three independent vectors"))
    p.add_argument("--vectors", required=True, help="JSON: three vectors")
    listing(base(sub.add_parser("enumerate-reguli", help="all reguli of PG(3,q)")), "ordered pairs")
    listing(base(sub.add_parser("enumerate-affine-reguli", help="all affine reguli of AG(3,q)")),
            "ordered pairs")
    p = common(sub.add_parser("enumerate-optimal",
                              help="induced complete bipartite part-pairs and their classification"), "proj")
    listing(p, "part-pairs")
    p = common(sub.add_parser("verify-eigenfunction", help="check the eigenvalue equation vertex-wise"), "proj")
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--function", required=True, help='JSON: {"vertex": value, ...}')
    p = common(sub.add_parser("wdbplus2", help="sign function from a regulus and an avoiding plane"))
    p.add_argument("--lines", required=True, help="JSON: three projective lines")
    p.add_argument("--hyperplane", required=True, help="JSON: hyperplane normal vector")
    p = common(sub.add_parser("search-support", help="all eigenfunctions with a given support size"), "aff")
    p.add_argument("--theta", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "branch-and-prune"),
                   default="branch-and-prune")
    p.add_argument("--resume", metavar="FILE", help="certificate of an interrupted run")
    p.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    p.add_argument("--limit", type=_at_least(0),
                   help="node budget, counted in prefix order whatever --jobs is; a spent"
                        " budget exits 3 with a checkpoint")
    _part_flags(common(sub.add_parser("equitable", help="quotient matrix of a 2-partition"), "proj"))
    p = common(sub.add_parser("balance", help="balance of a regulus sign function on a partition part"))
    p.add_argument("--lines", required=True, help="JSON: three projective lines")
    _part_flags(p)
    _part_flags(base(sub.add_parser("cameron-liebler", help="test a line set with both criteria in PG(3,q)")))
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
        # a command returns 3 when it filled its certificate but reached a limit
        exit_code = _COMMANDS[args.command](args, cert) or 0
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
    text = _dumps(payload)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as ex:
            print(f"error: --out {args.out}: {ex.strerror or ex}", file=sys.stderr)
            return 2
    if args.format == "json":
        print(text)
    else:
        _print_summary(payload)
    if exit_code == 0 and not cert.all_passed:
        exit_code = 1
    return exit_code


def _print_summary(payload: dict) -> None:
    print(f"{payload['command']}: schema {payload['schema_version']}, {payload['timing_ms']} ms")
    _print_entries("", payload["result"])
    for check in payload["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"  check {check['name']}: {mark}")


def _print_entries(prefix: str, entries: dict) -> None:
    """One summary line per entry: a scalar, a dict of scalars or a short
    list of scalars as it is, another dict one level down under
    ``key.``, anything else by its number of entries."""
    for key in sorted(entries):
        value = entries[key]
        if (
            isinstance(value, (int, str, bool))
            or isinstance(value, dict) and all(isinstance(v, (int, str, bool)) for v in value.values())
            or isinstance(value, list) and len(value) <= 4 and all(isinstance(v, (int, str)) for v in value)
        ):
            print(f"  {prefix}{key}: {value}")
        elif isinstance(value, dict):
            _print_entries(f"{prefix}{key}.", value)
        else:
            print(f"  {prefix}{key}: [{len(value)} entries]" if value else f"  {prefix}{key}: []")


if __name__ == "__main__":
    sys.exit(main())
