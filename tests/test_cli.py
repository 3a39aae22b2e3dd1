"""Command-line interface: certificates, exit codes, resume.

Certificates are the contract: schema "sv1", deterministic result
payload (timing lives outside it), named checks that recompute what
they claim, the documented exit codes 0 / 1 / 2 / 3, and result bytes
pinned by sha256 for a fixed command list.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import json
import time
from fractions import Fraction
from dataclasses import replace

import pytest

from steinergraphs import cli, geometry, gf, reguli
from steinergraphs.designs import PACKED_TABLE_BITS, affine_design, cached_block_graph, projective_design
from steinergraphs.eigenfunctions import search_min_support
from steinergraphs.reguli import RegulusPair

REGULUS_LINES = (
    '[[[1,0,0,0],[0,1,0,0]],'
    '[[0,0,1,0],[0,0,0,1]],'
    '[[1,0,1,0],[0,1,0,1]]]'
)


def _run(capsys, *argv):
    code = cli.main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- certificate shape ----------------------------------------------------------------


def test_certificate_schema(capsys):
    code, cert = _run(capsys, "srg", "--space", "proj", "--n", "3", "--q", "2")
    assert code == 0
    assert set(cert) == {"schema_version", "command", "parameters", "result", "checks", "timing_ms"}
    assert cert["schema_version"] == "sv1"
    assert cert["command"] == "srg"
    assert cert["parameters"]["q"] == 2
    assert all(set(c) >= {"name", "passed"} for c in cert["checks"])
    assert isinstance(cert["timing_ms"], int)


def test_result_payload_deterministic(capsys):
    _, a = _run(capsys, "geometry", "--space", "aff", "--n", "3", "--q", "2")
    _, b = _run(capsys, "geometry", "--space", "aff", "--n", "3", "--q", "2")
    assert json.dumps(a["result"], sort_keys=True) == json.dumps(b["result"], sort_keys=True)
    assert json.dumps(a["checks"], sort_keys=True) == json.dumps(b["checks"], sort_keys=True)


def test_text_format_summary(capsys):
    code = cli.main(["wdb", "--space", "proj", "--n", "3", "--q", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "check closed_form_matches: PASS" in out
    assert "wdb" in out


@pytest.mark.parametrize("argv,line", [
    (("enumerate-affine-reguli", "--q", "2", "--limit", "0"), "  pairs: []"),
    (("enumerate-reguli", "--q", "2"), "  reguli: [560 entries]"),
    (("regulus", "--q", "2", "--lines", REGULUS_LINES), "  r_lines: [3 entries]"),
])
def test_text_summary_of_listings(capsys, argv, line):
    """A listing of pre-encoded entries reads in the text summary as a
    list does: an empty one as [], any other by its number of entries."""
    assert cli.main(list(argv)) == 0
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("obj", [
    {"b": [1, {"z": None, "a": True}], "a": "x"},
    {"quote\"s": "back\\slash \u00e9 \n\t \u2028 \ud83d\ude00", "": [[], {}, ""]},
    {"n": -10 ** 40, "m": [False, 0, "0"]},
    {"nested": {"deeper": {"deepest": ["a", {"k": "v"}]}}},
    {3: "int keys", 1: "go to json.dumps"},
    ["a list", {"b": 1, "a": 2}],
    "\x00\x1f\"",
])
def test_dumps_equals_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_dumps_writes_items_verbatim_only_in_dicts():
    texts = [json.dumps({"basis": [[1, 0], [0, 1]]}, separators=(",", ":")), "7"]
    assert cli._dumps(cli._Items(texts)) == "[" + ",".join(texts) + "]"
    assert cli._dumps({"b": cli._Items([]), "a": cli._Items(texts)}) == (
        '{"a":[{"basis":[[1,0],[0,1]]},7],"b":[]}'
    )
    assert len(cli._Items(texts)) == 2
    with pytest.raises(TypeError):
        cli._dumps({"witness": [cli._Items(texts)]})


@pytest.mark.parametrize("first", ["r_lines", "s_lines"])
@pytest.mark.parametrize("kind, q", [("proj", 2), ("aff", 2), ("proj", 3), ("aff", 3)])
def test_pair_text_is_canonical_json(kind, q, first):
    """Every pair the listings write, written in one join, is the compact
    key-sorted encoding of its plain families and equals _dumps of the
    pair's _pair_json, under either name of the first family."""
    space = cli._space_of(kind, 3, q)
    table = cli._line_table(space)
    plain = [cli._line_json(line) for line in space.lines]
    for pair in reguli.enumerate_reguli(space):
        text = cli._pair_text(pair, table, first)
        families = {first: [plain[t] for t in pair.r_ids], "opp_lines": [plain[t] for t in pair.opp_ids]}
        assert text == json.dumps(families, sort_keys=True, separators=(",", ":"))
        assert text == cli._dumps(cli._pair_json(pair, table, first))


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code = cli.main(["srg", "--space", "aff", "--n", "3", "--q", "2", "--out", str(path)])
    assert code == 0
    cert = json.loads(path.read_text())
    assert cert["result"]["brute"]["v"] == 28


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_file_unwritable_exit_2(tmp_path, capsys, where):
    """An --out file that cannot be written exits 2 with a message naming
    the option, and prints nothing on stdout."""
    path = tmp_path / "missing" / "cert.json" if where == "missing-dir" else tmp_path
    code, err = _usage_error(capsys, "srg", "--q", "2", "--out", str(path))
    assert code == 2
    assert f"--out {path}" in err
    assert "Traceback" not in err


# -- subcommand results ------------------------------------------------------------------


def test_geometry_counts(capsys):
    _, cert = _run(capsys, "geometry", "--space", "proj", "--n", "3", "--q", "3")
    r = cert["result"]
    assert r["num_points"] == 40
    assert r["num_lines"] == 130
    assert len(r["lines"]) == 130
    _, cert = _run(capsys, "geometry", "--space", "aff", "--n", "3", "--q", "3")
    assert cert["result"]["num_planes"] == 39


def test_wdb_values(capsys):
    _, cert = _run(capsys, "wdb", "--space", "aff", "--n", "3", "--q", "2")
    assert cert["result"]["wdb"] == {"-2": 4, "4": 10}


def test_regulus_command(capsys):
    _, cert = _run(capsys, "regulus", "--q", "2", "--lines", REGULUS_LINES)
    r = cert["result"]
    assert len(r["r_lines"]) == 3 and len(r["opp_lines"]) == 3
    assert len(set(r["r_indices"] + r["opp_indices"])) == 6


def test_affine_regulus_command(capsys):
    _, cert = _run(capsys, "affine-regulus", "--q", "3", "--n", "3",
                   "--vectors", "[[1,0,0],[0,1,0],[0,0,1]]")
    r = cert["result"]
    assert len(r["s_lines"]) == 3 and len(r["opp_lines"]) == 3
    assert len(r["projective_lift"]["r_lines"]) == 4


def test_enumerate_commands(capsys):
    _, cert = _run(capsys, "enumerate-reguli", "--q", "2", "--limit", "3")
    assert cert["result"]["count_ordered"] == 560
    assert cert["result"]["count_unordered"] == 280
    assert len(cert["result"]["reguli"]) == 3
    _, cert = _run(capsys, "enumerate-affine-reguli", "--q", "2", "--limit", "0")
    assert cert["result"]["count_ordered"] == 336
    assert cert["result"]["pairs"] == []


def test_enumerate_reguli_swap_check_covers_every_pair(capsys, monkeypatch):
    """Dropping one ordered pair far down the listing leaves its swap
    without a partner, and the swap_closed check must notice."""
    real = cli.reguli.enumerate_reguli
    monkeypatch.setattr(cli.reguli, "enumerate_reguli", lambda space: real(space)[:-1])
    code, cert = _run(capsys, "enumerate-reguli", "--q", "2", "--limit", "0")
    assert cert["result"]["count_ordered"] == 559
    assert {c["name"]: c["passed"] for c in cert["checks"]}["swap_closed"] is False
    assert code == 1


def test_enumerate_optimal_census(capsys):
    code, cert = _run(capsys, "enumerate-optimal", "--space", "aff", "--n", "3", "--q", "2")
    assert code == 0
    assert cert["result"]["count"] == 210
    assert cert["result"]["classification"] == {
        "Type1": 42, "Type2": 168, "GrassmannRegulus": 0,
    }


def test_verify_eigenfunction_pass_and_fail(capsys):
    code, cert = _run(capsys, "verify-eigenfunction", "--space", "proj", "--n", "3", "--q", "2",
                      "--theta", "3", "--function",
                      '{"0": "4", "1": "-1", "6": "-1", "7": "-1", "20": "-1", "29": "-1", "34": "-1"}')
    # star values without the bulk part do not verify; build the true one instead
    assert code == 1
    code, cert = _run(capsys, "wdbplus2", "--q", "2", "--lines", REGULUS_LINES,
                      "--hyperplane", "[1,0,1,1]")
    assert code == 0
    values = dict()
    for u, val in cert["result"]["function"]["values"]:
        values[str(u)] = val
    code2, cert2 = _run(capsys, "verify-eigenfunction", "--space", "aff", "--n", "3", "--q", "2",
                        "--theta", "-2", "--function", json.dumps(values))
    assert code2 == 0
    assert cert2["result"]["ok"] is True


def test_equitable_star(capsys):
    code, cert = _run(capsys, "equitable", "--space", "proj", "--n", "3", "--q", "2",
                      "--star", "0")
    assert code == 0
    assert cert["result"]["quotient"] == [[6, 12], [3, 15]]
    assert cert["result"]["theta"] == 3
    assert cert["result"]["eigenfunction_values"] == ["4", "-1"]
    assert len(cert["result"]["lines"]) == 35


def test_star_normalises_projective_coordinates(capsys):
    """--star takes any nonzero multiple of a projective point, as --plane
    and --hyperplane take any multiple of a normal: (2:0:0:0) and
    (0:2:1:0) of PG(3,3) give the certificates of (1:0:0:0) and
    (0:1:2:0)."""
    for given, normalised in (("[2,0,0,0]", "[1,0,0,0]"), ("[0,2,1,0]", "[0,1,2,0]")):
        code, cert = _run(capsys, "equitable", "--q", "3", "--star", given)
        assert code == 0
        _, ref = _run(capsys, "equitable", "--q", "3", "--star", normalised)
        assert cert["result"] == ref["result"]


def test_star_zero_vector_exit_2(capsys):
    """The zero vector is no projective point, and normalising does not
    make it one."""
    code, err = _usage_error(capsys, "equitable", "--q", "3", "--star", "[0,0,0,0]")
    assert code == 2
    assert "--star" in err


def test_equitable_direction_class(capsys):
    code, cert = _run(capsys, "equitable", "--space", "aff", "--n", "3", "--q", "2",
                      "--direction", "[1,0,0]")
    assert code == 0
    assert cert["result"]["quotient"] == [[0, 12], [2, 10]]
    assert cert["result"]["theta"] == -2


def test_plane_names_the_lines_of_a_plane(capsys):
    """--plane names the lines inside a hyperplane of PG(3,q): in
    equitable and cameron-liebler alike, the seven lines of the plane
    x3 = 0 of PG(3,2), dual to a star, with the star's quotient matrix."""
    code, cert = _run(capsys, "equitable", "--q", "2", "--plane", "[0,0,0,1]")
    assert code == 0
    part, lines = cert["result"]["part"], cert["result"]["lines"]
    assert part == [t for t, line in enumerate(lines) if all(row[3] == 0 for row in line["basis"])]
    assert len(part) == 7
    assert cert["result"]["quotient"] == [[6, 12], [3, 15]]
    code, cl = _run(capsys, "cameron-liebler", "--q", "2", "--plane", "[0,0,0,1]")
    assert code == 0
    assert cl["result"]["line_set"] == part
    assert cl["result"]["is_cameron_liebler"] is True
    assert cl["result"]["method_equitable"] is True


@pytest.mark.parametrize("flags", [(), ("--star", "0", "--part", "[0]"), ("--plane", "[0,0,0,1]", "--star", "0")],
                         ids=["none", "star-and-part", "plane-and-star"])
def test_line_set_needs_exactly_one_option_exit_2(capsys, flags):
    """equitable, balance and cameron-liebler each name one line set."""
    for argv in (("equitable", "--q", "2"),
                 ("balance", "--q", "2", "--lines", REGULUS_LINES),
                 ("cameron-liebler", "--q", "2")):
        code, err = _usage_error(capsys, *argv, *flags)
        assert code == 2
        assert "exactly one of --part, --star, --plane, --direction" in err


def test_balance_command(capsys):
    code, cert = _run(capsys, "balance", "--q", "2", "--lines", REGULUS_LINES, "--star", "0")
    assert code == 0
    assert cert["result"]["m_plus"] == cert["result"]["m_minus"] == 1


def test_balance_builds_one_quotient_matrix(capsys, monkeypatch):
    """balance reads theta off the graph (r), so only balance_check builds
    the partition's quotient matrix."""
    real, calls = cli.partitions.quotient_matrix, []
    monkeypatch.setattr(cli.partitions, "quotient_matrix", lambda *a: calls.append(a) or real(*a))
    code, cert = _run(capsys, "balance", "--q", "2", "--lines", REGULUS_LINES, "--star", "0")
    assert code == 0
    assert cert["result"]["theta"] == 3
    assert len(calls) == 1


def test_balance_refuses_a_partition_equitable_at_s(capsys):
    """A spread of PG(3,2) is equitable with quotient [[0, 18], [3, 15]],
    at eigenvalue -3 = s; balance needs it at r = 3, and says so."""
    spread = "[0,10,22,27,19]"
    _, cert = _run(capsys, "equitable", "--q", "2", "--part", spread)
    assert (cert["result"]["quotient"], cert["result"]["theta"]) == ([[0, 18], [3, 15]], -3)
    code, cert = _run(capsys, "balance", "--q", "2", "--lines", REGULUS_LINES, "--part", spread)
    assert code == 1
    assert _check(cert, "no_errors") == {
        "name": "no_errors", "passed": False, "witness": "partition is equitable with eigenvalue -3, not 3"
    }


def test_cameron_liebler_star_and_regulus(capsys):
    code, cert = _run(capsys, "cameron-liebler", "--q", "2", "--star", "[1,0,0,0]")
    assert code == 0
    assert cert["result"]["is_cameron_liebler"] is True
    assert cert["result"]["method_reguli"] is cert["result"]["method_equitable"] is True
    _, cert = _run(capsys, "cameron-liebler", "--q", "2", "--part", "[0,1,2,3]")
    assert cert["result"]["is_cameron_liebler"] is False
    assert cert["result"]["method_reguli"] is cert["result"]["method_equitable"] is False
    assert "witness" in cert["result"]


# -- named checks recompute what they claim -------------------------------------------------


def _check(cert, name):
    return next(c for c in cert["checks"] if c["name"] == name)


def test_regulus_axioms_check_recomputes(capsys, monkeypatch):
    """A regulus whose opposite family is the regulus itself fails the
    axioms check, with a witness, and the command exits 1."""
    real = cli.reguli.regulus_through

    def broken(space, *lines):
        pair = real(space, *lines)
        return RegulusPair(pair.r_ids, pair.r_ids, space)

    monkeypatch.setattr(cli.reguli, "regulus_through", broken)
    code, cert = _run(capsys, "regulus", "--q", "2", "--lines", REGULUS_LINES)
    assert code == 1
    check = _check(cert, "regulus_axioms")
    assert check["passed"] is False
    assert "one point" in check["witness"]


def test_affine_regulus_axioms_check_recomputes(capsys, monkeypatch):
    """An affine pair whose opposite family is the family itself fails
    the axioms check; its lift is taken from the true pair."""
    real_construct, real_lift = cli.reguli.affine_regulus_construct, cli.reguli.lift_to_projective
    true_pairs = []

    def broken(space, *vectors):
        true_pairs.append(real_construct(space, *vectors))
        return RegulusPair(true_pairs[-1].r_ids, true_pairs[-1].r_ids, space)

    monkeypatch.setattr(cli.reguli, "affine_regulus_construct", broken)
    monkeypatch.setattr(cli.reguli, "lift_to_projective", lambda pair: real_lift(true_pairs[-1]))
    code, cert = _run(capsys, "affine-regulus", "--q", "3", "--vectors", "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 1
    check = _check(cert, "affine_regulus_axioms")
    assert check["passed"] is False
    assert "one point" in check["witness"]


def test_projective_lift_check_recomputes(capsys, monkeypatch):
    """A lift whose families are swapped no longer gives back S and
    S_opp when the lines at infinity are removed."""
    real = cli.reguli.lift_to_projective

    def swapped(pair):
        return real(pair).swap()

    monkeypatch.setattr(cli.reguli, "lift_to_projective", swapped)
    code, cert = _run(capsys, "affine-regulus", "--q", "3", "--vectors", "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 1
    assert _check(cert, "affine_regulus_axioms")["passed"] is True
    check = _check(cert, "projective_lift")
    assert check["passed"] is False
    assert "not the affine pair" in check["witness"]


def test_wdb_closed_form_check_recomputes(capsys, monkeypatch):
    """The closed form comes from the spectrum of the graph built, so a
    graph whose least eigenvalue differs from the formula's fails the
    check while the bound values stay those of the formula."""
    _, good = _run(capsys, "wdb", "--space", "proj", "--n", "3", "--q", "2")
    real = cli.srg_params_brute
    monkeypatch.setattr(cli, "srg_params_brute", lambda graph: replace(real(graph), s=real(graph).s - 1))
    code, cert = _run(capsys, "wdb", "--space", "proj", "--n", "3", "--q", "2")
    assert code == 1
    assert _check(cert, "closed_form_matches")["passed"] is False
    assert cert["result"] == good["result"]


def test_equitable_check_recomputes(capsys):
    """A part that is not equitable is reported as a failed check with a
    witness vertex pair, not as an error."""
    code, cert = _run(capsys, "equitable", "--space", "proj", "--n", "3", "--q", "2",
                      "--part", "[0,1,2,3]")
    assert code == 1
    assert [c["name"] for c in cert["checks"]] == ["equitable"]
    check = cert["checks"][0]
    assert check["passed"] is False
    part, (u, cu), (w, cw) = check["witness"]
    assert part in (1, 2) and u != w and cu != cw


def test_enumerate_optimal_flags_a_pair_that_fails_verification(capsys, monkeypatch):
    """A part-pair that is not an induced K_{2,2} fails the eigenvalue
    equation inside classify_optimal; it is reported, not classified."""
    real =cli.eigenfunctions.enumerate_complete_bipartite
    monkeypatch.setattr(cli.eigenfunctions, "enumerate_complete_bipartite",
                        lambda graph, a: real(graph, a) + [((0, 1), (2, 3))])
    code, cert = _run(capsys, "enumerate-optimal", "--space", "aff", "--n", "3", "--q", "2")
    assert code == 1
    assert _check(cert, "all_pairs_verify")["passed"] is False
    assert _check(cert, "classification_total")["passed"] is False
    assert cert["result"]["count"] == 211
    assert sum(cert["result"]["classification"].values()) == 210


# -- exit codes ------------------------------------------------------------------------------


def test_usage_error_exit_2(capsys):
    assert cli.main(["regulus", "--q", "2", "--lines", "not json"]) == 2
    assert cli.main(["regulus", "--q", "2", "--lines", "[[[1,0,0,0],[0,1,0,0]]]"]) == 2


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_verification_failure_exit_1(capsys):
    code, cert = _run(capsys, "verify-eigenfunction", "--space", "proj", "--n", "3", "--q", "2",
                      "--theta", "3", "--function", '{"0": "1"}')
    assert code == 1
    assert cert["result"]["ok"] is False
    assert cert["result"]["witness"]["vertex"] == 0


def test_function_zero_denominator_exit_2(capsys):
    """A value with a zero denominator used to end in a
    ZeroDivisionError traceback."""
    code, err = _usage_error(capsys, "verify-eigenfunction", "--q", "2", "--theta", "3",
                             "--function", '{"0": "1/0"}')
    assert code == 2
    assert "--function" in err and "1/0" in err


def test_function_repeated_key_exit_2(capsys):
    """A vertex named twice exits 2 naming --function and the key; json
    used to keep the last value and verify the function with support [7]."""
    code, err = _usage_error(capsys, "verify-eigenfunction", "--q", "2", "--theta", "3",
                             "--function", '{"7": "1", "7": "-1"}')
    assert code == 2
    assert "--function" in err and "'7'" in err


@pytest.mark.parametrize("key", ["x", "99", "-1", "35", " 3", "07", "٣", "9" * 5000])
def test_function_bad_vertex_exit_2(capsys, key):
    """A key that is not a vertex index 0..34 of PG(3,2), written in
    decimal, exits 2 naming --function; "x" and "99" used to print int()'s
    message or the range error without it, and "07" used to alias 7."""
    code, err = _usage_error(capsys, "verify-eigenfunction", "--q", "2", "--theta", "3",
                             "--function", json.dumps({key: "1"}))
    assert code == 2
    assert "--function" in err and repr(key) in err


@pytest.mark.parametrize("theta,values", [
    (10 ** 4000, {"0": "1"}),
    (3, {"0": f"1/{10 ** 4000}", "1": f"1/{3 ** 8000}"}),
])
def test_verify_eigenfunction_huge_values_keep_no_wide_table(capsys, theta, values):
    """Values whose packed fields would need thousands of bits are checked
    without building or keeping rows of that width on the cached graph."""
    code, cert = _run(capsys, "verify-eigenfunction", "--space", "proj", "--n", "3", "--q", "3",
                      "--theta", str(theta), "--function", json.dumps(values))
    assert code == 1
    witness = cert["result"]["witness"]
    assert witness["vertex"] == 0
    assert Fraction(witness["lhs"]) == theta * Fraction(values["0"])
    graph = cached_block_graph(projective_design(3, 3))
    kept = sum(r.bit_length() for rows in graph._packed.values() for r in rows)
    assert kept <= PACKED_TABLE_BITS


def test_construction_error_exit_1(capsys):
    # lines that pairwise meet cannot span a regulus
    bad = '[[[1,0,0,0],[0,1,0,0]],[[1,0,0,0],[0,0,1,0]],[[0,0,1,0],[0,0,0,1]]]'
    code, cert = _run(capsys, "regulus", "--q", "2", "--lines", bad)
    assert code == 1
    assert cert["checks"][0]["name"] == "no_errors"
    assert cert["checks"][0]["passed"] is False


def _usage_error(capsys, *argv):
    code = cli.main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def _refused(capsys, monkeypatch, *argv) -> str:
    """The stderr of a command line that argparse refuses: SystemExit(2),
    nothing on stdout and no work started."""
    _refuse_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--format", "json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


def test_negative_listing_limit_exit_2(capsys, monkeypatch):
    assert "--limit" in _refused(capsys, monkeypatch, "enumerate-reguli", "--q", "2", "--limit", "-1")


def test_negative_search_limit_exit_2(capsys, monkeypatch):
    err = _refused(capsys, monkeypatch, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                   "--theta", "-2", "--size", "4", "--limit", "-5")
    assert "--limit" in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_2(capsys, monkeypatch, jobs):
    err = _refused(capsys, monkeypatch, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                   "--theta", "-2", "--size", "4", "--jobs", jobs)
    assert "--jobs" in err


@pytest.mark.parametrize("argv,flag", [
    (("srg", "--jobs", "2"), "--jobs"),
    (("geometry", "--limit", "0"), "--limit"),
    (("cameron-liebler", "--n", "3", "--star", "0"), "--n 3"),
    (("balance", "--lines", REGULUS_LINES, "--star", "0", "--theta", "3"), "--theta"),
], ids=["srg-jobs", "geometry-limit", "cameron-liebler-n", "balance-theta"])
def test_option_the_command_does_not_take_exit_2(capsys, monkeypatch, argv, flag):
    """A command declares only the options it reads, so an option it
    would ignore, or whose one legal value is its default, is refused."""
    assert flag in _refused(capsys, monkeypatch, *argv)


def _args_read(tree: ast.Module, name: str) -> set[str]:
    """The ``args.X`` that the function ``name`` of cli.py reads, and
    those of the cli.py functions it passes ``args`` to."""
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == name)
    read = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
            read.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            read |= _args_read(tree, node.func.id)
    return read


def test_each_command_takes_only_the_options_it_reads():
    """Every option a command declares is read by its implementation (or,
    for --out and --format, by main), and every option it reads is
    declared."""
    tree = ast.parse(inspect.getsource(cli))
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(cli._COMMANDS)
    for command, parser in sub.choices.items():
        declared = {a.dest for a in parser._actions if a.dest != "help"}
        read = _args_read(tree, cli._COMMANDS[command].__name__) | {"out", "format"}
        assert declared == read, command


def test_function_not_an_object_exit_2(capsys):
    code, err = _usage_error(capsys, "verify-eigenfunction", "--space", "proj", "--n", "3", "--q", "2",
                             "--theta", "3", "--function", "[1]")
    assert code == 2
    assert "JSON object" in err


def _refuse_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("work started before the usage check")

    monkeypatch.setattr(cli, "_space_of", fail)


def test_enumerate_reguli_other_dimension_exit_2(capsys, monkeypatch):
    """The enumeration lists PG(3,q) only and takes no --n; --n 2 used to
    list PG(3,2) under a certificate that recorded n = 2."""
    assert "--n 2" in _refused(capsys, monkeypatch, "enumerate-reguli", "--n", "2", "--q", "2")


def test_enumerate_affine_reguli_other_dimension_exit_2(capsys, monkeypatch):
    """The enumeration lists AG(3,q) only and takes no --n; --n 4 used to
    fail its enumeration with exit code 1."""
    assert "--n 4" in _refused(capsys, monkeypatch, "enumerate-affine-reguli", "--n", "4", "--q", "2")


def test_refused_design_is_not_kept(capsys):
    """The affine design needs n >= 3; the memoised constructors keep no
    result of a refused call, so the same command line is refused again
    in the same process."""
    for _ in range(2):
        code, err = _usage_error(capsys, "srg", "--space", "aff", "--n", "2", "--q", "3")
        assert code == 2
        assert "affine design needs n >= 3" in err


@pytest.mark.parametrize("part", ["5", "[1.7, 2]", "[true]", '{"3": 1}', "[-1]", "[0,999]", "[1,1,2]"],
                         ids=["scalar", "float", "bool", "object", "negative-index", "index-too-large",
                              "duplicate-index"])
def test_part_not_a_list_of_integers_exit_2(capsys, part):
    """--part is a JSON list of distinct integer line indices in range,
    in each command that takes it; nothing else is coerced into one.  An
    index out of range used to fail deeper down, with a message that did
    not name --part, and a repeated index was taken as one line."""
    for argv in (("cameron-liebler", "--q", "2"),
                 ("balance", "--q", "2", "--lines", REGULUS_LINES),
                 ("equitable", "--space", "proj", "--n", "3", "--q", "2")):
        code, err = _usage_error(capsys, *argv, "--part", part)
        assert code == 2
        assert "--part" in err


@pytest.mark.parametrize("argv,flag", [
    (("wdbplus2", "--q", "2", "--lines", "5", "--hyperplane", "[1,0,1,1]"), "--lines"),
    (("balance", "--q", "2", "--lines", "5", "--star", "0"), "--lines"),
    (("regulus", "--q", "2", "--lines", "[[1,2],[3,4],[5,6]]"), "--lines"),
    (("regulus", "--q", "2", "--lines",
      "[[[1,0,0,0],[1,0,0,0]],[[0,0,1,0],[0,0,0,1]],[[1,0,1,0],[0,1,0,1]]]"), "--lines"),
    (("affine-regulus", "--q", "2", "--vectors", "[[1,0,0],[0,1,0],5]"), "--vectors"),
    (("affine-regulus", "--q", "2", "--vectors", "[[1,0],[0,1],[1,1]]"), "--vectors"),
    (("affine-regulus", "--q", "2", "--vectors", "[[1,0,0],[0,1,0]]"), "--vectors"),
    (("regulus", "--q", "2", "--lines",
      "[[[1,0,0,0]],[[0,0,1,0],[0,0,0,1]],[[1,0,1,0],[0,1,0,1]]]"), "--lines"),
    (("wdbplus2", "--q", "2", "--lines", REGULUS_LINES, "--hyperplane", "5"), "--hyperplane"),
    (("equitable", "--q", "2", "--plane", "5"), "--plane"),
    (("equitable", "--q", "2", "--plane", "[0,1]"), "--plane"),
    (("equitable", "--space", "aff", "--q", "2", "--plane", "[1,0,0]"), "--plane"),
    (("equitable", "--space", "aff", "--q", "2", "--direction", "5"), "--direction"),
    (("cameron-liebler", "--q", "2", "--direction", "[1,0,0,0]"), "--direction"),
    (("equitable", "--q", "2", "--star", '{"a":1}'), "--star"),
    (("equitable", "--q", "2", "--star", "99"), "--star"),
    (("equitable", "--q", "2", "--star", "-1"), "--star"),
    (("equitable", "--q", "2", "--star", "[0,0,0,0]"), "--star"),
], ids=["wdbplus2-lines-scalar", "balance-lines-scalar", "lines-rows-too-short", "lines-basis-rank-1",
        "vectors-scalar-entry", "vectors-too-short", "vectors-two", "lines-one-row",
        "hyperplane-scalar", "plane-scalar", "plane-too-short", "plane-in-affine-space",
        "direction-scalar", "direction-in-projective-space", "star-object",
        "star-index-too-large", "star-index-negative", "star-not-a-point"])
def test_malformed_cli_input_exit_2(capsys, argv, flag):
    """--lines is three lines; a vector option is a list of field
    elements of the space's length, or for --star also a point index in
    range.  Each of these used to end in a traceback, or (a short --plane
    or a negative --star index) in a certificate for some other input."""
    code, err = _usage_error(capsys, *argv)
    assert code == 2
    assert flag in err


def _search_cert(result: dict) -> dict:
    """A certificate of the AG(3,2) size-4 search with the given result."""
    parameters = {"mode": "branch-and-prune", "n": 3, "q": 2, "size": 4, "space": "aff", "theta": -2}
    return {"command": "search-support", "parameters": parameters, "result": result}


# a well-formed function entry of a search certificate
_FUNCTION = {"support": [0, 1], "values": [[0, "1"], [1, "-1"]], "structure": "CompleteBipartite"}


@pytest.mark.parametrize("prev", [
    [],
    "x",
    {"command": "search-support"},
    _search_cert({"functions": [], "families": []}),
    _search_cert({"checkpoint": {"done": [[0, 1]]}, "families": []}),
    _search_cert({"checkpoint": {"done": [5]}, "functions": [], "families": []}),
    _search_cert({"checkpoint": {"done": []}, "functions": [5], "families": []}),
    _search_cert({"checkpoint": {"done": []}, "functions": [_FUNCTION | {"values": [[0, "1", 2]]}],
                  "families": []}),
    _search_cert({"checkpoint": {"done": []}, "functions": [_FUNCTION | {"structure": 5}], "families": []}),
    _search_cert({"checkpoint": {"done": []}, "functions": [_FUNCTION], "families": [{"support": "0"}]}),
    _search_cert({"checkpoint": {"done": []}, "functions": [],
                  "families": [{"support": [0, 1], "dimension": 2, "basis": [5]}]}),
], ids=["list", "string", "no-result", "no-checkpoint", "no-functions", "prefix-not-a-list",
        "function-not-an-object", "value-not-a-pair", "structure-not-a-string", "support-not-a-list",
        "basis-entry-not-an-object"])
def test_resume_not_a_checkpoint_exit_2(tmp_path, capsys, prev):
    """--resume takes the certificate of an interrupted run of the same
    search.  A file whose top level is not an object used to end in a
    TypeError traceback, and one without result.checkpoint printed only
    "error: 'checkpoint'"."""
    path = tmp_path / "resume.json"
    path.write_text(json.dumps(prev))
    code, err = _usage_error(capsys, *AG32_SIZE4, "--resume", str(path))
    assert code == 2
    assert "--resume" in err


def test_cameron_liebler_other_dimension_exit_2(capsys, monkeypatch):
    """The check works in PG(3,q) only and takes no --n; --n 4 used to
    compute on PG(3,q) under a certificate that recorded n = 4."""
    assert "--n 4" in _refused(capsys, monkeypatch, "cameron-liebler", "--n", "4", "--q", "2", "--star", "0")


# -- search with checkpointing -----------------------------------------------------------------


def test_search_complete_run(capsys):
    code, cert = _run(capsys, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                      "--theta", "-2", "--size", "4")
    assert code == 0
    r = cert["result"]
    assert r["complete"] is True
    assert len(r["functions"]) == 210
    assert r["census"] == {"CompleteBipartite": 210}
    assert "computational finding" in r["census_note"]
    assert len(r["lines"]) == 28
    supports = [f["support"] for f in r["functions"]]
    assert supports == sorted(supports)
    assert len({tuple(s) for s in supports}) == 210


def test_search_limit_and_resume(tmp_path, capsys):
    part_file = tmp_path / "partial.json"
    code = cli.main(["search-support", "--space", "aff", "--n", "3", "--q", "2",
                     "--theta", "-2", "--size", "4", "--limit", "2000",
                     "--out", str(part_file), "--format", "json"])
    capsys.readouterr()
    assert code == 3
    partial = json.loads(part_file.read_text())
    assert partial["result"]["complete"] is False
    assert partial["result"]["checkpoint"]["done"]
    code, resumed = _run(capsys, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                         "--theta", "-2", "--size", "4", "--resume", str(part_file))
    assert code == 0
    _, fresh = _run(capsys, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                    "--theta", "-2", "--size", "4")
    assert resumed["result"]["functions"] == fresh["result"]["functions"]
    assert resumed["result"]["census"] == fresh["result"]["census"]


AG32_SIZE4 = ("search-support", "--space", "aff", "--n", "3", "--q", "2", "--theta", "-2", "--size", "4")


def test_search_limit_equal_to_total_exits_0(capsys):
    """A budget of exactly the nodes a complete search visits is enough."""
    full = search_min_support(cached_block_graph(affine_design(3, 2)), -2, 4)
    code, cert = _run(capsys, *AG32_SIZE4, "--limit", str(full.nodes))
    assert code == 0
    assert cert["result"]["complete"] is True
    assert len(cert["result"]["functions"]) == 210


def test_search_jobs_keep_the_meaning_of_limit(tmp_path, capsys):
    """--limit is one budget counted in prefix order: --jobs 1 and 2 write
    the same partial result and checkpoint, and each checkpoint resumes
    to the full search under the other job count."""
    partial = {}
    for jobs in ("1", "2"):
        path = tmp_path / f"partial-{jobs}.json"
        code = cli.main([*AG32_SIZE4, "--limit", "2000", "--jobs", jobs,
                         "--out", str(path), "--format", "json"])
        capsys.readouterr()
        assert code == 3
        partial[jobs] = path
    results = [json.loads(partial[j].read_text())["result"] for j in ("1", "2")]
    assert json.dumps(results[0], sort_keys=True) == json.dumps(results[1], sort_keys=True)
    for jobs, other in (("1", "2"), ("2", "1")):
        code, cert = _run(capsys, *AG32_SIZE4, "--jobs", other, "--resume", str(partial[jobs]))
        assert code == 0
        assert cert["result"]["complete"] is True
        assert len(cert["result"]["functions"]) == 210


def test_search_resume_rejects_other_search(tmp_path, capsys):
    part_file = tmp_path / "partial.json"
    code = cli.main(["search-support", "--space", "aff", "--n", "3", "--q", "2",
                     "--theta", "-2", "--size", "6", "--limit", "20000",
                     "--out", str(part_file), "--format", "json"])
    capsys.readouterr()
    assert code == 3
    assert json.loads(part_file.read_text())["result"]["functions"]
    code = cli.main(["search-support", "--space", "aff", "--n", "3", "--q", "2",
                     "--theta", "4", "--size", "10", "--resume", str(part_file),
                     "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "different search" in captured.err


def test_search_resume_reverifies_prior_functions(tmp_path, capsys):
    part_file = tmp_path / "partial.json"
    cli.main(["search-support", "--space", "aff", "--n", "3", "--q", "2",
              "--theta", "-2", "--size", "4", "--limit", "2000",
              "--out", str(part_file), "--format", "json"])
    capsys.readouterr()
    partial = json.loads(part_file.read_text())
    partial["result"]["functions"][0]["values"][0][1] = "2"
    part_file.write_text(json.dumps(partial))
    code, cert = _run(capsys, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                      "--theta", "-2", "--size", "4", "--resume", str(part_file))
    assert code == 1
    verify = next(c for c in cert["checks"] if c["name"] == "all_new_functions_verify")
    assert verify["passed"] is False


def test_search_resume_zero_denominator_exit_2_before_search(tmp_path, capsys, monkeypatch):
    """A carried value with a zero denominator exits 2 naming --resume,
    and before any search work: the carried entries are rebuilt first.
    It used to end in a ZeroDivisionError traceback after the search."""
    part_file = tmp_path / "partial.json"
    cli.main([*AG32_SIZE4, "--limit", "2000", "--out", str(part_file), "--format", "json"])
    capsys.readouterr()
    partial = json.loads(part_file.read_text())
    partial["result"]["functions"][0]["values"][0][1] = "1/0"
    part_file.write_text(json.dumps(partial))

    def no_search(*args, **kwargs):
        raise AssertionError("the search started before the carried values were read")

    monkeypatch.setattr(cli.eigenfunctions, "search_min_support", no_search)
    code, err = _usage_error(capsys, *AG32_SIZE4, "--resume", str(part_file))
    assert code == 2
    assert "--resume" in err and "1/0" in err


@pytest.mark.parametrize("tamper, message", [
    (lambda values: [[u, "0"] for u, _ in values], "zero function"),
    (lambda values: [[99, values[0][1]], *values[1:]], "vertex 99"),
])
def test_search_resume_bad_entry_exit_2_before_search(tmp_path, capsys, monkeypatch, tamper, message):
    """A carried entry that is no function of the graph, all of whose
    values are zero or one of whose vertices is out of range, exits 2
    naming --resume, before any search work.  The zero function used to
    exit 1 with a failed no_errors check, and the vertex out of range to
    exit 2 without naming the option."""
    part_file = tmp_path / "partial.json"
    cli.main([*AG32_SIZE4, "--limit", "2000", "--out", str(part_file), "--format", "json"])
    capsys.readouterr()
    partial = json.loads(part_file.read_text())
    entry = partial["result"]["functions"][0]
    entry["values"] = tamper(entry["values"])
    part_file.write_text(json.dumps(partial))

    def no_search(*args, **kwargs):
        raise AssertionError("the search started before the carried values were read")

    monkeypatch.setattr(cli.eigenfunctions, "search_min_support", no_search)
    code, err = _usage_error(capsys, *AG32_SIZE4, "--resume", str(part_file))
    assert code == 2
    assert f"--resume {part_file}" in err and message in err


def test_search_resume_repeated_key_exit_2(tmp_path, capsys):
    """A --resume file whose object repeats a key exits 2 naming the file
    and the key, before any search work; json used to keep the last value."""
    part_file = tmp_path / "partial.json"
    cli.main([*AG32_SIZE4, "--limit", "2000", "--out", str(part_file), "--format", "json"])
    capsys.readouterr()
    text = part_file.read_text()
    assert text.startswith('{"checks":')
    part_file.write_text('{"command":"search-support",' + text[1:])
    code, err = _usage_error(capsys, *AG32_SIZE4, "--resume", str(part_file))
    assert code == 2
    assert str(part_file) in err and "'command'" in err


def test_search_resume_rerenders_prior_functions(tmp_path, capsys):
    """A carried function is rebuilt from its values and rendered again:
    its support and structure are not taken from the file.  A function
    with genuine values, support [0, 1, 2, 3] and structure "Nonsense"
    used to resume with exit 0 and a census counting "Nonsense"."""
    part_file = tmp_path / "partial.json"
    code = cli.main([*AG32_SIZE4, "--limit", "2000", "--out", str(part_file), "--format", "json"])
    capsys.readouterr()
    assert code == 3
    partial = json.loads(part_file.read_text())
    genuine = partial["result"]["functions"][0]
    partial["result"]["functions"][0] = genuine | {"support": [0, 1, 2, 3], "structure": "Nonsense"}
    part_file.write_text(json.dumps(partial))
    code, cert = _run(capsys, *AG32_SIZE4, "--resume", str(part_file))
    assert code == 1
    assert _check(cert, "all_new_functions_verify")["passed"] is False
    assert cert["result"]["census"] == {"CompleteBipartite": 210}
    assert genuine in cert["result"]["functions"]


def test_search_resume_reverifies_prior_families(tmp_path, capsys):
    """The families a --resume file carries over are checked again: each
    basis function verifies, the dimension is the basis size and the
    basis supports cover the support.  A family with a basis value
    changed and its dimension set to 5 used to resume with every check
    passing and exit 0."""
    size6 = (*AG32_SIZE4[:-1], "6")
    part_file = tmp_path / "partial.json"
    code = cli.main([*size6, "--limit", "400000", "--out", str(part_file), "--format", "json"])
    capsys.readouterr()
    text = part_file.read_text()
    assert code == 3 and json.loads(text)["result"]["families"]

    def resume(**edit):
        """Resume with the first family's fields replaced by ``edit``."""
        partial = json.loads(text)
        partial["result"]["families"][0].update(edit)
        part_file.write_text(json.dumps(partial))
        code, cert = _run(capsys, *size6, "--resume", str(part_file))
        return code, next(c["passed"] for c in cert["checks"] if c["name"] == "all_new_functions_verify")

    family = json.loads(text)["result"]["families"][0]
    basis = family["basis"]
    basis[0]["values"][0][1] = "7"
    assert resume() == (0, True)
    assert resume(basis=basis) == (1, False)
    assert resume(dimension=5) == (1, False)
    assert resume(support=family["support"][:-1] + [family["support"][-1] + 1]) == (1, False)


def _forbid_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started before the --resume file was checked")

    monkeypatch.setattr(cli.eigenfunctions, "_Search", no_search)


@pytest.fixture(scope="module")
def search_certs(tmp_path_factory):
    """The certificates of the complete AG(3,2) size-4 search (theta -2)
    and of its size-4 and size-6 searches cut by --limit."""
    runs = {"full4": AG32_SIZE4, "cut4": (*AG32_SIZE4, "--limit", "2000"),
            "cut6": (*AG32_SIZE4[:-1], "6", "--limit", "400000")}
    certs = {}
    for name, argv in runs.items():
        path = tmp_path_factory.mktemp("search") / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([*argv, "--out", str(path)])
        certs[name] = json.loads(path.read_text())
    return certs


@pytest.mark.parametrize("case", ["undone-prefix", "other-size", "family-other-size", "repeated-function",
                                  "repeated-family"])
def test_search_resume_refuses_what_the_search_cannot_have_found(tmp_path, capsys, monkeypatch, search_certs,
                                                                 case):
    """A search finds each support once, of --size, below a done prefix,
    so a --resume file carrying any other support exits 2 naming
    --resume, before any search.  A ray of an undone prefix added to a
    checkpoint used to be listed with the 210 rays the search finds (211
    in all), and a support-4 function carried into a size-6 search was
    listed among its rays, both with exit 0."""
    size6 = "family" in case or case == "other-size"
    prev = json.loads(json.dumps(search_certs["cut6" if size6 else "cut4"]))
    result = prev["result"]
    done = {tuple(p) for p in result["checkpoint"]["done"]}
    if case == "undone-prefix":
        result["functions"].append(next(
            e for e in search_certs["full4"]["result"]["functions"] if tuple(e["support"][:2]) not in done
        ))
    elif case == "other-size":
        result["functions"].append(next(
            e for e in search_certs["cut4"]["result"]["functions"] if tuple(e["support"][:2]) in done
        ))
    elif case == "family-other-size":
        support = result["families"][0]["support"]
        support.append(support[-1] + 1)
    else:
        entries = result["functions" if case == "repeated-function" else "families"]
        entries.append(entries[-1])
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(prev))
    _forbid_search(monkeypatch)
    code, err = _usage_error(capsys, *AG32_SIZE4[:-1], "6" if size6 else "4", "--resume", str(path))
    assert code == 2
    assert f"--resume {path}" in err and "cannot have found" in err


@pytest.mark.parametrize("size, prefix", [
    (4, [0, 26]), (4, [5, 2]), (4, [3, 3]), (4, [-1, 3]), (4, [7]), (4, [0, 1, 2]), (4, "repeated"),
    (1, [28]), (1, [-1]), (1, [0, 1]),
], ids=["second-past-the-last", "descending", "equal", "negative", "one-vertex", "three-vertices", "repeated",
        "size1-past-the-last", "size1-negative", "size1-pair"])
def test_search_resume_refuses_a_done_prefix_the_search_does_not_have(tmp_path, capsys, monkeypatch, search_certs,
                                                                     size, prefix):
    """A done prefix is one the search splits its work by, listed once:
    [v0] with 0 <= v0 < v at size 1, else [v0, v1] with 0 <= v0 < v1 <=
    v - size + 1 (here v = 28).  [0, 999], [5, 2] and [7] added to the
    checkpoint of a cut size-4 search used to be accepted, reported among
    "10 prefixes done" and copied into the new checkpoint."""
    if size == 4:
        prev = json.loads(json.dumps(search_certs["cut4"]))
        done = prev["result"]["checkpoint"]["done"]
        done.append(done[0] if prefix == "repeated" else prefix)
    else:
        prev = _search_cert({"checkpoint": {"done": [prefix]}, "functions": [], "families": []})
        prev["parameters"]["size"] = 1
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(prev))
    _forbid_search(monkeypatch)
    code, err = _usage_error(capsys, *AG32_SIZE4[:-1], str(size), "--resume", str(path))
    assert code == 2
    assert f"--resume {path}" in err and "not a prefix of this search" in err


@pytest.mark.parametrize("size, done", [(4, [[0, 1], [24, 25]]), (1, [[0], [27]])], ids=["size4", "size1"])
def test_search_resume_accepts_the_first_and_last_prefixes(tmp_path, capsys, size, done):
    path = tmp_path / "partial.json"
    prev = _search_cert({"checkpoint": {"done": done}, "functions": [], "families": []})
    prev["parameters"]["size"] = size
    path.write_text(json.dumps(prev))
    code, cert = _run(capsys, *AG32_SIZE4[:-1], str(size), "--resume", str(path))
    assert code == 0
    assert cert["result"]["complete"] is True


def test_text_summary_of_a_cut_search_counts_its_done_prefixes(capsys):
    """The text summary lists a dict of listings one level down: the
    checkpoint of a cut search used to read "checkpoint: [1 entries]",
    counting its one key "done", whatever the number of done prefixes."""
    assert cli.main([*AG32_SIZE4, "--limit", "2000"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert "  checkpoint.done: [7 entries]" in lines
    assert "  functions: [18 entries]" in lines


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_search_resume_unreadable_exit_2(tmp_path, capsys, monkeypatch, where):
    """A --resume file that cannot be read exits 2, naming the path."""
    path = tmp_path / "missing.json" if where == "missing" else tmp_path
    _forbid_search(monkeypatch)
    code, err = _usage_error(capsys, *AG32_SIZE4, "--resume", str(path))
    assert code == 2
    assert f"--resume {path}" in err


def test_search_verifies_the_families_it_finds(capsys, monkeypatch):
    """all_new_functions_verify checks the basis of each family the run
    finds, as it does those a --resume file carries.  A family with a
    wrong basis vector from the search itself used to pass every check."""
    real = cli.eigenfunctions.search_min_support

    def wrong_basis(graph, theta, *args, **kwargs):
        res = real(graph, theta, *args, **kwargs)
        fam = res.families[0]
        f = fam.basis[0]
        u = f.support[0]
        bad = cli.eigenfunctions.Eigenfunction(graph, theta, f.values | {u: 2 * f.values[u]})
        return replace(res, families=(replace(fam, basis=(bad, *fam.basis[1:])), *res.families[1:]))

    monkeypatch.setattr(cli.eigenfunctions, "search_min_support", wrong_basis)
    code, cert = _run(capsys, *AG32_SIZE4[:-1], "6")
    assert code == 1
    assert _check(cert, "all_new_functions_verify")["passed"] is False
    assert _check(cert, "complete")["passed"] is True


def test_search_exhaustive_mode_agrees(capsys):
    _, a = _run(capsys, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                "--theta", "-2", "--size", "4", "--mode", "exhaustive")
    _, b = _run(capsys, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                "--theta", "-2", "--size", "4", "--mode", "branch-and-prune")
    assert a["result"]["functions"] == b["result"]["functions"]


# -- pinned result bytes --------------------------------------------------------------------------

# sha256 of the canonical JSON of each certificate's ``result``, recorded
# before the geometry/designs/cli deletion pass; a change here changes
# certificate bytes
PINNED_RESULTS = {
    "geometry-proj-3-2": (("geometry", "--space", "proj", "--n", "3", "--q", "2"),
                          "b07218bcc94f8691e802db4926964f237512d8534850540c2864e13afb40efbc"),
    "geometry-aff-3-2": (("geometry", "--space", "aff", "--n", "3", "--q", "2"),
                         "7836d8740cd83e7072763323d18ac767d54c444f87636c6fe5b66b03b7130183"),
    "geometry-aff-2-3": (("geometry", "--space", "aff", "--n", "2", "--q", "3"),
                         "7b95234d67469ed6b4948bd1f6dadf26af10cf9522031a02aa41cce1816f35e9"),
    "srg-proj-3-2": (("srg", "--space", "proj", "--n", "3", "--q", "2"),
                     "5ac0ef2c062411aa473e32c899c7f5b00a6b503e27058c3a5439cfc9700c6c18"),
    "srg-aff-3-3": (("srg", "--space", "aff", "--n", "3", "--q", "3"),
                    "c7ca160ce0101bc7354c22c28ddbdc49af5bd9208a1c94fef8c542969a868ced"),
    "wdb-proj-3-2": (("wdb", "--space", "proj", "--n", "3", "--q", "2"),
                     "b7ef98181247ba4635c9d676d3f204cc8ee0628509d0d0661b9159b77696df85"),
    "wdb-aff-3-3": (("wdb", "--space", "aff", "--n", "3", "--q", "3"),
                    "a0f8d5734835f77369df4ce65f10c61d3eaaf05ca2ab26b1360d563c03b37889"),
    "regulus": (("regulus", "--q", "2", "--lines", REGULUS_LINES),
                "29384cdd68bbb27ea1383801c1854325b1777b202a72e0ce1ddc54d3946c0550"),
    "affine-regulus": (("affine-regulus", "--q", "3", "--vectors", "[[1,0,0],[0,1,0],[0,0,1]]"),
                       "94df5bdc97a915e505c3384aa82545e8aa2f65d1a2a78001b263e5015d24a595"),
    "enumerate-reguli": (("enumerate-reguli", "--q", "2"),
                         "05a237ed5586c92dee24bd44125b7905139094067eb8bf873a15f7fc25201876"),
    "enumerate-affine-reguli": (("enumerate-affine-reguli", "--q", "2"),
                                "7b17b622b11ba84c89055a931f8722ebed447ab3bab22eb8f6c62065af33ce40"),
    "enumerate-reguli-q3": (("enumerate-reguli", "--q", "3"),
                            "d6a6db19348d21070ea3305d625d0292cbc9cb0c5492d44886bd9f0ee31f0d9c"),
    "enumerate-affine-reguli-q3": (("enumerate-affine-reguli", "--q", "3"),
                                   "32b09ca764d5e9553ad688fbb9a43d0205490fc88a876b6b904a07553736a190"),
    "enumerate-optimal-proj-3-2": (("enumerate-optimal", "--space", "proj", "--n", "3", "--q", "2"),
                                   "0989c5cfbac084d90db448387d7ed5eb6a2bb4861609d327be8f32cf19479d5e"),
    "enumerate-optimal-aff-3-2": (("enumerate-optimal", "--space", "aff", "--n", "3", "--q", "2"),
                                  "6adbe00f50a196753fd1ca0125a6e1094ae6dd0728a52e131ae4ab5501f0fb7d"),
    "verify-eigenfunction": (("verify-eigenfunction", "--space", "aff", "--n", "3", "--q", "2", "--theta", "-2",
                              "--function", '{"0": "1", "1": "1", "4": "-1", "5": "-1"}'),
                             "72dccdc133acb67cf6f0457e5ee0105f5500120b74fc7c5647370d4b4d721cfe"),
    "wdbplus2": (("wdbplus2", "--q", "2", "--lines", REGULUS_LINES, "--hyperplane", "[1,0,1,1]"),
                 "6a0cd0a6f6bb3dbf6217ca32fc4f61a21049893eb4b9b45b7af8a0dfd181c4cc"),
    "search-support": (("search-support", "--space", "aff", "--n", "3", "--q", "2", "--theta", "-2", "--size", "4"),
                       "5a23d4d43b9829ede76b128ded24b30ff0cc3979b909303ca23a2350b5649cf1"),
    "equitable": (("equitable", "--space", "proj", "--n", "3", "--q", "2", "--star", "0"),
                  "878d642e9099453721a427d38d765d20fd232dc26dddb5af0931095cc63a4a2c"),
    "balance": (("balance", "--q", "2", "--lines", REGULUS_LINES, "--star", "0"),
                "56b70f14f35218a91512dcb2340022f4e5c8e575a33a2bc5f6af26741dc13339"),
    "cameron-liebler": (("cameron-liebler", "--q", "2", "--star", "[1,0,0,0]"),
                        "0a734d485fc1d44cb1f5c42303d2d4e2952bcecf181b6a026ccce8bff12a2542"),
}


@pytest.mark.parametrize("name", sorted(PINNED_RESULTS))
def test_pinned_result_digest(capsys, name):
    argv, digest = PINNED_RESULTS[name]
    code, cert = _run(capsys, *argv)
    assert code == 0
    assert all(c["passed"] for c in cert["checks"])
    blob = json.dumps(cert["result"], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED_RESULTS))
def test_certificate_is_canonical_json(capsys, name):
    """Stdout is the compact, key-sorted encoding of the certificate it
    holds, byte for byte, listings of pre-encoded lines included."""
    argv, _ = PINNED_RESULTS[name]
    assert cli.main([*argv, "--format", "json"]) == 0
    text = capsys.readouterr().out.rstrip("\n")
    canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    # the first differing byte, not a diff of two long one-line texts,
    # found only on a failure: the q = 3 listings run to 6 MB
    if text != canonical:
        at = next((i for i, (a, b) in enumerate(zip(text, canonical)) if a != b), min(len(text), len(canonical)))
        pytest.fail(f"stdout leaves its canonical encoding at byte {at}: {text[max(at - 30, 0):at + 30]!r}")


@pytest.mark.parametrize("space", ["proj", "aff"])
def test_points_times_lines_limit_refuses_before_any_table(space, monkeypatch, capsys):
    """PG(2,41) has 1,723 points and as many lines, AG(2,41) 1,681
    points and 1,722 lines, past the points x lines limit: geometry exits
    3 from the closed-form counts, without building the point table
    (patched here to fail) or any table after it."""

    def no_table(self):
        raise AssertionError("a point table was built")

    monkeypatch.setattr(geometry.ProjSpace, "_point_table", no_table)
    monkeypatch.setattr(geometry.AffSpace, "_point_table", no_table)
    code = cli.main(["geometry", "--space", space, "--n", "2", "--q", "41"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"exceeds limit {geometry.MAX_INCIDENCES}" in captured.err


@pytest.mark.parametrize("q", ["257", "1000000007"])
def test_field_order_limit_exits_3_before_factoring(q, capsys):
    """An order above gf.MAX_ORDER is refused before it is factored, so
    even a large prime exits 3 at once."""
    start = time.monotonic()
    code = cli.main(["geometry", "--n", "2", "--q", q])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"field order {q} exceeds limit {gf.MAX_ORDER}" in captured.err
    assert time.monotonic() - start < 1
