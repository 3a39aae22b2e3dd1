"""Command-line interface: certificates, exit codes, resume.

Certificates are the contract: schema "sv1", deterministic result
payload (timing lives outside it), named checks that recompute what
they claim, the documented exit codes 0 / 1 / 2 / 3, and result bytes
pinned by sha256 for a fixed command list.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from dataclasses import replace

import pytest

from steinergraphs import cli, geometry
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


def test_out_file_written(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code = cli.main(["srg", "--space", "aff", "--n", "3", "--q", "2", "--out", str(path)])
    assert code == 0
    cert = json.loads(path.read_text())
    assert cert["result"]["brute"]["v"] == 28


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


def test_balance_command(capsys):
    code, cert = _run(capsys, "balance", "--q", "2", "--lines", REGULUS_LINES, "--star", "0")
    assert code == 0
    assert cert["result"]["m_plus"] == cert["result"]["m_minus"] == 1


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


def test_negative_listing_limit_exit_2(capsys):
    code, err = _usage_error(capsys, "enumerate-reguli", "--q", "2", "--limit", "-1")
    assert code == 2
    assert "--limit" in err


def test_negative_search_limit_exit_2(capsys):
    code, err = _usage_error(capsys, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                             "--theta", "-2", "--size", "4", "--limit", "-5")
    assert code == 2
    assert "--limit" in err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_exit_2(capsys, jobs):
    code, err = _usage_error(capsys, "search-support", "--space", "aff", "--n", "3", "--q", "2",
                             "--theta", "-2", "--size", "4", "--jobs", jobs)
    assert code == 2
    assert "--jobs" in err


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
    """The enumeration lists PG(3,q) only; --n 2 used to list PG(3,2)
    under a certificate that recorded n = 2."""
    _refuse_work(monkeypatch)
    code, err = _usage_error(capsys, "enumerate-reguli", "--n", "2", "--q", "2")
    assert code == 2
    assert "--n 2" in err


def test_enumerate_affine_reguli_other_dimension_exit_2(capsys, monkeypatch):
    """The enumeration lists AG(3,q) only; --n 4 used to fail its
    enumeration with exit code 1."""
    _refuse_work(monkeypatch)
    code, err = _usage_error(capsys, "enumerate-affine-reguli", "--n", "4", "--q", "2")
    assert code == 2
    assert "--n 4" in err


@pytest.mark.parametrize("part", ["5", "[1.7, 2]", "[true]", '{"3": 1}', "[-1]", "[0,999]"],
                         ids=["scalar", "float", "bool", "object", "negative-index", "index-too-large"])
def test_part_not_a_list_of_integers_exit_2(capsys, part):
    """--part is a JSON list of integer line indices in range, in each
    command that takes it; nothing else is coerced into one.  An index
    out of range used to fail deeper down, with a message that did not
    name --part."""
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
        "vectors-scalar-entry", "vectors-too-short",
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


def test_cameron_liebler_other_dimension_exit_2(capsys, monkeypatch):
    """The check works in PG(3,q) only; --n 4 used to compute on PG(3,q)
    under a certificate that recorded n = 4."""
    _refuse_work(monkeypatch)
    code, err = _usage_error(capsys, "cameron-liebler", "--n", "4", "--q", "2", "--star", "0")
    assert code == 2
    assert "--n 4" in err


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


@pytest.mark.parametrize("space", ["proj", "aff"])
def test_points_times_lines_limit_refuses_before_any_table(space, monkeypatch, capsys):
    """PG(2,257) and AG(2,257) have about 66,000 points and as many
    lines, past the points x lines limit: geometry exits 3 from the
    closed-form counts, without building the point table (patched here
    to fail) or any table after it."""

    def no_table(self):
        raise AssertionError("a point table was built")

    monkeypatch.setattr(geometry.ProjSpace, "_point_table", no_table)
    monkeypatch.setattr(geometry.AffSpace, "_point_table", no_table)
    code = cli.main(["geometry", "--space", space, "--n", "2", "--q", "257"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"exceeds limit {geometry.MAX_INCIDENCES}" in captured.err
