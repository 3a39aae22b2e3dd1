"""Command-line interface: certificates, exit codes, caching, resume.

Certificates are the contract: schema "sv1", deterministic result
payload (timing lives outside it), named checks, and the documented
exit codes 0 / 1 / 2 / 3.
"""

from __future__ import annotations

import json

import pytest

from steinergraphs import cli

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


def test_blockgraph_and_srg(capsys):
    _, cert = _run(capsys, "blockgraph", "--space", "proj", "--n", "3", "--q", "2")
    assert cert["result"]["srg"] == {
        "v": 35, "k": 18, "lambda": 9, "mu": 9, "r": 3, "s": -3, "m_r": 14, "m_s": 20,
    }
    assert len(cert["result"]["checksum"]) == 64


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


# -- caching -------------------------------------------------------------------------------


def test_cache_roundtrip(tmp_path, capsys):
    args = ["blockgraph", "--space", "aff", "--n", "3", "--q", "2", "--cache", str(tmp_path)]
    _, fresh = _run(capsys, *args)
    assert (tmp_path / "blockgraph-aff-n3-q2.json").exists()
    _, cached = _run(capsys, *args)
    assert fresh["result"] == cached["result"]


def test_cache_checksum_detects_corruption(tmp_path, capsys):
    args = ["blockgraph", "--space", "aff", "--n", "3", "--q", "2", "--cache", str(tmp_path)]
    _run(capsys, *args)
    path = tmp_path / "blockgraph-aff-n3-q2.json"
    data = json.loads(path.read_text())
    data["adj"][0] ^= 1
    path.write_text(json.dumps(data))
    code, cert = _run(capsys, *args)
    assert code == 1
    assert not all(c["passed"] for c in cert["checks"])


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STEINER_CACHE", str(tmp_path))
    code, _ = _run(capsys, "srg", "--space", "aff", "--n", "3", "--q", "2")
    assert code == 0
    assert (tmp_path / "blockgraph-aff-n3-q2.json").exists()


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


def test_construction_error_exit_1(capsys):
    # lines that pairwise meet cannot span a regulus
    bad = '[[[1,0,0,0],[0,1,0,0]],[[1,0,0,0],[0,0,1,0]],[[0,0,1,0],[0,0,0,1]]]'
    code, cert = _run(capsys, "regulus", "--q", "2", "--lines", bad)
    assert code == 1
    assert cert["checks"][0]["name"] == "no_errors"
    assert cert["checks"][0]["passed"] is False


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
