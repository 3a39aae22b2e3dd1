"""Steiner systems from line geometries and their block graphs.

The strongly regular parameters of the four working graphs are pinned:
  PG(3,2) lines: (35, 18, 9, 9), spectrum {18, 3^14, (-3)^20}
  PG(3,3) lines: (130, 48, 20, 16), spectrum {48, 8^?, (-4)^?}
  AG(3,2) lines: (28, 12, 6, 4), spectrum {12, 4^7, (-2)^20}
  AG(3,3) lines: (117, 36, 15, 9), spectrum {36, 9^26, (-3)^90}
"""

from __future__ import annotations

import dataclasses

import pytest

from steinergraphs import designs
from steinergraphs.designs import (
    SrgParams,
    affine_design,
    bit_indices,
    block_graph,
    cached_block_graph,
    delsarte_check,
    projective_design,
    srg_params_brute,
    srg_params_formula,
    srg_spectrum,
    wdb,
)
from steinergraphs.errors import (
    InconsistentParametersError,
    IrrationalEigenvaluesError,
    NotAnEigenvalueError,
    NotStronglyRegularError,
    SymmetricDesignError,
)


# -- designs -----------------------------------------------------------------------


def test_design_parameters():
    d = projective_design(3, 2)
    assert (d.N, d.M) == (15, 3)
    assert len(d.blocks) == 35
    d = affine_design(3, 3)
    assert (d.N, d.M) == (27, 3)
    assert len(d.blocks) == 117


@pytest.mark.parametrize("make,n,q", [("proj", 3, 2), ("aff", 3, 2), ("aff", 3, 3)])
def test_design_pair_uniqueness(make, n, q):
    d = projective_design(n, q) if make == "proj" else affine_design(n, q)
    seen = set()
    for block in d.blocks:
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                pair = (block[i], block[j])
                assert pair not in seen
                seen.add(pair)
    assert len(seen) == d.N * (d.N - 1) // 2


def test_blocks_at_covers_every_point():
    d = affine_design(3, 2)
    for p in range(d.N):
        through = d.blocks_at[p]
        assert len(through) == (2 ** 3 - 1) // (2 - 1)
        for b in through:
            assert p in d.blocks[b]


# -- block graphs ---------------------------------------------------------------------


def test_block_graph_adjacency_is_intersection():
    d = projective_design(3, 2)
    g = block_graph(d)
    for i in range(g.v):
        for j in range(g.v):
            expect = i != j and bool(set(d.blocks[i]) & set(d.blocks[j]))
            assert g.is_edge(i, j) == expect


def test_cached_block_graph_identity():
    d = affine_design(3, 2)
    assert cached_block_graph(d) is cached_block_graph(d)


def test_graph_helpers(g_j2):
    assert g_j2.v == 35
    assert g_j2.k == 18
    assert g_j2.degree(0) == 18
    nbrs = bit_indices(g_j2.adj[0])
    assert len(nbrs) == 18
    assert all(g_j2.is_edge(0, w) for w in nbrs)
    assert list(bit_indices(0b1011)) == [0, 1, 3]


# -- strongly regular parameters ------------------------------------------------------


def test_srg_params_pinned(g_j2, g_j3, g_x2, g_x3):
    for g, expect in [
        (g_j2, (35, 18, 9, 9, 3, -3, 14, 20)),
        (g_x2, (28, 12, 6, 4, 4, -2, 7, 20)),
        (g_x3, (117, 36, 15, 9, 9, -3, 26, 90)),
        (g_j3, (130, 48, 20, 16, 8, -4, 39, 90)),
    ]:
        p = srg_params_brute(g)
        assert (p.v, p.k, p.lmbda, p.mu, p.r, p.s, p.m_r, p.m_s) == expect


def test_formula_matches_brute(g_j2, g_j3, g_x2, g_x3):
    for g in (g_j2, g_j3, g_x2, g_x3):
        d = g.design
        assert srg_params_formula(d.N, d.M) == srg_params_brute(g)


def test_multiplicities_sum(g_j2, g_x3):
    for g in (g_j2, g_x3):
        p = srg_params_brute(g)
        assert 1 + p.m_r + p.m_s == p.v
        assert g.k + p.m_r * p.r + p.m_s * p.s == 0  # trace of adjacency


def test_srg_spectrum_rejects_non_integral():
    with pytest.raises(IrrationalEigenvaluesError):
        srg_spectrum(5, 2, 0, 1)  # 5-cycle: irrational eigenvalues


@pytest.mark.parametrize(
    "field, match", [("r", "quadratic"), ("m_r", "multiplicities")], ids=["eigenvalues", "multiplicities"]
)
def test_srg_spectrum_identities_checked(monkeypatch, field, match):
    """The returned spectrum is checked against the SRG identities, also
    under python -O."""
    real = designs.SrgParams

    def skewed(*args):
        params = real(*args)
        return dataclasses.replace(params, **{field: getattr(params, field) + 1})

    monkeypatch.setattr(designs, "SrgParams", skewed)
    with pytest.raises(InconsistentParametersError, match=match):
        srg_spectrum(28, 12, 6, 4)


def test_block_graph_smallest_eigenvalue_checked(monkeypatch):
    real = designs.srg_spectrum
    monkeypatch.setattr(
        designs, "srg_spectrum", lambda *a: dataclasses.replace(real(*a), s=real(*a).s - 1)
    )
    with pytest.raises(InconsistentParametersError, match="-M"):
        srg_params_formula(8, 2)


def test_not_strongly_regular_detected():
    from steinergraphs.designs import Graph

    # path on 3 vertices is not regular
    adj = (0b010, 0b101, 0b010)
    with pytest.raises(NotStronglyRegularError):
        srg_params_brute(Graph(adj))


def test_symmetric_design_rejected():
    # Fano plane as a design has N = 7, M = 3, every two blocks meet:
    # the block graph is complete and the formulas must refuse it
    with pytest.raises(SymmetricDesignError):
        srg_params_formula(7, 3)


# -- weight distribution bound --------------------------------------------------------


def test_wdb_pinned_values(g_j2, g_x2, g_x3):
    pj = srg_params_brute(g_j2)
    assert wdb(pj, -3) == 6
    assert wdb(pj, 3) == 8
    px = srg_params_brute(g_x2)
    assert wdb(px, -2) == 4
    assert wdb(px, 4) == 10
    p3 = srg_params_brute(g_x3)
    assert wdb(p3, -3) == 6
    assert wdb(p3, 9) == 20


def test_wdb_closed_forms(g_j2, g_j3, g_x2, g_x3):
    for g in (g_j2, g_j3, g_x2, g_x3):
        p = srg_params_brute(g)
        assert wdb(p, p.s) == -2 * p.s
        assert wdb(p, p.r) == 2 * (p.r + 1)


def test_wdb_closed_form_checked(g_x2):
    """Parameters whose bound formula and closed form disagree raise."""
    skewed = dataclasses.replace(srg_params_brute(g_x2), k=16)
    with pytest.raises(InconsistentParametersError, match="closed form"):
        wdb(skewed, -2)


def test_wdb_rejects_non_eigenvalue(g_j2):
    p = srg_params_brute(g_j2)
    with pytest.raises(NotAnEigenvalueError):
        wdb(p, 5)


# -- Delsarte cliques ------------------------------------------------------------------


def test_delsarte_bound_met_by_pencils(g_j2, g_j3, g_x2, g_x3):
    for g, bound in [(g_j2, 7), (g_x2, 7), (g_x3, 13), (g_j3, 13)]:
        got, met = delsarte_check(g)
        assert got == bound
        assert met  # the lines through one point form a clique of that size
