"""Equitable 2-partitions, their quotient eigenfunctions, the balance
condition, and Cameron-Liebler line class checks.

Pinned quotients:
  star of a point in the PG(3,2) graph: ((6, 12), (3, 15)), theta = 3
  one parallel class in the AG(3,2) graph: ((0, 12), (2, 10)), theta = -2
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from steinergraphs import eigenfunctions, partitions
from steinergraphs.designs import Graph, srg_params_brute
from steinergraphs.eigenfunctions import Eigenfunction, VerifyResult, optimal_from_regulus, verify_eigenfunction
from steinergraphs.errors import NotAnEigenfunctionError, NotEquitableError, SteinerError
from steinergraphs.geometry import Hyperplane, normalize_point, proj_space
from steinergraphs.gf import field_make
from steinergraphs.partitions import (
    BalanceReport,
    CameronLieblerVerdict,
    Partition2,
    QuotientMatrix,
    balance_check,
    cameron_liebler_check,
    direction_class_line_set,
    partition_eigenvalue,
    partition_to_eigenfunction,
    plane_line_set,
    quotient_matrix,
    star_line_set,
)
from steinergraphs.reguli import enumerate_reguli, regulus_through


def _regulus_function(g):
    sp = g.design.space
    pair = regulus_through(
        sp,
        sp.line_from_basis(((1, 0, 0, 0), (0, 1, 0, 0))),
        sp.line_from_basis(((0, 0, 1, 0), (0, 0, 0, 1))),
        sp.line_from_basis(((1, 0, 1, 0), (0, 1, 0, 1))),
    )
    return optimal_from_regulus(pair, g)


# -- Partition2 and QuotientMatrix -----------------------------------------------------


def test_partition_validation(g_j2):
    with pytest.raises(ValueError):
        Partition2((), tuple(range(35)))
    with pytest.raises(ValueError):
        Partition2((0, 1), (1, 2))
    p = Partition2.from_part(g_j2, (2, 0, 1))
    assert p.v1 == (0, 1, 2)
    assert len(p.v2) == 32


def test_quotient_matrix_invariants():
    q = QuotientMatrix(6, 12, 3, 15)
    assert partition_eigenvalue(q) == 3
    assert not q.is_principal
    assert q.rows() == ((6, 12), (3, 15))
    with pytest.raises(SteinerError, match="p11 - p21"):
        partition_eigenvalue(QuotientMatrix(6, 12, 3, 14))
    with pytest.raises(ValueError):
        QuotientMatrix(-1, 2, 3, 4)


def test_star_quotient_pinned(g_j2):
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    q = quotient_matrix(g_j2, part)
    assert q.rows() == ((6, 12), (3, 15))
    assert partition_eigenvalue(q) == 3


def test_direction_class_quotient_pinned(g_x2):
    sp = g_x2.design.space
    part = Partition2.from_part(g_x2, direction_class_line_set(sp, (1, 0, 0)))
    q = quotient_matrix(g_x2, part)
    assert q.rows() == ((0, 12), (2, 10))
    assert partition_eigenvalue(q) == -2


def test_not_equitable_witness(g_j2):
    part = Partition2.from_part(g_j2, (0,))
    with pytest.raises(NotEquitableError) as exc:
        quotient_matrix(g_j2, part)
    part_index, (u0, c0), (u1, c1) = exc.value.witness
    assert part_index in (1, 2)
    assert c0 != c1
    assert u0 != u1


def test_quotient_covering_checked(g_j2):
    with pytest.raises(ValueError):
        quotient_matrix(g_j2, Partition2((0, 1), (2, 3)))


# -- partition <-> eigenfunction --------------------------------------------------------


def test_partition_to_eigenfunction_star(g_j2):
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    f = partition_to_eigenfunction(g_j2, part)
    assert f.theta == 3
    assert f.value(part.v1[0]) == 4
    assert f.value(part.v2[0]) == -1
    assert verify_eigenfunction(f).ok


def test_partition_to_eigenfunction_direction(g_x2):
    sp = g_x2.design.space
    part = Partition2.from_part(g_x2, direction_class_line_set(sp, (1, 0, 0)))
    f = partition_to_eigenfunction(g_x2, part)
    assert f.theta == -2
    assert f.value(part.v1[0]) == 6
    assert f.value(part.v2[0]) == -1


@pytest.mark.parametrize(
    "quotient,theta",
    [(QuotientMatrix(6, 12, 3, 15), 4), (QuotientMatrix(6, 12, 3, 16), 3)],
    ids=["first_row", "second_row"],
)
def test_partition_to_eigenfunction_checks_quotient_eigenvector(g_j2, monkeypatch, quotient, theta):
    """Each row of the quotient eigenvector equation is checked, also
    under python -O."""
    monkeypatch.setattr(partitions, "quotient_matrix", lambda g, p: quotient)
    monkeypatch.setattr(partitions, "partition_eigenvalue", lambda q: theta)
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    with pytest.raises(SteinerError, match="-eigenvector of"):
        partition_to_eigenfunction(g_j2, part)


def test_partition_to_eigenfunction_checks_eigenvalue_equation(g_j2, monkeypatch):
    witness = (0, Fraction(12), Fraction(11))
    monkeypatch.setattr(eigenfunctions, "verify_eigenfunction", lambda f: VerifyResult(False, witness))
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    with pytest.raises(NotAnEigenfunctionError) as exc:
        partition_to_eigenfunction(g_j2, part)
    assert exc.value.witness == witness


def test_principal_partition_rejected():
    # two disjoint edges: the split by component is equitable but
    # principal, so no two-valued eigenfunction arises
    g = Graph((0b0010, 0b0001, 0b1000, 0b0100))
    part = Partition2.from_part(g, (0, 1))
    q = quotient_matrix(g, part)
    assert q.is_principal
    with pytest.raises(SteinerError, match="principal partition"):
        partition_to_eigenfunction(g, part)


# -- balance ------------------------------------------------------------------------------


def test_balance_on_star(g_j2):
    f1 = _regulus_function(g_j2)
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    report = balance_check(g_j2, f1, [f1], part, 3)
    assert report == BalanceReport(m_plus=1, m_minus=1, equal=True)


def test_balance_requires_sign_function(g_j2):
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    f = partition_to_eigenfunction(g_j2, part)  # values 4, -1
    with pytest.raises(SteinerError, match="are not within"):
        balance_check(g_j2, f, [f], part, 3)


def test_balance_eigenvalue_clash(g_j2):
    f1 = _regulus_function(g_j2)
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    with pytest.raises(SteinerError, match="clashes with"):
        balance_check(g_j2, f1, [f1], part, -3)


def test_balance_refuses_a_summand_that_fails_verification(g_j2):
    """Each summand is verified by eigenfunctions.verified: a summand
    with f1's values but eigenvalue 1 sums to f1 and avoids theta and k,
    and is refused with the witness of its failing vertex."""
    f1 = _regulus_function(g_j2)
    bad = Eigenfunction(g_j2, 1, f1.values)
    witness = verify_eigenfunction(bad).witness
    assert witness is not None
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    with pytest.raises(NotAnEigenfunctionError, match=f"vertex {witness[0]}:") as info:
        balance_check(g_j2, f1, [bad], part, 3)
    assert info.value.witness == witness


def test_balance_refuses_a_function_of_another_graph(g_j2, g_x2):
    """f1 and each summand must be functions on the given graph.  An
    optimal function of the AG(3,2) graph, checked on the PG(3,2) graph,
    used to be reported as failing its eigenvalue equation at vertex 0."""
    t0, t1 = eigenfunctions.enumerate_complete_bipartite(g_x2, 2)[0]
    f = eigenfunctions.from_bipartite_pair(g_x2, t0, t1, -2)
    own = _regulus_function(g_j2)
    twin = Eigenfunction(Graph(g_j2.adj), own.theta, own.values)
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    for f1, summands in ((f, [f]), (own, [twin])):
        with pytest.raises(ValueError, match="on the given graph"):
            balance_check(g_j2, f1, summands, part, 3)


def test_balance_bad_decomposition(g_j2):
    f1 = _regulus_function(g_j2)
    pairs = enumerate_reguli(g_j2.design.space)
    other = next(
        optimal_from_regulus(p, g_j2)
        for p in pairs
        if optimal_from_regulus(p, g_j2).support != f1.support
    )
    part = Partition2.from_part(g_j2, star_line_set(g_j2.design.space, 0))
    with pytest.raises(SteinerError, match="does not sum"):
        balance_check(g_j2, f1, [other], part, 3)


def test_balance_requires_equitable_at_theta(g_j2):
    f1 = _regulus_function(g_j2)
    part = Partition2.from_part(g_j2, (0, 1, 2))
    with pytest.raises(NotEquitableError):
        balance_check(g_j2, f1, [f1], part, 3)


# -- Cameron-Liebler ------------------------------------------------------------------------


def test_cl_star_is_class(g_j2):
    sp = g_j2.design.space
    v = cameron_liebler_check(sp, star_line_set(sp, 0))
    assert isinstance(v, CameronLieblerVerdict)
    assert v.is_cl_reguli and v.is_cl_equitable and v.agree
    assert v.quotient.rows() == ((6, 12), (3, 15))
    assert v.witness is None


def test_cl_plane_set_is_class():
    sp = proj_space(3, field_make(2))
    h = sp.hyperplanes[0]
    v = cameron_liebler_check(sp, plane_line_set(sp, h))
    assert v.is_cl_reguli and v.is_cl_equitable and v.agree


def test_cl_regulus_is_not_class(g_j2):
    sp = g_j2.design.space
    pair = enumerate_reguli(sp)[0]
    line_set = pair.r_ids
    v = cameron_liebler_check(sp, line_set)
    assert not v.is_cl_reguli and not v.is_cl_equitable and v.agree
    assert v.witness is not None  # a regulus meeting the set unevenly


def test_cl_union_and_complement(g_j2):
    sp = g_j2.design.space
    star = set(star_line_set(sp, sp.point_index[(0, 0, 0, 1)]))
    h = Hyperplane(normalize_point(sp.field, (0, 0, 0, 1)))  # point not on it
    plane = set(plane_line_set(sp, h))
    assert not star & plane
    v = cameron_liebler_check(sp, tuple(star | plane))
    assert v.is_cl_reguli and v.agree
    comp = tuple(set(range(35)) - star)
    v2 = cameron_liebler_check(sp, comp)
    assert v2.is_cl_reguli and v2.agree


def test_cl_rejects_the_graph_of_another_space(g_j2, g_x2):
    """The graph handed in must be the block graph of the space: with the
    AG(3,2) graph a PG(3,2) star raised a partition error and the first
    seven lines gave a verdict on the wrong graph."""
    sp = g_j2.design.space
    for line_set in (star_line_set(sp, 0), tuple(range(7))):
        with pytest.raises(ValueError, match="not the block graph"):
            cameron_liebler_check(sp, line_set, g_x2)
    assert cameron_liebler_check(sp, star_line_set(sp, 0), g_j2).agree


def test_cl_degenerate_sets():
    sp = proj_space(3, field_make(2))
    assert cameron_liebler_check(sp, ()).is_cl_reguli
    assert cameron_liebler_check(sp, tuple(range(35))).is_cl_reguli


def test_cl_methods_agree_on_random_sets(g_j2):
    sp = g_j2.design.space
    rng = random.Random(99)
    for _ in range(30):
        size = rng.randrange(1, 35)
        line_set = tuple(sorted(rng.sample(range(35), size)))
        v = cameron_liebler_check(sp, line_set)
        assert v.agree
