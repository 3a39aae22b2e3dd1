"""Reguli of PG(3,q), affine reguli of AG(3,q), and hyperplane cuts.

Pinned counts:
  PG(3,2): 560 ordered regulus pairs (280 unordered)
  PG(3,3): 21060 ordered pairs
  AG(3,2): 336 ordered affine pairs,  q^4 (q^3-1)(q+1) = 336
  AG(3,3): 8424 ordered affine pairs, q^4 (q^3-1)(q+1) = 8424
  cutting any PG(3,2) regulus by the 15 planes: 9 affine, 6 wdbplus2
"""

from __future__ import annotations

import functools
import random

import pytest

from steinergraphs import reguli
from steinergraphs.errors import (
    DependentVectorsError,
    LinesNotSkewError,
    NotARegulusError,
    WrongCountError,
)
from steinergraphs.geometry import (
    aff_space,
    enumerate_planes,
    proj_space,
    relation,
    span_of_lines,
)
from steinergraphs.gf import field_make
from steinergraphs.linalg import row_basis
from steinergraphs.reguli import (
    _check_regulus_pair,
    affine_regulus_construct,
    classify_skew_family,
    common_transversals,
    enumerate_affine_reguli,
    enumerate_reguli,
    lift_to_projective,
    regulus_restriction,
    regulus_through,
)

STANDARD_TRIPLE = (
    ((1, 0, 0, 0), (0, 1, 0, 0)),
    ((0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 0, 1, 0), (0, 1, 0, 1)),
)


@functools.cache
def _reguli(q):
    """enumerate_reguli(PG(3,q)), run once for the tests that only read it."""
    return enumerate_reguli(proj_space(3, field_make(q)))


@functools.cache
def _affine_reguli(q):
    """enumerate_affine_reguli(AG(3,q)), run once for the tests that only read it."""
    return enumerate_affine_reguli(aff_space(3, field_make(q)))


def _proj_lines(sp, triples=STANDARD_TRIPLE):
    return tuple(sp.line_from_basis(b) for b in triples)


# -- transversals ---------------------------------------------------------------------


def test_common_transversals_count():
    sp = proj_space(3, field_make(2))
    l1, l2, l3 = _proj_lines(sp)
    trans = common_transversals(sp, (l1, l2, l3))
    assert len(trans) == sp.field.q + 1
    for t in trans:
        for l in (l1, l2, l3):
            assert relation(sp, t, l).kind == "meet"


# -- regulus through three skew lines ---------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_regulus_through_axioms(q):
    sp = proj_space(3, field_make(q) if q != 4 else field_make(2, 2))
    l1, l2, l3 = _proj_lines(sp)
    pair = regulus_through(sp, l1, l2, l3)
    assert len(pair.r_lines) == q + 1
    assert len(pair.opp_lines) == q + 1
    assert {l1, l2, l3} <= set(pair.r_lines)
    for i, a in enumerate(pair.r_lines):
        for b in pair.r_lines[i + 1 :]:
            assert relation(sp, a, b).kind == "skew"
        for b in pair.opp_lines:
            assert relation(sp, a, b).kind == "meet"
    # swap is an involution through the opposite family
    assert pair.swap().swap() == pair


def test_regulus_through_returns_the_enumerated_pair():
    """Any three lines of a family, in any order, give back the pair that
    enumerate_reguli lists: every pair of PG(3,2), and a seeded sample of
    PG(3,3)."""
    rng = random.Random(12)
    for q, pairs in ((2, _reguli(2)), (3, rng.sample(_reguli(3), 200))):
        sp = proj_space(3, field_make(q))
        for pair in pairs:
            three = rng.sample(pair.r_lines, 3)
            assert regulus_through(sp, *three) == pair


def test_regulus_through_rejects_meeting_lines():
    sp = proj_space(3, field_make(2))
    l1 = sp.line_from_basis(((1, 0, 0, 0), (0, 1, 0, 0)))
    l2 = sp.line_from_basis(((1, 0, 0, 0), (0, 0, 1, 0)))
    l3 = _proj_lines(sp)[1]
    with pytest.raises(LinesNotSkewError):
        regulus_through(sp, l1, l2, l3)


# -- malformed families raise named errors ------------------------------------------------


def _malformed_cases():
    """(space, family, opposite) for a valid projective and a valid
    affine regulus pair over GF(3)."""
    psp = proj_space(3, field_make(3))
    ppair = regulus_through(psp, *_proj_lines(psp))
    asp = aff_space(3, field_make(3))
    apair = affine_regulus_construct(asp, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    return [(psp, ppair.r_lines, ppair.opp_lines), (asp, apair.s_lines, apair.opp_lines)]


@pytest.mark.parametrize("case", [0, 1], ids=["projective", "affine"])
def test_pair_check_rejects_wrong_size(case):
    sp, fam, opp = _malformed_cases()[case]
    _check_regulus_pair(sp, fam, opp)
    with pytest.raises(WrongCountError):
        _check_regulus_pair(sp, fam[:-1], opp)
    with pytest.raises(WrongCountError):
        _check_regulus_pair(sp, fam, opp + opp[:1])


@pytest.mark.parametrize("q", [2, 3])
def test_pair_check_takes_the_size_from_the_space(q):
    """The one check wants q+1 lines per family in PG(3,q) and q in
    AG(3,q): q lines of each family of a projective pair, and the q+1
    affine lines per family left when a plane avoiding every line cuts a
    regulus, are the other space's size."""
    psp = proj_space(3, field_make(q))
    pair = regulus_through(psp, *_proj_lines(psp))
    with pytest.raises(WrongCountError, match=f"need {q + 1} lines"):
        _check_regulus_pair(psp, pair.r_lines[:-1], pair.opp_lines[:-1])
    cut = next(
        out.config for out in (regulus_restriction(pair, h) for h in psp.hyperplanes)
        if out.kind == "wdbplus2"
    )
    assert len(cut.r_lines) == len(cut.opp_lines) == q + 1
    with pytest.raises(WrongCountError, match=f"need {q} lines"):
        _check_regulus_pair(cut.space, cut.r_lines, cut.opp_lines)


@pytest.mark.parametrize("case", [0, 1], ids=["projective", "affine"])
def test_pair_check_rejects_repeated_grid_point(case, monkeypatch):
    sp, fam, opp = _malformed_cases()[case]
    # a repeated line repeats its whole row of grid points
    bad = fam[:1] + fam[:-1]
    with pytest.raises(LinesNotSkewError):
        _check_regulus_pair(sp, bad, opp)
    # the grid count catches it even without the pairwise skewness check
    monkeypatch.setattr("steinergraphs.reguli._require_skew", lambda space, lines: None)
    with pytest.raises(LinesNotSkewError, match="grid points must be distinct"):
        _check_regulus_pair(sp, bad, opp)


# -- the grid implies the span ----------------------------------------------------------
#
# The pair checks take no rank: two skew lines of one family span a 3-flat,
# and the grid puts every other line of both families into it.  These tests
# recompute the span independently with span_of_lines.


def _spans_a_solid(space, pairs) -> bool:
    return all(span_of_lines(space, p[0] + p[1]).dim == 3 for p in pairs)


@pytest.mark.parametrize("q", [2, 3])
def test_enumerated_reguli_span_a_solid(q):
    psp = proj_space(3, field_make(q))
    asp = aff_space(3, field_make(q))
    proj = [(p.r_lines, p.opp_lines) for p in _reguli(q)]
    aff = [(p.s_lines, p.opp_lines) for p in _affine_reguli(q)]
    if q == 3:
        rng = random.Random(11)
        proj, aff = rng.sample(proj, 300), rng.sample(aff, 300)
    assert _spans_a_solid(psp, proj)
    assert _spans_a_solid(asp, aff)


def test_grid_check_keeps_a_pair_in_its_solid():
    """In PG(4,2) a regulus pair lies in one of 31 solids; replacing a
    line of the family by a line skew to the rest but outside that solid
    breaks the grid, and the check says so."""
    sp = proj_space(4, field_make(2))
    basis = tuple(tuple(r) + (0,) for b in STANDARD_TRIPLE for r in b)
    pair = regulus_through(sp, *(sp.line_from_basis(basis[i : i + 2]) for i in (0, 2, 4)))
    _check_regulus_pair(sp, pair.r_lines, pair.opp_lines)
    assert _spans_a_solid(sp, [(pair.r_lines, pair.opp_lines)])
    solid = span_of_lines(sp, pair.r_lines)
    outside = next(
        ln for ln in sp.lines
        if span_of_lines(sp, (ln,) + pair.r_lines).dim == 4
        and not any(ln.mask & r.mask for r in pair.r_lines[1:])
    )
    assert solid.dim == 3
    with pytest.raises(LinesNotSkewError, match="do not meet in one point"):
        _check_regulus_pair(sp, (outside,) + pair.r_lines[1:], pair.opp_lines)


def test_enumerate_reguli_q2():
    sp = proj_space(3, field_make(2))
    pairs = enumerate_reguli(sp)
    assert len(pairs) == 560
    assert len({frozenset((p.r_lines, p.opp_lines)) for p in pairs}) == 280
    seen = set(pairs)
    assert all(p.swap() in seen for p in pairs)


def test_enumerate_reguli_checks_each_quadric_once(monkeypatch):
    calls = []
    real = reguli._check_regulus_pair
    monkeypatch.setattr(reguli, "_check_regulus_pair", lambda *args: calls.append(real(*args)))
    pairs = enumerate_reguli(proj_space(3, field_make(2)))
    assert len(pairs) == 560
    assert len(calls) == 280


@pytest.mark.parametrize("which", [0, -1], ids=["checked-orientation", "swapped-orientation"])
def test_enumerate_reguli_rejects_a_failing_quadric(which, monkeypatch):
    """The first listed pair is the orientation a quadric is checked in,
    the last the swap of a checked one; a check that rejects either
    quadric stops the enumeration."""
    sp = proj_space(3, field_make(2))
    target = enumerate_reguli(sp)[which]
    real = reguli._check_regulus_pair

    def check(space, r_lines, opp_lines):
        if {tuple(r_lines), tuple(opp_lines)} == {target.r_lines, target.opp_lines}:
            raise NotARegulusError("rejected quadric")
        real(space, r_lines, opp_lines)

    monkeypatch.setattr(reguli, "_check_regulus_pair", check)
    with pytest.raises(NotARegulusError, match="rejected quadric"):
        enumerate_reguli(sp)


def test_enumerate_reguli_q3_count():
    assert len(_reguli(3)) == 21060


# -- affine reguli ----------------------------------------------------------------------


@pytest.mark.parametrize("q,expected", [(2, 336), (3, 8424)])
def test_enumerate_affine_reguli_counts(q, expected):
    pairs = _affine_reguli(q)
    assert len(pairs) == expected
    assert expected == q ** 4 * (q ** 3 - 1) * (q + 1)
    seen = set(pairs)
    assert all(p.swap() in seen for p in pairs)


def test_affine_pair_relations():
    sp = aff_space(3, field_make(3))
    pair = _affine_reguli(3)[0]
    for i, a in enumerate(pair.s_lines):
        for b in pair.s_lines[i + 1 :]:
            assert relation(sp, a, b).kind == "skew"
        for b in pair.opp_lines:
            assert relation(sp, a, b).kind == "meet"


@pytest.mark.parametrize("q", [2, 3])
def test_lift_to_projective_one_line_at_infinity(q):
    pair = _affine_reguli(q)[0]
    lifted, cm = lift_to_projective(pair)
    pf = cm.pspace.field
    at_inf_r = [l for l in lifted.r_lines if cm.infinity.contains_line(pf, l)]
    at_inf_o = [l for l in lifted.opp_lines if cm.infinity.contains_line(pf, l)]
    assert len(at_inf_r) == 1 and len(at_inf_o) == 1
    back_s = {cm.line_to_aff(l) for l in lifted.r_lines if l not in at_inf_r}
    assert set(pair.s_lines) == back_s


def test_lift_rejects_a_corrupted_closure_table(monkeypatch):
    """The lift maps lines through the closure table: pointing one entry
    at the closure of a parallel line breaks the lifted regulus."""
    sp = aff_space(3, field_make(3))
    pair = affine_regulus_construct(sp, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    lift_to_projective(pair)
    cm = sp.closure
    line = pair.s_lines[0]
    parallel = next(l for l in sp.lines if l.dir == line.dir and l != line)
    table = list(cm.proj_index)
    table[sp.index_of(line)] = cm.proj_index[sp.index_of(parallel)]
    monkeypatch.setattr(cm, "proj_index", tuple(table))
    with pytest.raises(LinesNotSkewError):
        lift_to_projective(pair)


# -- the three-vector construction ------------------------------------------------------


@pytest.mark.parametrize("q,n", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_construct_from_independent_vectors(q, n):
    sp = aff_space(n, field_make(q))
    rng = random.Random(q * 100 + n)
    for _ in range(10):
        while True:
            vs = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(3)]
            if len(row_basis(sp.field, vs)) == 3:
                break
        pair = affine_regulus_construct(sp, *vs)
        assert len(pair.s_lines) == q and len(pair.opp_lines) == q
        for i, a in enumerate(pair.s_lines):
            for b in pair.s_lines[i + 1 :]:
                assert relation(sp, a, b).kind == "skew"
            for b in pair.opp_lines:
                assert relation(sp, a, b).kind == "meet"


def test_construct_rejects_dependent_vectors():
    sp = aff_space(3, field_make(2))
    with pytest.raises(DependentVectorsError):
        affine_regulus_construct(sp, (1, 0, 0), (0, 1, 0), (1, 1, 0))


def test_families_lie_in_parallel_planes():
    """Each family's directions span a plane direction and its lines sit
    in pairwise distinct cosets of it."""
    sp = aff_space(3, field_make(3))
    pair = affine_regulus_construct(sp, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for family in (pair.s_lines, pair.opp_lines):
        dirs = row_basis(sp.field, tuple(l.dir for l in family))
        assert len(dirs) == 2
        host_planes = set()
        for line in family:
            hosts = [
                pl
                for pl in enumerate_planes(sp)
                if line.mask & pl.mask == line.mask and pl.dirbasis == tuple(dirs)
            ]
            assert len(hosts) == 1
            host_planes.add(hosts[0])
        assert len(host_planes) == sp.field.q


# -- classification of skew families ----------------------------------------------------


def test_classify_two_opposites_over_gf2():
    sp = aff_space(3, field_make(2))
    pair = enumerate_affine_reguli(sp)[0]
    cls = classify_skew_family(sp, pair.s_lines)
    assert cls.case == 1
    assert len(cls.pairs) == 2  # a skew pair over GF(2) has exactly two opposites
    opposites = {p.opp_lines for p in cls.pairs}
    assert pair.opp_lines in opposites


def test_classify_case1_q3():
    sp = aff_space(3, field_make(3))
    pair = _affine_reguli(3)[0]
    cls = classify_skew_family(sp, pair.s_lines)
    assert cls.case == 1
    assert len(cls.pairs) == 1
    assert cls.pairs[0].opp_lines == pair.opp_lines


def test_classify_case2_q3():
    """Three pairwise skew lines whose directions span the whole space
    extend to no affine regulus."""
    sp = aff_space(3, field_make(3))
    l1 = sp.line_from_key((1, 0, 0), (0, 0, 0))
    l2 = sp.line_from_key((0, 1, 0), (0, 0, 1))
    l3 = sp.line_from_key((0, 0, 1), (1, 1, 0))
    for a, b in ((l1, l2), (l1, l3), (l2, l3)):
        assert relation(sp, a, b).kind == "skew"
    cls = classify_skew_family(sp, (l1, l2, l3))
    assert cls.case == 2
    assert cls.pairs == ()


def test_classify_wrong_count_rejected():
    sp = aff_space(3, field_make(3))
    pair = _affine_reguli(3)[0]
    with pytest.raises(WrongCountError):
        classify_skew_family(sp, pair.s_lines[:2])


# -- hyperplane cuts ---------------------------------------------------------------------


def test_restriction_census_q2():
    sp = proj_space(3, field_make(2))
    pair = regulus_through(sp, *_proj_lines(sp))
    kinds = {"affine_regulus": 0, "wdbplus2": 0, "not_restrictable": 0}
    for hyp in sp.hyperplanes:
        out = regulus_restriction(pair, hyp)
        kinds[out.kind] += 1
        if out.kind == "affine_regulus":
            assert len(out.pair.s_lines) == 2
        elif out.kind == "wdbplus2":
            assert len(out.config.r_lines) == 3
            assert len(out.config.opp_lines) == 3
    assert kinds == {"affine_regulus": 9, "wdbplus2": 6, "not_restrictable": 0}


def test_restriction_census_q3_single():
    sp = proj_space(3, field_make(3))
    l1 = sp.line_from_basis(((1, 0, 0, 0), (0, 1, 0, 0)))
    l2 = sp.line_from_basis(((0, 0, 1, 0), (0, 0, 0, 1)))
    l3 = sp.line_from_basis(((1, 0, 1, 0), (0, 1, 0, 1)))
    pair = regulus_through(sp, l1, l2, l3)
    kinds = {"affine_regulus": 0, "wdbplus2": 0, "not_restrictable": 0}
    for hyp in sp.hyperplanes:
        kinds[regulus_restriction(pair, hyp).kind] += 1
    # q^2+q+... : one tangent plane per quadric point, the rest avoid all lines
    assert kinds == {"affine_regulus": 16, "wdbplus2": 24, "not_restrictable": 0}


def test_restriction_roundtrip_with_classify():
    """Cutting a regulus by a tangent plane and classifying the affine
    part recovers the same opposite family."""
    sp = proj_space(3, field_make(3))
    pair = regulus_through(sp, *_proj_lines(sp))
    for hyp in sp.hyperplanes:
        out = regulus_restriction(pair, hyp)
        if out.kind != "affine_regulus":
            continue
        cls = classify_skew_family(out.pair.space, out.pair.s_lines)
        assert cls.case == 1
        assert cls.pairs[0].opp_lines == out.pair.opp_lines
        break
    else:
        pytest.fail("no tangent hyperplane found")
