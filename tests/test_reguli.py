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
from itertools import combinations

import pytest

from steinergraphs import reguli
from steinergraphs.designs import affine_design, bit_indices, block_graph_of, cached_block_graph
from steinergraphs.eigenfunctions import enumerate_complete_bipartite
from steinergraphs.errors import (
    DependentVectorsError,
    LinesNotSkewError,
    NotARegulusError,
    WrongCountError,
)
from steinergraphs.geometry import (
    aff_space,
    enumerate_planes,
    parallel_classes,
    proj_space,
    span_of_lines,
)
from steinergraphs.gf import field_make
from steinergraphs.linalg import row_basis
from steinergraphs.reguli import (
    RegulusPair,
    _check_regulus_pair,
    _transversal_ids,
    affine_regulus_construct,
    classify_skew_family,
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


def _lines(space, ids):
    """The line objects of a family of line indices."""
    return [space.lines[t] for t in ids]


def _assert_regulus_grid(pair):
    """Lines of one family are skew (disjoint, and in AG not parallel);
    each meets each opposite line in one point."""
    sp = pair.space
    affine = hasattr(sp.lines[0], "dir")
    for fam in (pair.r_ids, pair.opp_ids):
        for a, b in combinations(_lines(sp, fam), 2):
            assert not a.mask & b.mask and not (affine and a.dir == b.dir)
    for a in _lines(sp, pair.r_ids):
        for b in _lines(sp, pair.opp_ids):
            assert (a.mask & b.mask).bit_count() == 1


# -- transversals ---------------------------------------------------------------------


def test_common_transversals_count():
    """The common transversals of three skew lines of PG(3,q): q+1 lines,
    as ascending indices, each meeting each of the three once; they are
    the opposite family of the regulus through the three."""
    for q in (2, 3):
        sp = proj_space(3, field_make(q))
        ids = [sp.index_of(l) for l in _proj_lines(sp)]
        trans = _transversal_ids(sp, ids[0], ids[1], ids[2:])
        assert len(trans) == q + 1 and list(trans) == sorted(trans)
        for t in trans:
            for i in ids:
                assert (sp.lines[t].mask & sp.lines[i].mask).bit_count() == 1
        assert regulus_through(sp, *_proj_lines(sp)).opp_ids == trans


def _transversals_by_point_pairs(space, a, b, rest=()):
    """Reference: the lines joining a point of line a to a point of line
    b, by pair_line, that meet every line of rest."""
    lines, pair_line = space.lines, space.pair_line
    ids = {pair_line[(min(p, p2), max(p, p2))] for p in lines[a].points for p2 in lines[b].points}
    return tuple(sorted(t for t in ids if all(lines[t].mask & lines[r].mask for r in rest)))


@pytest.mark.parametrize("make,n,q", [(proj_space, 3, 2), (proj_space, 3, 3), (aff_space, 3, 3), (aff_space, 4, 2)])
def test_meet_rows_and_skew_masks_match_point_masks(make, n, q):
    """The one meet table, the block graph's adjacency rows: lines i != j
    meet iff their point masks intersect, and the skew masks hold the
    lines that neither meet nor (in AG) are parallel."""
    sp = make(n, field_make(q))
    adj = block_graph_of(sp).adj
    skew = reguli._skew_masks(sp)
    for i, a in enumerate(sp.lines):
        for j, b in enumerate(sp.lines):
            meet = i != j and bool(a.mask & b.mask)
            parallel = make is aff_space and a.dir == b.dir
            assert adj[i] >> j & 1 == meet
            assert skew[i] >> j & 1 == (i != j and not meet and not parallel)


@pytest.mark.parametrize("make", [proj_space, aff_space])
@pytest.mark.parametrize("q", [2, 3])
def test_transversals_match_point_pair_reference(make, q):
    """Seeded property: the meet-row transversals of skew pairs and skew
    triples of PG(3,q) and AG(3,q) are the lines through their point
    pairs."""
    sp = make(3, field_make(q))
    skew = reguli._skew_masks(sp)
    rng = random.Random(1000 * q + len(sp.lines))
    triples = 0
    for _ in range(300):
        a = rng.randrange(len(sp.lines))
        b = rng.choice(bit_indices(skew[a]))
        assert _transversal_ids(sp, a, b) == _transversals_by_point_pairs(sp, a, b)
        third = bit_indices(skew[a] & skew[b])
        if third:
            c = (rng.choice(third),)
            assert _transversal_ids(sp, a, b, c) == _transversals_by_point_pairs(sp, a, b, c)
            triples += 1
    assert triples > 100


def test_enumerate_reguli_is_regulus_through_every_skew_triple():
    """The enumeration of PG(3,2) is the set of regulus_through over
    every pairwise skew triple, deduplicated and sorted."""
    sp = proj_space(3, field_make(2))
    lines = sp.lines
    found = {
        regulus_through(sp, a, b, c)
        for a, b, c in combinations(lines, 3)
        if not (a.mask & b.mask or a.mask & c.mask or b.mask & c.mask)
    }
    assert sorted(found, key=lambda p: (p.r_ids, p.opp_ids)) == list(enumerate_reguli(sp))


# -- the families are line indices ------------------------------------------------------


def _returned_families():
    """(label, space, family, opposite) for every family the library
    returns: both enumerations, regulus_through, lift_to_projective,
    affine_regulus_construct, classify_skew_family and both kinds of
    regulus_restriction."""
    out = [("enumerate_reguli", p.space, p.r_ids, p.opp_ids) for p in _reguli(2)]
    for q in (2, 3):
        out += [("enumerate_affine_reguli", p.space, p.r_ids, p.opp_ids) for p in _affine_reguli(q)]
    for q in (2, 3):
        sp = proj_space(3, field_make(q))
        pair = regulus_through(sp, *_proj_lines(sp))
        out.append(("regulus_through", sp, pair.r_ids, pair.opp_ids))
        for hyp in sp.hyperplanes:
            res = regulus_restriction(pair, hyp)
            cut = res.pair or res.config
            out.append((f"regulus_restriction {res.kind}", cut.space, cut.r_ids, cut.opp_ids))
    for q, n in ((2, 3), (3, 3), (3, 4)):
        sp = aff_space(n, field_make(q))
        e = [tuple(int(i == j) for j in range(n)) for i in range(3)]
        pair = affine_regulus_construct(sp, *e)
        out.append(("affine_regulus_construct", sp, pair.r_ids, pair.opp_ids))
        lifted = lift_to_projective(pair)
        out.append(("lift_to_projective", lifted.space, lifted.r_ids, lifted.opp_ids))
        for cp in classify_skew_family(sp, _lines(sp, pair.r_ids[: 2 if q == 2 else 3])).pairs:
            out.append(("classify_skew_family", sp, cp.r_ids, cp.opp_ids))
    return out


def test_families_are_ascending_line_indices():
    """Every family the library returns is an ascending tuple of in-range
    int line indices.  Every pair of families passes the grid check,
    except the cut by a plane avoiding every line, whose q+1 affine lines
    per family are pairwise disjoint and meet all opposite lines but one."""
    labels = set()
    for label, sp, fam, opp in _returned_families():
        labels.add(label)
        for family in (fam, opp):
            assert type(family) is tuple, label
            assert all(type(t) is int and 0 <= t < len(sp.lines) for t in family), label
            assert list(family) == sorted(set(family)), label
        if label.endswith("wdbplus2"):
            assert len(fam) == len(opp) == sp.field.q + 1
            fm, om = ([sp.lines[t].mask for t in f] for f in (fam, opp))
            assert all(not a & b for f in (fm, om) for a, b in combinations(f, 2))
            assert all(sum(bool(a & b) for b in om) == len(om) - 1 for a in fm)
        else:
            reguli._check_grid(sp, fam, opp)
    assert labels == {
        "enumerate_reguli", "enumerate_affine_reguli", "regulus_through", "lift_to_projective",
        "regulus_restriction affine_regulus", "regulus_restriction wdbplus2",
        "affine_regulus_construct", "classify_skew_family",
    }


def test_pairs_of_two_spaces_differ():
    """A PG(3,2) pair and an AG(3,3) pair with the same index tuples (both
    spaces have three lines per family) are different pairs."""
    pg = _reguli(2)[0]
    ag = RegulusPair(pg.r_ids, pg.opp_ids, aff_space(3, field_make(3)))
    assert pg != ag and ag != pg
    assert len({pg, ag}) == 2
    assert ag == RegulusPair(pg.r_ids, pg.opp_ids, aff_space(3, field_make(3)))


# -- regulus through three skew lines ---------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_regulus_through_axioms(q):
    sp = proj_space(3, field_make(q) if q != 4 else field_make(2, 2))
    l1, l2, l3 = _proj_lines(sp)
    pair = regulus_through(sp, l1, l2, l3)
    assert len(pair.r_ids) == q + 1
    assert len(pair.opp_ids) == q + 1
    assert {l1, l2, l3} <= set(_lines(sp, pair.r_ids))
    _assert_regulus_grid(pair)
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
            three = _lines(sp, rng.sample(pair.r_ids, 3))
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
    return [(psp, ppair.r_ids, ppair.opp_ids), (asp, apair.r_ids, apair.opp_ids)]


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
        _check_regulus_pair(psp, pair.r_ids[:-1], pair.opp_ids[:-1])
    cut = next(
        out.config for out in (regulus_restriction(pair, h) for h in psp.hyperplanes)
        if out.kind == "wdbplus2"
    )
    assert len(cut.r_ids) == len(cut.opp_ids) == q + 1
    with pytest.raises(WrongCountError, match=f"need {q} lines"):
        _check_regulus_pair(cut.space, cut.r_ids, cut.opp_ids)


@pytest.mark.parametrize("case", [0, 1], ids=["projective", "affine"])
def test_pair_check_rejects_repeated_grid_point(case):
    sp, fam, opp = _malformed_cases()[case]
    # a repeated line repeats its whole row of grid points, and the
    # masks of its family overlap
    bad = fam[:1] + fam[:-1]
    with pytest.raises(LinesNotSkewError, match="one family meet"):
        _check_regulus_pair(sp, bad, opp)


# -- one grid check for the three optimal types -------------------------------------------


@pytest.mark.parametrize("q,parallel", [(2, 42), (3, 234)])
def test_grid_check_finds_exactly_the_plane_class_pairs(q, parallel):
    """Every induced K_{q,q} of the AG(3,q) block graph is a grid, and
    _check_grid calls it parallel exactly when its two parts are
    parallel classes of one plane, by enumerate_planes and
    parallel_classes."""
    g = cached_block_graph(affine_design(3, q))
    sp = g.design.space
    class_pairs = {
        frozenset((c1, c2))
        for plane in enumerate_planes(sp)
        for c1, c2 in combinations(parallel_classes(plane), 2)
    }
    assert len(class_pairs) == parallel
    found = set()
    for t0, t1 in enumerate_complete_bipartite(g, q):
        if reguli._check_grid(sp, t0, t1):
            found.add(frozenset((t0, t1)))
        else:
            _check_regulus_pair(sp, t0, t1)
    assert found == class_pairs


@pytest.mark.parametrize("q", [2, 3])
def test_pair_check_rejects_parallel_classes(q):
    """Two parallel classes of one plane are a grid but not a regulus
    pair; in PG the grid check never reports parallel families."""
    sp = aff_space(3, field_make(q))
    plane = enumerate_planes(sp)[0]
    c1, c2 = parallel_classes(plane)[:2]
    assert reguli._check_grid(sp, c1, c2) is True
    with pytest.raises(LinesNotSkewError, match="parallel classes"):
        _check_regulus_pair(sp, c1, c2)
    pair = _reguli(q)[0]
    assert reguli._check_grid(pair.space, pair.r_ids, pair.opp_ids) is False


def test_pair_from_the_wrong_space_rejected():
    """lift_to_projective takes an affine pair and regulus_restriction a
    projective one; the other kind raises a SteinerError."""
    ppair, apair = _reguli(2)[0], _affine_reguli(2)[0]
    with pytest.raises(NotARegulusError, match="affine pair"):
        lift_to_projective(ppair)
    with pytest.raises(NotARegulusError, match="projective pair"):
        regulus_restriction(apair, ppair.space.hyperplanes[0])


# -- the grid implies the span ----------------------------------------------------------
#
# The pair checks take no rank: two skew lines of one family span a 3-flat,
# and the grid puts every other line of both families into it.  These tests
# recompute the span independently with span_of_lines.


def _spans_a_solid(space, pairs) -> bool:
    return all(span_of_lines(space, _lines(space, p[0] + p[1])).dim == 3 for p in pairs)


@pytest.mark.parametrize("q", [2, 3])
def test_enumerated_reguli_span_a_solid(q):
    psp = proj_space(3, field_make(q))
    asp = aff_space(3, field_make(q))
    proj = [(p.r_ids, p.opp_ids) for p in _reguli(q)]
    aff = [(p.r_ids, p.opp_ids) for p in _affine_reguli(q)]
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
    _check_regulus_pair(sp, pair.r_ids, pair.opp_ids)
    assert _spans_a_solid(sp, [(pair.r_ids, pair.opp_ids)])
    family = _lines(sp, pair.r_ids)
    solid = span_of_lines(sp, family)
    outside = next(
        t for t, ln in enumerate(sp.lines)
        if span_of_lines(sp, [ln] + family).dim == 4
        and not any(ln.mask & r.mask for r in family[1:])
    )
    assert solid.dim == 3
    with pytest.raises(LinesNotSkewError, match="do not meet in one point"):
        _check_regulus_pair(sp, (outside,) + pair.r_ids[1:], pair.opp_ids)


def test_enumerate_reguli_q2():
    sp = proj_space(3, field_make(2))
    pairs = enumerate_reguli(sp)
    assert len(pairs) == 560
    assert len({frozenset((p.r_ids, p.opp_ids)) for p in pairs}) == 280
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

    def check(space, r_ids, opp_ids):
        if {r_ids, opp_ids} == {target.r_ids, target.opp_ids}:
            raise NotARegulusError("rejected quadric")
        real(space, r_ids, opp_ids)

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
    _assert_regulus_grid(_affine_reguli(3)[0])


@pytest.mark.parametrize("q", [2, 3])
def test_lift_to_projective_one_line_at_infinity(q):
    pair = _affine_reguli(q)[0]
    lifted = lift_to_projective(pair)
    cm = pair.space.closure
    psp = lifted.space
    assert psp is cm.pspace
    for fam, lifted_fam in ((pair.r_ids, lifted.r_ids), (pair.opp_ids, lifted.opp_ids)):
        at_inf = [t for t in lifted_fam if cm.infinity.contains_line(psp.field, psp.lines[t])]
        assert len(at_inf) == 1
        assert sorted(cm.proj_index[t] for t in fam) == [t for t in lifted_fam if t not in at_inf]


def test_lift_rejects_a_corrupted_closure_table(monkeypatch):
    """The lift maps lines through the closure table: pointing one entry
    at the closure of a parallel line breaks the lifted regulus."""
    sp = aff_space(3, field_make(3))
    pair = affine_regulus_construct(sp, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    lift_to_projective(pair)
    cm = sp.closure
    line = pair.r_ids[0]
    parallel = next(t for t, l in enumerate(sp.lines) if l.dir == sp.lines[line].dir and t != line)
    table = list(cm.proj_index)
    table[line] = cm.proj_index[parallel]
    monkeypatch.setattr(cm, "proj_index", tuple(table))
    with pytest.raises(LinesNotSkewError):
        lift_to_projective(pair)


def test_lift_rejects_a_corrupted_infinity_table(monkeypatch):
    """The lift finds each line at infinity through the closure's point
    at infinity table and counts lines at infinity through its line
    mask: pointing one opposite line at another point at infinity, or
    dropping a line from the mask, is rejected."""
    sp = aff_space(3, field_make(3))
    pair = affine_regulus_construct(sp, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    lifted = lift_to_projective(pair)
    cm, psp = sp.closure, lifted.space
    # the line at infinity of S holds the points at infinity of S_opp
    at_inf = next(t for t in lifted.r_ids if cm.infinity.contains_line(psp.field, psp.lines[t]))
    table = list(cm.inf_point)
    table[pair.opp_ids[-1]] = next(p for p in sorted(table) if not psp.lines[at_inf].mask >> p & 1)
    monkeypatch.setattr(cm, "inf_point", tuple(table))
    with pytest.raises(NotARegulusError):
        lift_to_projective(pair)
    monkeypatch.undo()
    monkeypatch.setattr(cm, "inf_lines", cm.inf_lines & ~(1 << at_inf))
    with pytest.raises(WrongCountError):
        lift_to_projective(pair)


@pytest.mark.parametrize("q,quadrics", [(2, 168), (3, 4212)])
def test_affine_enumeration_checks_and_lifts_each_quadric_once(monkeypatch, q, quadrics):
    """Half of the ordered pairs: one affine grid check and one lift, with
    its one projective grid check, per quadric."""
    checks = {"AffSpace": 0, "ProjSpace": 0}
    lifts = []
    real_check, real_lift = reguli._check_regulus_pair, reguli.lift_to_projective

    def check(space, fam, opp):
        checks[type(space).__name__] += 1
        return real_check(space, fam, opp)

    def lift(pair):
        lifts.append(pair.r_ids)
        return real_lift(pair)

    monkeypatch.setattr(reguli, "_check_regulus_pair", check)
    monkeypatch.setattr(reguli, "lift_to_projective", lift)
    pairs = enumerate_affine_reguli(aff_space(3, field_make(q)))
    assert len(pairs) == 2 * quadrics
    assert checks == {"AffSpace": quadrics, "ProjSpace": quadrics}
    assert len(lifts) == quadrics


def test_affine_enumeration_lifts_match_lift_to_projective():
    """The enumeration lifts one orientation of each quadric, which covers
    the other: the lift of the swapped pair is the swap of the lift, and
    without its lines at infinity each lift gives back its pair, while
    the swapped lift does not."""
    for pair in _affine_reguli(3)[::97]:
        lifted = lift_to_projective(pair)
        assert lift_to_projective(pair.swap()) == lifted.swap()
        reguli._check_lift(pair, lifted)
        reguli._check_lift(pair.swap(), lifted.swap())
        with pytest.raises(NotARegulusError, match="not the affine pair"):
            reguli._check_lift(pair, lifted.swap())


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
        assert len(pair.r_ids) == q and len(pair.opp_ids) == q
        _assert_regulus_grid(pair)


def test_construct_rejects_dependent_vectors():
    sp = aff_space(3, field_make(2))
    with pytest.raises(DependentVectorsError):
        affine_regulus_construct(sp, (1, 0, 0), (0, 1, 0), (1, 1, 0))


def test_families_lie_in_parallel_planes():
    """Each family's directions span a plane direction and its lines sit
    in pairwise distinct cosets of it."""
    sp = aff_space(3, field_make(3))
    pair = affine_regulus_construct(sp, (1, 0, 0), (0, 1, 0), (0, 0, 1))
    for family in (_lines(sp, pair.r_ids), _lines(sp, pair.opp_ids)):
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
    cls = classify_skew_family(sp, _lines(sp, pair.r_ids))
    assert cls.case == 1
    assert len(cls.pairs) == 2  # a skew pair over GF(2) has exactly two opposites
    opposites = {p.opp_ids for p in cls.pairs}
    assert pair.opp_ids in opposites


def test_classify_case1_q3():
    sp = aff_space(3, field_make(3))
    pair = _affine_reguli(3)[0]
    cls = classify_skew_family(sp, _lines(sp, pair.r_ids))
    assert cls.case == 1
    assert cls.pairs == (pair,)


def test_classify_case2_q3():
    """Three pairwise skew lines whose directions span the whole space
    extend to no affine regulus."""
    sp = aff_space(3, field_make(3))
    l1 = sp.line_from_key((1, 0, 0), (0, 0, 0))
    l2 = sp.line_from_key((0, 1, 0), (0, 0, 1))
    l3 = sp.line_from_key((0, 0, 1), (1, 1, 0))
    for a, b in ((l1, l2), (l1, l3), (l2, l3)):
        assert not a.mask & b.mask and a.dir != b.dir
    cls = classify_skew_family(sp, (l1, l2, l3))
    assert cls.case == 2
    assert cls.pairs == ()


def test_classify_wrong_count_rejected():
    sp = aff_space(3, field_make(3))
    pair = _affine_reguli(3)[0]
    with pytest.raises(WrongCountError):
        classify_skew_family(sp, _lines(sp, pair.r_ids[:2]))


# -- hyperplane cuts ---------------------------------------------------------------------


def test_restriction_census_q2():
    sp = proj_space(3, field_make(2))
    pair = regulus_through(sp, *_proj_lines(sp))
    kinds = {"affine_regulus": 0, "wdbplus2": 0, "not_restrictable": 0}
    for hyp in sp.hyperplanes:
        out = regulus_restriction(pair, hyp)
        kinds[out.kind] += 1
        if out.kind == "affine_regulus":
            assert len(out.pair.r_ids) == 2
        elif out.kind == "wdbplus2":
            assert len(out.config.r_ids) == 3
            assert len(out.config.opp_ids) == 3
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
        asp = out.pair.space
        cls = classify_skew_family(asp, _lines(asp, out.pair.r_ids))
        assert cls.case == 1
        assert cls.pairs == (out.pair,)
        break
    else:
        pytest.fail("no tangent hyperplane found")
