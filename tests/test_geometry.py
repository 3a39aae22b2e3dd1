"""Projective and affine point-line geometries.

Counts are pinned against the closed forms, incidence is checked as a
2-design (every point pair on exactly one line), and the closure /
restriction line tables must be mutually inverse and agree with a
plain point-by-point matrix map.
"""

from __future__ import annotations

import dataclasses

import pytest

from steinergraphs import geometry
from steinergraphs.errors import (
    DimensionMismatchError,
    EqualPointsError,
    IncidenceError,
    LineInHyperplaneError,
    SteinerError,
    WrongCountError,
)
from steinergraphs.geometry import (
    AffLine,
    Hyperplane,
    ProjLine,
    RestrictionMap,
    aff_space,
    dot,
    enumerate_planes,
    line_permutation,
    normalize_point,
    parallel_classes,
    proj_space,
    relation,
    span_of_lines,
    vec_add,
)
from steinergraphs.gf import field_make
from steinergraphs.linalg import rref

PROJ_CASES = [(2, 2), (3, 2), (3, 3), (2, 3), (3, 4), (4, 2)]
AFF_CASES = [(2, 2), (3, 2), (3, 3), (2, 3), (3, 4), (4, 2)]


def _field(q):
    p, k = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 8: (2, 3), 9: (3, 2)}[q]
    return field_make(p, k)


# -- counts ------------------------------------------------------------------------


@pytest.mark.parametrize("n,q", PROJ_CASES)
def test_projective_counts(n, q):
    sp = proj_space(n, _field(q))
    assert len(sp.points) == (q ** (n + 1) - 1) // (q - 1)
    expected_lines = (q ** (n + 1) - 1) * (q ** n - 1) // ((q ** 2 - 1) * (q - 1))
    assert len(sp.lines) == expected_lines
    assert all(len(l.points) == q + 1 for l in sp.lines)


@pytest.mark.parametrize("n,q", AFF_CASES)
def test_affine_counts(n, q):
    sp = aff_space(n, _field(q))
    assert len(sp.points) == q ** n
    assert len(sp.lines) == q ** (n - 1) * (q ** n - 1) // (q - 1)
    assert all(len(l.points) == q for l in sp.lines)


def test_hyperplane_count():
    sp = proj_space(3, _field(2))
    assert len(sp.hyperplanes) == 15
    sp3 = proj_space(3, _field(3))
    assert len(sp3.hyperplanes) == 40


# -- 2-design incidence ---------------------------------------------------------------


@pytest.mark.parametrize("make,n,q", [("proj", 3, 2), ("proj", 3, 3), ("aff", 3, 2), ("aff", 3, 3)])
def test_every_point_pair_on_exactly_one_line(make, n, q):
    f = _field(q)
    sp = proj_space(n, f) if make == "proj" else aff_space(n, f)
    npts = len(sp.points)
    seen = {}
    for li, line in enumerate(sp.lines):
        pts = line.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                key = (min(pts[i], pts[j]), max(pts[i], pts[j]))
                assert key not in seen, "point pair on two lines"
                seen[key] = li
    assert len(seen) == npts * (npts - 1) // 2
    assert seen == dict(sp.pair_line)


def test_line_through_matches_pair_line():
    sp = proj_space(3, _field(2))
    p1, p2 = sp.points[3], sp.points[11]
    line = sp.line_through(p1, p2)
    i1, i2 = sp.point_index[p1], sp.point_index[p2]
    assert sp.index_of(line) == sp.pair_line[(min(i1, i2), max(i1, i2))]
    with pytest.raises(EqualPointsError):
        sp.line_through(p1, p1)


# -- canonical forms ------------------------------------------------------------------


def test_projective_point_normalisation():
    f = _field(3)
    assert normalize_point(f, (0, 2, 1)) == (0, 1, 2)
    assert normalize_point(f, (2, 1, 0)) == (1, 2, 0)


def test_projective_line_basis_is_rref():
    sp = proj_space(3, _field(3))
    for line in sp.lines:
        echelon, rank, _ = rref(sp.field, line.basis)
        assert rank == 2
        assert echelon == line.basis


def test_affine_line_key_canonical():
    sp = aff_space(3, _field(3))
    for line in sp.lines:
        pts = line.point_coords()
        assert line.base == min(pts)
        # direction reconstructs the point set from the least point
        computed = {line.base}
        cur = line.base
        for _ in range(sp.field.q - 1):
            cur = vec_add(sp.field, cur, line.dir)
            computed.add(cur)
        assert computed == set(pts)


def test_line_from_basis_accepts_any_spanning_pair():
    sp = proj_space(3, _field(2))
    line = sp.lines[7]
    p, r = line.point_coords()[0], line.point_coords()[2]
    assert sp.line_from_basis((p, r)) is line


# -- relations -------------------------------------------------------------------------


def test_projective_relation_kinds():
    sp = proj_space(3, _field(2))
    counts = {"meet": 0, "skew": 0}
    l0 = sp.lines[0]
    for other in sp.lines[1:]:
        rel = relation(sp, l0, other)
        counts[rel.kind] += 1
        if rel.kind == "meet":
            assert rel.point in l0.point_coords() and rel.point in other.point_coords()
    assert counts == {"meet": 18, "skew": 16}  # degree 18 in the block graph


def test_affine_relation_kinds():
    sp = aff_space(3, _field(2))
    l0 = sp.lines[0]
    counts = {"meet": 0, "parallel": 0, "skew": 0}
    for other in sp.lines[1:]:
        counts[relation(sp, l0, other).kind] += 1
    assert counts == {"meet": 12, "parallel": 3, "skew": 12}


def test_relation_rejects_lines_sharing_two_points():
    sp = proj_space(3, _field(2))
    l0 = sp.lines[0]
    twin = dataclasses.replace(sp.lines[1], mask=l0.mask)
    with pytest.raises(IncidenceError):
        relation(sp, l0, twin)


def test_point_table_count_checked(monkeypatch):
    """Unnormalised points overfill the table, also under python -O."""
    f = _field(3)
    monkeypatch.setattr(f, "normalize_row", tuple)
    with pytest.raises(WrongCountError, match="points"):
        geometry.ProjSpace(2, f).points


def test_line_image_checked():
    """A point map that is not a collineation is caught line by line: a
    private PG(2,2) whose point index swaps two points after its line
    table is built maps the identity matrix to a transposition."""
    sp = geometry.ProjSpace(2, _field(2))
    assert line_permutation(sp, ((1, 0, 0), (0, 1, 0), (0, 0, 1))) == tuple(range(7))
    idx = sp.point_index
    a, b = sp.points[:2]
    idx[a], idx[b] = idx[b], idx[a]
    with pytest.raises(IncidenceError, match="not a line"):
        line_permutation(sp, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


# -- planes ---------------------------------------------------------------------------


def test_affine_plane_counts():
    assert len(enumerate_planes(aff_space(3, _field(2)))) == 14
    assert len(enumerate_planes(aff_space(3, _field(3)))) == 39


@pytest.mark.parametrize("q", [2, 3])
def test_parallel_classes_partition_plane(q):
    sp = aff_space(3, _field(q))
    for plane in enumerate_planes(sp)[:5]:
        classes = parallel_classes(plane)
        assert len(classes) == q + 1
        for cls in classes:
            assert len(cls) == q
            covered = [p for line in cls for p in line.points]
            assert sorted(covered) == sorted(plane.points)
            dirs = {line.dir for line in cls}
            assert len(dirs) == 1


def test_span_of_lines():
    sp = aff_space(3, _field(2))
    l0 = sp.lines[0]
    same = span_of_lines(sp, [l0])
    assert same.dim == 1
    parallel = next(l for l in sp.lines if relation(sp, l0, l).kind == "parallel")
    assert span_of_lines(sp, [l0, parallel]).dim == 2
    skew = next(l for l in sp.lines if relation(sp, l0, l).kind == "skew")
    assert span_of_lines(sp, [l0, skew]).dim == 3


# -- closure and restriction -----------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3])
def test_projective_closure_roundtrip(q):
    asp = aff_space(3, _field(q))
    cm = asp.closure
    psp = cm.pspace
    assert len(psp.points) == len(asp.points) + (q ** 3 - 1) // (q - 1)
    infinite = set()
    for line in asp.lines:
        pline = cm.line_to_proj(line)
        assert isinstance(pline, ProjLine)
        assert cm.line_to_aff(pline) is line
        # the closure holds the points (1 : x) of the line and its point at infinity
        finite = {psp.point_index[(1,) + p] for p in line.point_coords()}
        assert set(pline.points) == finite | {psp.point_index[cm.infinite_point(line)]}
        infinite.add(cm.infinite_point(line))
    # the points at infinity of affine lines are exactly the removed plane
    assert len(infinite) == (q ** 3 - 1) // (q - 1)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (2, 3)])
def test_closure_line_table(n, q):
    """The closure table holds, for every affine line, the projective
    line through (1 : base) and (0 : dir); line_to_aff inverts it and
    rejects the lines at infinity.  The map is kept on its space."""
    asp = aff_space(n, _field(q))
    cm = asp.closure
    assert asp.closure is cm
    psp = cm.pspace
    for i, line in enumerate(asp.lines):
        pline = psp.line_from_basis(((1,) + line.base, (0,) + line.dir))
        assert psp.lines[cm.proj_index[i]] is pline
        assert cm.line_to_proj(line) is pline
        assert cm.line_to_aff(pline) is line
    at_inf = [l for l in psp.lines if cm.infinity.contains_line(psp.field, l)]
    assert len(at_inf) + len(asp.lines) == len(psp.lines)
    for pline in at_inf:
        with pytest.raises(LineInHyperplaneError):
            cm.line_to_aff(pline)


@pytest.mark.parametrize("q", [2, 3])
def test_affine_restriction_roundtrip(q):
    psp = proj_space(3, _field(q))
    for hyp in psp.hyperplanes[:4]:
        rm = RestrictionMap(psp, hyp)
        f = psp.field
        for pline in psp.lines:
            if hyp.contains_line(f, pline):
                with pytest.raises(LineInHyperplaneError):
                    rm.line_to_aff(pline)
                continue
            aline = rm.line_to_aff(pline)
            assert isinstance(aline, AffLine)
            assert rm.line_to_proj(aline) is pline


def _image(f, matrix, vec):
    """The normalised row vector vec M, entry by entry with the checked
    scalar operations: the reference point map of a basis change."""
    out = []
    for j in range(len(matrix[0])):
        acc = 0
        for i, x in enumerate(vec):
            acc = f.add(acc, f.mul(x, matrix[i][j]))
        out.append(acc)
    lead = next(x for x in out if x)
    return tuple(f.mul(f.inv(lead), x) for x in out)


@pytest.mark.parametrize("n,q", [(3, 2), (3, 3), (4, 2)])
def test_restriction_table_matches_pointwise_map(n, q):
    """For every hyperplane H, each affine line maps to the projective
    line holding the images (1 : x) M of its points plus one point of H,
    line_to_aff inverts that, and exactly the lines inside H are left."""
    psp = proj_space(n, _field(q))
    f, idx = psp.field, psp.point_index
    asp = aff_space(n, f)
    for hyp in psp.hyperplanes:
        rm = RestrictionMap(psp, hyp)
        on_h = {i for i, p in enumerate(psp.points) if hyp.contains_point(f, p)}
        hit = set()
        for aline in asp.lines:
            image = {idx[_image(f, rm.matrix, (1,) + p)] for p in aline.point_coords()}
            pline = rm.line_to_proj(aline)
            rest = set(pline.points) - image
            assert len(image) == q and image < set(pline.points)
            assert len(rest) == 1 and rest <= on_h
            assert rm.line_to_aff(pline) is aline
            hit.add(pline)
        assert len(hit) == len(asp.lines)
        for pline in psp.lines:
            if pline not in hit:
                assert set(pline.points) <= on_h
                with pytest.raises(LineInHyperplaneError):
                    rm.line_to_aff(pline)


def test_line_permutation_matches_pointwise_map():
    psp = proj_space(3, _field(3))
    m = ((1, 2, 0, 1), (0, 1, 1, 0), (0, 0, 2, 1), (0, 0, 0, 1))
    perm = line_permutation(psp, m)
    assert sorted(perm) == list(range(len(psp.lines)))
    for i, ln in enumerate(psp.lines):
        image = psp.line_from_basis(tuple(_image(psp.field, m, row) for row in ln.basis))
        assert psp.lines[perm[i]] is image


def test_line_permutation_rejects_singular_matrix():
    psp = proj_space(3, _field(2))
    singular = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0))
    with pytest.raises(SteinerError, match="singular"):
        line_permutation(psp, singular)
    with pytest.raises(DimensionMismatchError):
        line_permutation(psp, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_restriction_then_closure_identity():
    """Composing restriction with closure fixes every affine object."""
    asp = aff_space(3, _field(2))
    cm = asp.closure
    rm = RestrictionMap(cm.pspace, Hyperplane(normalize_point(cm.pspace.field, (1, 0, 0, 0))))
    for line in asp.lines:
        assert rm.line_to_aff(cm.line_to_proj(line)) == line


def test_hyperplane_membership():
    sp = proj_space(3, _field(2))
    h = sp.hyperplanes[0]
    on = [p for p in sp.points if h.contains_point(sp.field, p)]
    assert len(on) == 7
    inside = [l for l in sp.lines if h.contains_line(sp.field, l)]
    assert len(inside) == 7
    for l in inside:
        assert all(dot(sp.field, h.normal, p) == 0 for p in l.point_coords())
