"""Standalone property suites with zero numerical tolerance.

Runnable on their own (`pytest tests/test_properties.py`); each suite
states one global invariant of the library:
  * field axioms, exhaustive over every order up to 9;
  * RREF canonicity: equal rowspaces give identical output;
  * 2-design uniqueness: every point pair lies on exactly one block;
  * eigenfunction linearity and orthogonality across eigenvalues;
  * composing projective closure with the matching restriction is the
    identity on lines;
  * the integer eigenvalue check agrees with the all-vertex Fraction
    definition, witness included;
  * rational kernels agree with sympy's nullspace, basis vector by
    basis vector;
  * the unchecked row operations of a field agree with its checked
    scalar operations, with and without tables, and RREF agrees with a
    plain Gauss-Jordan reference written with the scalar operations;
  * RREF and point normalisation reject entries that are not field
    elements;
  * the canonical forms of the geometry tables: point normalisation,
    projective line bases, affine line keys and coset representatives,
    with pair_line, lines_at and the line counts matching the point sets
    and the closed formulas.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinergraphs.designs import affine_design, cached_block_graph, projective_design
from steinergraphs.eigenfunctions import (
    Eigenfunction,
    enumerate_complete_bipartite,
    from_bipartite_pair,
    inner_product,
    optimal_from_regulus,
    verify_eigenfunction,
)
from steinergraphs.errors import MixedFieldsError
from steinergraphs.geometry import (
    RestrictionMap,
    _coset_rep,
    aff_space,
    normalize_point,
    proj_space,
)
from steinergraphs.gf import _TABLE_LIMIT, field_make
from steinergraphs.linalg import rational_kernel, row_basis, rref
from steinergraphs.partitions import Partition2, partition_to_eigenfunction, star_line_set
from steinergraphs.reguli import enumerate_reguli
from test_gf import PRIME_POWERS, _field

ALL_SMALL_FIELDS = [
    field_make(2),
    field_make(3),
    field_make(2, 2),
    field_make(5),
    field_make(7),
    field_make(2, 3),
    field_make(3, 2),
]


@pytest.mark.parametrize("f", ALL_SMALL_FIELDS, ids=lambda f: f"q{f.q}")
def test_field_axioms_exhaustive(f):
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a and f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
        for b in els:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            if a and b:
                assert f.mul(a, b) != 0
            for c in els:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("f", ALL_SMALL_FIELDS[:5], ids=lambda f: f"q{f.q}")
def test_rref_canonicity(f):
    """Any two row-equivalent matrices reduce to the same canonical form."""
    rng = random.Random(f.q)
    for _ in range(25):
        m = [[rng.randrange(f.q) for _ in range(5)] for _ in range(3)]
        other = [list(r) for r in m]
        for _ in range(10):
            i, j = rng.randrange(3), rng.randrange(3)
            c = rng.randrange(1, f.q)
            if i == j:
                other[i] = [f.mul(c, x) for x in other[i]]
            else:
                other[i] = [f.add(x, f.mul(c, y)) for x, y in zip(other[i], other[j])]
        rng.shuffle(other)
        e1, r1, p1 = rref(f, tuple(tuple(r) for r in m))
        e2, r2, p2 = rref(f, tuple(tuple(r) for r in other))
        assert (e1, r1, p1) == (e2, r2, p2)
        assert rref(f, e1)[0] == e1  # idempotent


@pytest.mark.parametrize(
    "make,n,q",
    [("proj", 3, 2), ("proj", 3, 3), ("proj", 2, 4), ("aff", 3, 2), ("aff", 3, 3), ("aff", 4, 2)],
)
def test_two_design_uniqueness(make, n, q):
    """Every Steiner system built from a geometry is a 2-design with
    lambda = 1: each point pair lies on exactly one block."""
    d = projective_design(n, q) if make == "proj" else affine_design(n, q)
    count = {}
    for block in d.blocks:
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                key = (block[i], block[j])
                count[key] = count.get(key, 0) + 1
    assert all(c == 1 for c in count.values())
    assert len(count) == d.N * (d.N - 1) // 2


def test_eigenfunction_linearity():
    g = cached_block_graph(projective_design(3, 2))
    pairs = enumerate_reguli(g.design.space)
    f1 = optimal_from_regulus(pairs[0], g)
    f2 = optimal_from_regulus(pairs[7], g)
    for combo in (f1 + f2, f1 - f2, 5 * f1, f1 * Fraction(2, 3)):
        assert verify_eigenfunction(g, combo).ok


def test_eigenfunction_orthogonality():
    """Eigenfunctions for distinct eigenvalues of the same graph are
    orthogonal under the standard inner product."""
    g = cached_block_graph(projective_design(3, 2))
    sp = g.design.space
    minus = [optimal_from_regulus(p, g) for p in enumerate_reguli(sp)[:10]]
    plus = [
        partition_to_eigenfunction(g, Partition2.from_part(g, star_line_set(sp, pt)))
        for pt in range(5)
    ]
    for f in minus:
        for h in plus:
            assert f.theta == -3 and h.theta == 3
            assert inner_product(f, h) == 0


@pytest.mark.parametrize("q", [2, 3])
def test_closure_restriction_identity(q):
    """Closing AG(3,q) projectively and restricting at the plane at
    infinity gives the closure's own line table, and so the identity on
    lines."""
    asp = aff_space(3, field_make(q))
    cm = asp.closure
    rm = RestrictionMap(cm.pspace, cm.infinity)
    assert rm.proj_index == cm.proj_index and rm.aff_index == cm.aff_index
    for line in asp.lines:
        assert rm.line_to_aff(cm.line_to_proj(line)) == line
    for line in asp.lines:
        assert cm.line_to_aff(rm.line_to_proj(line)) == line


# -- the exact hot checks against plain references ------------------------------------------

G_PG32 = cached_block_graph(projective_design(3, 2))
G_AG32 = cached_block_graph(affine_design(3, 2))


def _stars(g):
    sp = g.design.space
    return [partition_to_eigenfunction(g, Partition2.from_part(g, star_line_set(sp, p))) for p in range(8)]


# eigenfunctions at both non-principal eigenvalues of each graph
EIGEN_POOLS = {
    G_PG32: [[optimal_from_regulus(p, G_PG32) for p in enumerate_reguli(G_PG32.design.space)[:12]], _stars(G_PG32)],
    G_AG32: [[from_bipartite_pair(G_AG32, *p, -2) for p in enumerate_complete_bipartite(G_AG32, 2)[::20]], _stars(G_AG32)],
}
VALUES = st.fractions(min_value=-6, max_value=6, max_denominator=7).filter(bool)


def _reference_verify(graph, f):
    """The definition at every vertex, in Fraction arithmetic."""
    theta = Fraction(f.theta)
    for u in range(graph.v):
        lhs = theta * f.value(u)
        rhs = sum((f.value(w) for w in range(graph.v) if graph.adj[u] >> w & 1), Fraction(0))
        if lhs != rhs:
            return False, (u, lhs, rhs)
    return True, None


@st.composite
def vertex_functions(draw):
    """(kind, f): a random rational function, a rational combination of
    true eigenfunctions, or such a combination perturbed at one vertex."""
    graph = draw(st.sampled_from([G_PG32, G_AG32]))
    kind = draw(st.sampled_from(["random", "eigen", "perturbed"]))
    if kind == "random":
        theta = draw(st.integers(-graph.k, graph.k))
        support = draw(st.lists(st.integers(0, graph.v - 1), min_size=1, max_size=8, unique=True))
        return kind, Eigenfunction(graph, theta, {u: draw(VALUES) for u in support})
    pool = draw(st.sampled_from(EIGEN_POOLS[graph]))
    members = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    values: dict[int, Fraction] = {}
    for g in members:
        c = draw(VALUES)
        for u, x in g.values.items():
            values[u] = values.get(u, Fraction(0)) + c * x
    if kind == "perturbed":
        w = draw(st.integers(0, graph.v - 1))
        values[w] = values.get(w, Fraction(0)) + draw(VALUES)
    if not any(values.values()):
        values = dict(members[0].values)
        kind = "eigen"
    return kind, Eigenfunction(graph, members[0].theta, values)


@settings(max_examples=300, deadline=None)
@given(vertex_functions())
@example(("random", Eigenfunction(G_PG32, 3, {34: Fraction(1, 2)})))  # fails first outside the support
@example(("random", Eigenfunction(G_AG32, -2, {0: Fraction(-5, 3), 27: Fraction(2, 7)})))
def test_verify_matches_fraction_reference(case):
    kind, f = case
    res = verify_eigenfunction(f.graph, f)
    assert (res.ok, res.witness) == _reference_verify(f.graph, f)
    if kind == "eigen":
        assert res.ok


@st.composite
def rank_deficient_matrices(draw):
    """Integer matrices up to 6 x 8 with entries in -9..9 whose columns
    are dependent: some columns copy, negate or zero an earlier one."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cols = [draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m)) for _ in range(n)]
    for j in range(n):
        how = draw(st.sampled_from(["keep", "keep", "copy", "negate", "zero"]))
        if n <= m and j == n - 1 and how == "keep":
            how = "zero" if j == 0 else "copy"
        if how == "zero" or (how != "keep" and j == 0):
            cols[j] = [0] * m
        elif how != "keep":
            src = cols[draw(st.integers(0, j - 1))]
            cols[j] = list(src) if how == "copy" else [-x for x in src]
    return [list(r) for r in zip(*cols)]


@settings(max_examples=200, deadline=None)
@given(rank_deficient_matrices())
def test_rational_kernel_matches_sympy(rows):
    ours = rational_kernel(rows)
    theirs = sympy.Matrix(rows).nullspace()
    assert 0 < len(ours) == len(theirs)
    for vec, col in zip(ours, theirs):
        # sympy's vector for a free column is 1 there and 0 at the other
        # free columns; scaled to its primitive form it must equal ours
        den = lcm(*(int(x.q) for x in col))
        ints = [int(x * den) for x in col]
        g = gcd(*ints)
        lead = next(x for x in ints if x)
        assert vec == tuple(x // g if lead > 0 else -x // g for x in ints)
        assert gcd(*vec) == 1 and next(x for x in vec if x) > 0
        assert all(sum(a * b for a, b in zip(r, vec)) == 0 for r in rows)


# -- row arithmetic and RREF against the checked scalar operations --------------------------

# every small order, plus a prime and a prime power above the table limit
ROW_FIELDS = [_field(q) for q in PRIME_POWERS] + [field_make(257), field_make(2, 9)]


def test_row_fields_cover_both_branches():
    assert all(f._mul_table is not None for f in ROW_FIELDS if f.q <= _TABLE_LIMIT)
    big = [f for f in ROW_FIELDS if f.q > _TABLE_LIMIT]
    assert {f.k > 1 for f in big} == {False, True}
    assert all(f._add_table is None and f._mul_table is None for f in big)


@pytest.mark.parametrize("f", ROW_FIELDS, ids=lambda f: f"q{f.q}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_ops_match_scalar_ops(f, data):
    n = data.draw(st.integers(1, 6))
    el = st.integers(0, f.q - 1)
    a = tuple(data.draw(st.lists(el, min_size=n, max_size=n)))
    b = tuple(data.draw(st.lists(el, min_size=n, max_size=n)))
    c = data.draw(el)
    assert f.check_row(a) is a
    assert f.scale_row(c, a) == tuple(f.mul(c, x) for x in a)
    assert f.add_rows(a, b) == tuple(f.add(x, y) for x, y in zip(a, b))
    assert f.sub_scaled_row(a, c, b) == tuple(f.sub(x, f.mul(c, y)) for x, y in zip(a, b))
    acc = 0
    for x, y in zip(a, b):
        acc = f.add(acc, f.mul(x, y))
    assert f.dot(a, b) == acc
    if any(a):
        lead = next(x for x in a if x)
        assert f.normalize_row(a) == tuple(f.mul(f.inv(lead), x) for x in a)
    else:
        with pytest.raises(ValueError):
            f.normalize_row(a)


def _reference_rref(f, rows):
    """Forward elimination to echelon form, then back-substitution,
    entry by entry with the checked scalar operations."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(r + 1, len(m)):
            factor = m[i][c]
            m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        for i in range(r):
            factor = m[i][c]
            m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
    return tuple(tuple(r) for r in m), len(pivots), tuple(pivots)


@pytest.mark.parametrize("f", ROW_FIELDS, ids=lambda f: f"q{f.q}")
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rref_matches_gauss_jordan_reference(f, data):
    nrows, ncols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    # small entries and repeated rows make rank deficiency common
    el = st.sampled_from([0, 0, 1, f.q - 1]) | st.integers(0, f.q - 1)
    rows = data.draw(st.lists(st.lists(el, min_size=ncols, max_size=ncols), min_size=1, max_size=nrows))
    if data.draw(st.booleans()):
        rows.append(list(rows[0]))
    assert rref(f, rows) == _reference_rref(f, rows)


@pytest.mark.parametrize("f", [field_make(2), field_make(2, 2), field_make(257)], ids=lambda f: f"q{f.q}")
@pytest.mark.parametrize("bad", ["q", -1, True, False, 1.0])
def test_rref_and_normalize_reject_non_elements(f, bad):
    bad = f.q if bad == "q" else bad
    # the bad entry comes after a leading 1, so normalising needs no arithmetic on it
    for rows in ([(1, 0, bad)], [(1, 0, 0), (0, bad, 1)]):
        with pytest.raises(MixedFieldsError):
            rref(f, rows)
    with pytest.raises(MixedFieldsError):
        normalize_point(f, (1, 0, bad))
    with pytest.raises(MixedFieldsError):
        normalize_point(f, (bad, 1, 0))


# -- canonical forms of the geometry tables ----------------------------------------------------

PROJ_SPACES = [proj_space(3, field_make(2)), proj_space(3, field_make(3)), proj_space(2, field_make(2, 2))]
AFF_SPACES = [aff_space(3, field_make(2)), aff_space(3, field_make(3)), aff_space(2, field_make(2, 2)),
              aff_space(4, field_make(2))]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_normalize_point_idempotent_and_scale_invariant(data):
    f = data.draw(st.sampled_from(ALL_SMALL_FIELDS))
    n = data.draw(st.integers(1, 5))
    vec = tuple(data.draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n).filter(any)))
    c = data.draw(st.integers(1, f.q - 1))
    p = normalize_point(f, vec)
    assert next(x for x in p if x) == 1
    assert normalize_point(f, p) == p
    assert normalize_point(f, f.scale_row(c, vec)) == p


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_line_from_basis_of_any_two_points(data):
    """Any two distinct points of a line, in any order and scaling, span
    the same canonical line."""
    sp = data.draw(st.sampled_from(PROJ_SPACES))
    f = sp.field
    line = data.draw(st.sampled_from(sp.lines))
    a, b = data.draw(st.lists(st.sampled_from(line.point_coords()), min_size=2, max_size=2, unique=True))
    c = data.draw(st.integers(1, f.q - 1))
    assert sp.line_from_basis((f.scale_row(c, a), b)) is line


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pair_line_and_lines_at_match_point_sets(data):
    sp = data.draw(st.sampled_from(PROJ_SPACES + AFF_SPACES))
    i, j = sorted(data.draw(st.lists(st.integers(0, len(sp.points) - 1), min_size=2, max_size=2, unique=True)))
    line = sp.lines[sp.pair_line[(i, j)]]
    assert i in line.points and j in line.points
    assert line.mask == sum(1 << p for p in line.points)
    for p in (i, j):
        assert sp.lines_at[p] == tuple(k for k, ln in enumerate(sp.lines) if p in ln.points)


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3)])
def test_line_counts_match_closed_formulas(n, q):
    """PG(n, q) has [n+1 choose 2]_q lines; AG(n, q) has q^n points on
    (q^n - 1)/(q - 1) lines each, every line holding q of them."""
    f = _field(q)
    psp, asp = proj_space(n, f), aff_space(n, f)
    assert len(psp.lines) == _gaussian_binomial(n + 1, 2, q)
    assert len(asp.lines) == q**n * ((q**n - 1) // (q - 1)) // q
    assert all(len(ln.points) == q + 1 for ln in psp.lines)
    assert all(len(ln.points) == q for ln in asp.lines)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_coset_rep_invariant_under_row_space(data):
    sp = data.draw(st.sampled_from(AFF_SPACES))
    f, n = sp.field, sp.n
    el = st.integers(0, f.q - 1)
    basis = row_basis(f, data.draw(st.lists(st.lists(el, min_size=n, max_size=n), min_size=1, max_size=n)))
    point = data.draw(st.sampled_from(sp.points))
    shifted = point
    for row in basis:
        shifted = f.add_rows(shifted, f.scale_row(data.draw(el), row))
    rep = _coset_rep(f, basis, point)
    assert _coset_rep(f, basis, shifted) == rep
    # rep is in the coset and vanishes at every pivot of the basis
    assert row_basis(f, basis + (f.sub_scaled_row(rep, 1, point),)) == basis
    assert all(rep[next(i for i, x in enumerate(row) if x)] == 0 for row in basis)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_line_from_key_from_any_base_point(data):
    sp = data.draw(st.sampled_from(AFF_SPACES))
    f = sp.field
    line = data.draw(st.sampled_from(sp.lines))
    base = data.draw(st.sampled_from(line.point_coords()))
    c = data.draw(st.integers(1, f.q - 1))
    assert sp.line_from_key(f.scale_row(c, line.dir), base) is line
