"""Exact linear algebra: RREF over GF(q), Bareiss echelon and rational
kernels over the integers.

Canonicity is the load-bearing property: two matrices with the same
rowspace must produce byte-identical RREF output, since line keys are
built from it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from steinergraphs.errors import SteinerError
from steinergraphs.gf import field_make
from steinergraphs.linalg import (
    bareiss_echelon,
    in_rowspace,
    kernel,
    rank,
    rational_kernel,
    row_basis,
    rref,
)
from test_gf import Reference

FIELDS = [field_make(2), field_make(3), field_make(2, 2), field_make(5), field_make(3, 2)]


def _random_matrix(f, rows, cols, rng):
    return tuple(tuple(rng.randrange(f.q) for _ in range(cols)) for _ in range(rows))


def _row_op_shuffle(f, rows, rng):
    """Produce a different matrix with the same rowspace, using the
    polynomial reference arithmetic."""
    ref = Reference(f)
    out = [list(r) for r in rows]
    for _ in range(8):
        i = rng.randrange(len(out))
        j = rng.randrange(len(out))
        c = rng.randrange(1, f.q)
        if i == j:
            out[i] = [ref.mul(c, x) for x in out[i]]
        else:
            out[i] = [ref.add(x, ref.mul(c, y)) for x, y in zip(out[i], out[j])]
    rng.shuffle(out)
    return tuple(tuple(r) for r in out)


# -- rref --------------------------------------------------------------------------


def test_rref_pinned_example():
    f = field_make(2)
    echelon, rk, pivots = rref(f, ((1, 1, 0), (0, 1, 1)))
    assert echelon == ((1, 0, 1), (0, 1, 1))
    assert rk == 2
    assert pivots == (0, 1)


def test_rref_idempotent():
    rng = random.Random(7)
    for f in FIELDS:
        for _ in range(20):
            m = _random_matrix(f, 3, 5, rng)
            echelon, rk, _ = rref(f, m)
            again, rk2, _ = rref(f, echelon)
            assert again == echelon
            assert rk2 == rk


def test_rref_canonical_under_row_operations():
    rng = random.Random(11)
    for f in FIELDS:
        for _ in range(20):
            m = _random_matrix(f, 3, 4, rng)
            shuffled = _row_op_shuffle(f, m, rng)
            assert rref(f, m)[0] == rref(f, shuffled)[0]


def test_rref_pivot_columns_are_unit():
    rng = random.Random(13)
    f = field_make(3)
    for _ in range(20):
        m = _random_matrix(f, 4, 6, rng)
        echelon, rk, pivots = rref(f, m)
        for i, c in enumerate(pivots):
            col = [row[c] for row in echelon[:rk]]
            assert col == [1 if j == i else 0 for j in range(rk)]


def test_rank_and_row_basis():
    f = field_make(2)
    m = ((1, 0, 1), (0, 1, 1), (1, 1, 0))  # third row = sum of first two
    assert rank(f, m) == 2
    basis = row_basis(f, m)
    assert len(basis) == 2
    assert in_rowspace(f, basis, (1, 1, 0))
    assert not in_rowspace(f, basis, (0, 0, 1))


# -- kernels -----------------------------------------------------------------------


def test_kernel_orthogonality():
    rng = random.Random(17)
    for f in FIELDS:
        for _ in range(15):
            m = _random_matrix(f, 3, 5, rng)
            ker = kernel(f, m)
            assert len(ker) == 5 - rank(f, m)
            for vec in ker:
                assert all(f.dot(row, vec) == 0 for row in m)


def test_rational_kernel_pinned_example():
    assert rational_kernel(((1, 2, 3), (4, 5, 6))) == ((1, -2, 1),)


def test_rational_kernel_exactness():
    rng = random.Random(19)
    for _ in range(30):
        m = tuple(
            tuple(rng.randrange(-9, 10) for _ in range(5)) for _ in range(rng.randrange(1, 5))
        )
        ker = rational_kernel(m)
        for vec in ker:
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0
            # primitive integer vector, first nonzero entry positive
            nz = [x for x in vec if x]
            assert nz and nz[0] > 0
            assert gcd(*[abs(x) for x in nz]) == 1 if len(nz) > 1 else abs(nz[0]) == 1


def test_rational_kernel_dimension():
    rng = random.Random(23)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        m = tuple(tuple(rng.randrange(-4, 5) for _ in range(4)) for _ in range(rows))
        ker = rational_kernel(m)
        ech, pivots = bareiss_echelon([list(r) for r in m])
        assert len(ker) == 4 - len(pivots)


# -- bareiss -----------------------------------------------------------------------


def test_bareiss_rank_matches_fraction_gauss():
    rng = random.Random(29)

    def frac_rank(m):
        m = [[Fraction(x) for x in row] for row in m]
        rk = 0
        for c in range(len(m[0])):
            piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
            if piv is None:
                continue
            m[rk], m[piv] = m[piv], m[rk]
            for i in range(len(m)):
                if i != rk and m[i][c]:
                    f = m[i][c] / m[rk][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[rk])]
            rk += 1
        return rk

    for _ in range(30):
        m = [[rng.randrange(-6, 7) for _ in range(5)] for _ in range(4)]
        _, pivots = bareiss_echelon(m)
        assert len(pivots) == frac_rank(m)


def test_bareiss_echelon_rowspace_preserved():
    rng = random.Random(31)
    for _ in range(20):
        m = [[rng.randrange(-5, 6) for _ in range(4)] for _ in range(3)]
        ech, pivots = bareiss_echelon(m)
        # every original row is a rational combination of echelon rows:
        # stacking must not increase the rank
        stacked = [list(r) for r in ech[: len(pivots)]] + m
        _, pivots2 = bareiss_echelon(stacked)
        assert len(pivots2) == len(pivots)


# -- subspace operations ---------------------------------------------------------


def test_dimension_mismatch_raised():
    f = field_make(2)
    with pytest.raises(SteinerError, match="vector length mismatch"):
        in_rowspace(f, ((1, 0), (0, 1)), (1, 0, 1))
    with pytest.raises(SteinerError, match="ragged"):
        rref(f, ((1, 0), (0, 1, 1)))
