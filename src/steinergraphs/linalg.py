"""Exact linear algebra over finite fields and over the rationals.

Matrices are sequences of row sequences of integers.  Over a finite
field the entries are element indices of a :class:`~steinergraphs.gf.Field`;
over the rationals they are Python ints (with kernels returned as
primitive integer vectors).  Reduced row echelon form is the canonical
representative of a row space, so two subspaces are equal exactly when
their ``row_basis`` tuples are equal.

Finite-field entries are validated once, when a matrix enters ``rref``;
elimination then runs on the field's unchecked row operations, which
index its arithmetic tables.  Every routine over GF(q) (row bases, ranks,
kernels, row-space membership) goes through ``rref``.
"""

from __future__ import annotations

from math import gcd

from .errors import SteinerError
from .gf import Field

Row = tuple[int, ...]
Rows = tuple[Row, ...]


def _check_rect(rows) -> int:
    if not rows:
        raise SteinerError("matrix needs at least one row")
    ncols = len(rows[0])
    for r in rows:
        if len(r) != ncols:
            raise SteinerError("ragged matrix")
    return ncols


def rref(field: Field, rows) -> tuple[Rows, int, Row]:
    """Reduced row echelon form.

    Returns (matrix of the same shape with zero rows at the bottom,
    rank, pivot column indices).  Pivots are scaled to 1 and cleared
    above and below, so the result is the canonical representative of
    the row space.
    """
    ncols = _check_rect(rows)
    m = [tuple(field.check_row(r)) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        for pr in range(r, nrows):
            if m[pr][c]:
                break
        else:
            continue
        # every entry of row pr left of column c is zero, so c is its lead
        top = field.normalize_row(m[pr])
        m[pr] = m[r]
        m[r] = top
        for i, row in enumerate(m):
            if row[c] and i != r:
                m[i] = field.sub_scaled_row(row, row[c], top)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(m), r, tuple(pivots)


def row_basis(field: Field, rows) -> Rows:
    """Canonical basis of the row space: the nonzero rows of the RREF."""
    m, rank, _ = rref(field, rows)
    return m[:rank]


def rank(field: Field, rows) -> int:
    return rref(field, rows)[1]


def kernel(field: Field, rows) -> Rows:
    """Canonical basis of the right null space {x : rows.x = 0}."""
    ncols = _check_rect(rows)
    m, _, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    minus_one = field.neg(1)
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        negated = field.scale_row(minus_one, [row[f] for row in m[: len(pivots)]])
        for c, x in zip(pivots, negated):
            vec[c] = x
        basis.append(tuple(vec))
    if not basis:
        return ()
    return row_basis(field, basis)


def in_rowspace(field: Field, rows, vec) -> bool:
    ncols = _check_rect(rows)
    if len(vec) != ncols:
        raise SteinerError("vector length mismatch")
    base = row_basis(field, rows)
    return rank(field, base + (tuple(vec),)) == len(base)


# -- exact rational kernels of integer matrices ------------------------------


def bareiss_echelon(rows) -> tuple[list[list[int]], list[int]]:
    """Fraction-free integer echelon form (Bareiss).

    Returns (echelon rows, pivot column indices).  All divisions are
    exact, so entries stay integers of moderate size.
    """
    ncols = _check_rect(rows)
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mic = m[i][c]
            row = m[i]
            top = m[r]
            for j in range(c, ncols):
                row[j] = (row[j] * piv - mic * top[j]) // prev
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def primitive(vec) -> tuple[int, ...]:
    """``vec`` divided by its content, first nonzero entry positive."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g > 1:
        vec = [x // g for x in vec]
    lead = next((x for x in vec if x), 0)
    if lead < 0:
        vec = [-x for x in vec]
    return tuple(vec)


def rational_kernel(rows) -> tuple[tuple[int, ...], ...]:
    """Basis of the right null space over the rationals of an integer
    matrix, as primitive integer vectors (gcd 1, first nonzero entry
    positive), one per free column in increasing column order."""
    ncols = _check_rect(rows)
    ech, pivots = bareiss_echelon(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        # x carries an implicit common denominator: solving pivot row i
        # for x[c] rescales the whole vector instead of dividing
        x = [0] * ncols
        x[f] = 1
        for i in range(len(pivots) - 1, -1, -1):
            c = pivots[i]
            row = ech[i]
            acc = 0
            for j in range(c + 1, ncols):
                if row[j] and x[j]:
                    acc += row[j] * x[j]
            if acc:
                g = gcd(acc, row[c])
                m = row[c] // g
                if m != 1:
                    x = [xi * m for xi in x]
                x[c] = -acc // g
        basis.append(primitive(x))
    return tuple(basis)
