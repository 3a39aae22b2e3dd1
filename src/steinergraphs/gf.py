"""Exact arithmetic in finite fields GF(p^k).

Elements are plain integers in [0, q).  The element with base-p digits
(a_0, ..., a_{k-1}), least significant first, represents the polynomial
a_0 + a_1 x + ... + a_{k-1} x^{k-1} reduced modulo the field modulus.
Index 0 is the additive identity and index 1 the multiplicative identity.
The modulus is the monic irreducible polynomial of degree k over GF(p)
whose low-degree-first coefficient list is smallest as a base-p integer;
for k = 1 it is the polynomial x.  This choice is deterministic, so equal
(p, k) always means an identical field.

Moduli produced for the first few extension fields:

    GF(4)  : x^2 + x + 1
    GF(8)  : x^3 + x + 1
    GF(9)  : x^2 + 1
    GF(16) : x^4 + x + 1
    GF(25) : x^2 + 2
    GF(27) : x^3 + 2x + 1

Every field keeps full addition, negation, multiplication and inverse
tables, built once when it is made, and all arithmetic reads them.
Elements are validated where they enter: ``check`` checks one element
and ``check_row`` a whole row in one pass.  The row operations
(``scale_row``, ``normalize_row``, ``add_rows``, ``sub_scaled_row``,
``dot``) trust their input and only index the tables.

Orders above ``MAX_ORDER`` (256) are refused.  No space within the
points x lines limit of ``geometry`` needs a larger field: the
smallest spaces over GF(q), PG(2,q) and AG(2,q), pass that limit beyond
q = 37.  The q x q tables of GF(256) take well under a second to build.
"""

from __future__ import annotations

from functools import cache

from .errors import LimitExceededError, SteinerError

MAX_ORDER = 256


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _digits(index: int, p: int, k: int) -> tuple[int, ...]:
    out = []
    for _ in range(k):
        out.append(index % p)
        index //= p
    return tuple(out)


def _index(digits, p: int) -> int:
    out = 0
    for d in reversed(digits):
        out = out * p + d
    return out


def _poly_trim(coeffs) -> tuple[int, ...]:
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic; returns a mod m
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    return _poly_trim(a)


def _is_irreducible(poly, p) -> bool:
    # trial division by every monic polynomial of degree 1..deg/2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for c in range(p**d):
            divisor = _digits(c, p, d) + (1,)
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    if k == 1:
        return (0, 1)
    for c in range(p**k):
        cand = _digits(c, p, k) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible polynomial of degree {k} over GF({p})")


class Field:
    """The finite field GF(p^k) with a canonical modulus.

    Elements are integer indices.  The addition, negation, multiplication
    and inverse tables are built once, in the constructor, so instances
    are immutable after construction and safe to share between threads
    and worker processes.  There is no scalar arithmetic: ``check`` and
    ``check_row`` validate elements where they enter, ``neg`` negates one
    element, and the row operations trust their input (see the module
    docstring).
    """

    def __init__(self, p: int, k: int = 1):
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > MAX_ORDER:
            raise LimitExceededError(f"field order {q} exceeds limit {MAX_ORDER}")
        if not is_prime(p):
            raise SteinerError(f"characteristic {p} is not prime")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus = _smallest_irreducible(p, k)
        els = range(q)
        digits = [_digits(a, p, k) for a in els]
        add = tuple(tuple(_index([(x + y) % p for x, y in zip(da, db)], p) for db in digits) for da in digits)
        # b -> a*b is additive: with w = p^j the weight of the lowest
        # nonzero digit of b, a*b = a*(b - w) + a*x^j
        weight = [0] + [next(p**j for j in range(k) if d[j]) for d in digits[1:]]
        mul = []
        for a in els:
            pa = _poly_trim(digits[a])
            shifted = {
                p**j: _index(_poly_mod(_poly_mul(pa, (0,) * j + (1,), p), modulus, p), p) for j in range(k)
            }
            row = [0] * q
            for b in range(1, q):
                row[b] = add[row[b - weight[b]]][shifted[weight[b]]]
            mul.append(tuple(row))
        self._add_table = add
        self._neg_table = tuple(row.index(0) for row in add)
        self._mul_table = tuple(mul)
        self._inv_table = (0,) + tuple(row.index(1) for row in mul[1:])

    # -- identity ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"Field(p={self.p}, k={self.k})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
        )

    def __hash__(self) -> int:
        return hash((Field, self.p, self.k))

    # -- element access ----------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def check(self, a: int) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise SteinerError(f"{a!r} is not an element index of {self!r}")
        return a

    def check_row(self, row):
        """Validate every entry of a row in one pass; returns the row."""
        q = self.q
        for a in row:
            if type(a) is not int or not 0 <= a < q:
                self.check(a)  # raises, unless a is an in-range int subclass
        return row

    def neg(self, a: int) -> int:
        return self._neg_table[self.check(a)]

    # -- unchecked row arithmetic ----------------------------------------------
    #
    # Rows are sequences of element indices that the caller has already
    # validated; results are tuples.

    def scale_row(self, c: int, row) -> tuple[int, ...]:
        """c * row."""
        mc = self._mul_table[c]
        return tuple([mc[x] for x in row])

    def normalize_row(self, row) -> tuple[int, ...]:
        """The row scaled so its first nonzero entry is 1."""
        for lead in row:
            if lead:
                break
        else:
            raise ValueError("cannot normalise the zero vector")
        if lead == 1:
            return tuple(row)
        return self.scale_row(self._inv_table[lead], row)

    def add_rows(self, a, b) -> tuple[int, ...]:
        """a + b, entry by entry."""
        add = self._add_table
        return tuple([add[x][y] for x, y in zip(a, b)])

    def sub_scaled_row(self, a, c: int, b) -> tuple[int, ...]:
        """a - c * b, entry by entry."""
        add = self._add_table
        mc = self._mul_table[self._neg_table[c]]
        return tuple([add[x][mc[y]] for x, y in zip(a, b)])

    def dot(self, a, b) -> int:
        """sum_i a_i * b_i."""
        add, mul = self._add_table, self._mul_table
        acc = 0
        for x, y in zip(a, b):
            acc = add[acc][mul[x][y]]
        return acc


_field_memo = cache(Field)


def field_make(p: int, k: int = 1) -> Field:
    """Return the canonical GF(p^k); repeated calls share one instance."""
    # the memo is keyed on (p, k) as passed, so both are always passed
    return _field_memo(p, k)


def field_of_order(q: int) -> Field:
    """The canonical field of order q.  An order above MAX_ORDER is
    refused before q is factored."""
    if q > MAX_ORDER:
        raise LimitExceededError(f"field order {q} exceeds limit {MAX_ORDER}")
    for p in range(2, q + 1):
        if q % p == 0:
            k, rest = 0, q
            while rest % p == 0:
                rest //= p
                k += 1
            if rest == 1:
                return field_make(p, k)
            break
    raise ValueError(f"{q} is not a prime power")
