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

Elements are validated where they enter: the scalar operations check
every operand, and ``check_row`` checks a whole row in one pass.  The
row operations (``scale_row``, ``normalize_row``, ``add_rows``,
``sub_scaled_row``, ``dot``) trust their input and, for fields of order
at most ``_TABLE_LIMIT`` only index addition, negation, multiplication
and inverse tables built once per field; above that they compute with
base-p digits and polynomial products.  Callers never branch on field
size.
"""

from __future__ import annotations

from .errors import LimitExceededError, MixedFieldsError, NonPrimeError

DEFAULT_ORDER_LIMIT = 1 << 20
# up to this order, full q x q addition/multiplication tables are kept
_TABLE_LIMIT = 256


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

    All operations take and return integer element indices.  Instances
    are immutable after construction and safe to share between threads
    and worker processes.  The scalar operations raise
    :class:`MixedFieldsError` on an operand that is not an element index;
    the row operations trust their input (see the module docstring).
    """

    def __init__(self, p: int, k: int = 1, order_limit: int = DEFAULT_ORDER_LIMIT):
        if not is_prime(p):
            raise NonPrimeError(f"characteristic {p} is not prime")
        if k < 1:
            raise ValueError(f"extension degree must be >= 1, got {k}")
        q = p**k
        if q > order_limit:
            raise LimitExceededError(f"field order {q} exceeds limit {order_limit}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = _smallest_irreducible(p, k)
        self._add_table = self._neg_table = self._mul_table = self._inv_table = None
        if q <= _TABLE_LIMIT:
            self._build_tables()

    def _build_tables(self):
        q = self.q
        els = range(q)
        self._add_table = tuple(tuple(self._add(a, b) for b in els) for a in els)
        self._neg_table = tuple(self._neg(a) for a in els)
        mul = [[0] * q for _ in els]
        for a in els:
            for b in range(a, q):
                mul[a][b] = mul[b][a] = self._mul(a, b)
        self._mul_table = tuple(tuple(row) for row in mul)
        self._inv_table = (0,) + tuple(mul[a].index(1) for a in range(1, q))

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
            raise MixedFieldsError(f"{a!r} is not an element index of {self!r}")
        return a

    def check_row(self, row):
        """Validate every entry of a row in one pass; returns the row."""
        q = self.q
        for a in row:
            if type(a) is not int or not 0 <= a < q:
                self.check(a)  # raises, unless a is an in-range int subclass
        return row

    # -- unchecked arithmetic without tables: base-p digits, polynomials ----

    def _add(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a + b) % p
        out = 0
        weight = 1
        for _ in range(self.k):
            out += ((a + b) % p) * weight
            a //= p
            b //= p
            weight *= p
        return out

    def _neg(self, a: int) -> int:
        p = self.p
        if self.k == 1:
            return (-a) % p
        out = 0
        weight = 1
        for _ in range(self.k):
            out += ((-a) % p) * weight
            a //= p
            weight *= p
        return out

    def _mul(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return (a * b) % p
        pa = _poly_trim(_digits(a, p, self.k))
        pb = _poly_trim(_digits(b, p, self.k))
        return _index(_poly_mod(_poly_mul(pa, pb, p), self.modulus, p), p)

    def _pow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul(out, a)
            a = self._mul(a, a)
            e >>= 1
        return out

    # -- checked scalar arithmetic -------------------------------------------

    def add(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add(a, b)

    def neg(self, a: int) -> int:
        self.check(a)
        if self._neg_table is not None:
            return self._neg_table[a]
        return self._neg(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self.check(a)
        self.check(b)
        if self._mul_table is not None:
            return self._mul_table[a][b]
        return self._mul(a, b)

    def inv(self, a: int) -> int:
        self.check(a)
        if a == 0:
            raise ZeroDivisionError("finite field inverse of zero")
        if self._inv_table is not None:
            return self._inv_table[a]
        return self._pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        self.check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        return self._pow(a, e)

    # -- unchecked row arithmetic ----------------------------------------------
    #
    # Rows are sequences of element indices that the caller has already
    # validated; results are tuples.

    def scale_row(self, c: int, row) -> tuple[int, ...]:
        """c * row."""
        if self._mul_table is not None:
            mc = self._mul_table[c]
            return tuple([mc[x] for x in row])
        mul = self._mul
        return tuple([mul(c, x) for x in row])

    def normalize_row(self, row) -> tuple[int, ...]:
        """The row scaled so its first nonzero entry is 1."""
        for lead in row:
            if lead:
                break
        else:
            raise ValueError("cannot normalise the zero vector")
        if lead == 1:
            return tuple(row)
        if self._inv_table is not None:
            return self.scale_row(self._inv_table[lead], row)
        return self.scale_row(self._pow(lead, self.q - 2), row)

    def add_rows(self, a, b) -> tuple[int, ...]:
        """a + b, entry by entry."""
        if self._add_table is not None:
            add = self._add_table
            return tuple([add[x][y] for x, y in zip(a, b)])
        _add = self._add
        return tuple([_add(x, y) for x, y in zip(a, b)])

    def sub_scaled_row(self, a, c: int, b) -> tuple[int, ...]:
        """a - c * b, entry by entry."""
        if self._add_table is not None:
            add = self._add_table
            mc = self._mul_table[self._neg_table[c]]
            return tuple([add[x][mc[y]] for x, y in zip(a, b)])
        _add, _mul, nc = self._add, self._mul, self._neg(c)
        return tuple([_add(x, _mul(nc, y)) for x, y in zip(a, b)])

    def dot(self, a, b) -> int:
        """sum_i a_i * b_i."""
        acc = 0
        if self._add_table is not None:
            add, mul = self._add_table, self._mul_table
            for x, y in zip(a, b):
                acc = add[acc][mul[x][y]]
            return acc
        _add, _mul = self._add, self._mul
        for x, y in zip(a, b):
            acc = _add(acc, _mul(x, y))
        return acc


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field_make(p: int, k: int = 1, order_limit: int = DEFAULT_ORDER_LIMIT) -> Field:
    """Return the canonical GF(p^k); repeated calls share one instance."""
    key = (p, k)
    f = _FIELD_CACHE.get(key)
    if f is None or f.q > order_limit:
        f = Field(p, k, order_limit)
        _FIELD_CACHE[key] = f
    return f
