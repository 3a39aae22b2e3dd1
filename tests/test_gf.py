"""Finite field construction and arithmetic tables.

Moduli are pinned: the canonical modulus of GF(p^k) is the monic
irreducible whose low-degree-first coefficient tuple is smallest as a
base-p integer, so these values must never change silently.  The
tables are checked against the field axioms and against ``Reference``,
scalar arithmetic built from base-p digits and polynomial products
alone, which never reads a table.
"""

from __future__ import annotations

import random

import pytest

from steinergraphs.errors import LimitExceededError, SteinerError
from steinergraphs.gf import (
    MAX_ORDER,
    _digits,
    _index,
    _poly_mod,
    _poly_mul,
    _poly_trim,
    field_make,
    field_of_order,
    is_prime,
)

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]


class Reference:
    """Scalar arithmetic of a field from its digits and modulus only."""

    def __init__(self, f):
        self.p, self.k, self.q, self.modulus = f.p, f.k, f.q, f.modulus

    def add(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        return _index([(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))], p)

    def neg(self, a: int) -> int:
        return _index([-x % self.p for x in _digits(a, self.p, self.k)], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        pa, pb = _poly_trim(_digits(a, p, k)), _poly_trim(_digits(b, p, k))
        return _index(_poly_mod(_poly_mul(pa, pb, p), self.modulus, p), p)

    def inv(self, a: int) -> int:
        """a^(q-2), by squaring and multiplying."""
        if a == 0:
            raise ZeroDivisionError("finite field inverse of zero")
        out, e = 1, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out


# -- construction ------------------------------------------------------------------


def test_canonical_moduli_pinned():
    assert field_make(2, 2).modulus == (1, 1, 1)  # x^2+x+1
    assert field_make(2, 3).modulus == (1, 1, 0, 1)  # x^3+x+1
    assert field_make(3, 2).modulus == (1, 0, 1)  # x^2+1
    assert field_make(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4+x+1
    assert field_make(5, 2).modulus == (2, 0, 1)  # x^2+2
    assert field_make(3, 3).modulus == (1, 2, 0, 1)  # x^3+2x+1


def test_nonprime_characteristic_rejected():
    with pytest.raises(SteinerError, match="is not prime"):
        field_make(4)
    with pytest.raises(SteinerError, match="is not prime"):
        field_make(6, 2)


def test_order_limit_enforced():
    """GF(257) and GF(2^9) are refused; every field up to MAX_ORDER has
    all four tables."""
    assert MAX_ORDER == 256
    with pytest.raises(LimitExceededError):
        field_make(257)
    with pytest.raises(LimitExceededError):
        field_make(2, 9)
    for q in range(2, MAX_ORDER + 1):
        try:
            f = field_of_order(q)
        except ValueError:
            continue  # not a prime power
        assert len(f._add_table) == len(f._mul_table) == q
        assert all(len(row) == q for row in f._add_table + f._mul_table)
        assert len(f._neg_table) == len(f._inv_table) == q


def test_field_of_order():
    assert field_of_order(9) is field_make(3, 2)
    assert field_of_order(251) is field_make(251)
    for q in (0, 1, 6, 12, 250):
        with pytest.raises(ValueError, match="not a prime power"):
            field_of_order(q)
    for q in (257, 1_000_000_007, 2**64):
        with pytest.raises(LimitExceededError):
            field_of_order(q)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(2, 14):
        assert is_prime(n) == (n in primes)


def test_field_equality_and_hash():
    assert field_make(2, 2) == field_make(2, 2)
    assert field_make(2, 2) != field_make(2, 1)
    assert hash(field_make(3, 1)) == hash(field_make(3, 1))


# -- axioms, exhaustive for every order up to 9, read off the tables ----------------


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_additive_group(q):
    f = field_of_order(q)
    add, neg = f._add_table, f._neg_table
    for a in f.elements():
        assert add[a][0] == a
        assert add[a][neg[a]] == 0
        assert f.neg(a) == neg[a]
        for b in f.elements():
            assert add[a][b] == add[b][a]
            for c in f.elements():
                assert add[add[a][b]][c] == add[a][add[b][c]]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_multiplicative_group(q):
    f = field_of_order(q)
    mul, inv = f._mul_table, f._inv_table
    for a in f.elements():
        assert mul[a][1] == a
        assert mul[a][0] == 0
        if a != 0:
            assert mul[a][inv[a]] == 1
        for b in f.elements():
            assert mul[a][b] == mul[b][a]
            for c in f.elements():
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_distributivity(q):
    f = field_of_order(q)
    add, mul = f._add_table, f._mul_table
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_sub_div_pow_consistent(q):
    """Subtraction, division and powers composed from the tables."""
    f = field_of_order(q)
    add, neg, mul, inv = f._add_table, f._neg_table, f._mul_table, f._inv_table
    for a in f.elements():
        for b in f.elements():
            assert add[add[a][neg[b]]][b] == a
            if b != 0:
                assert mul[mul[a][inv[b]]][b] == a
        powers = [1]
        for _ in range(q - 1):
            powers.append(mul[powers[-1]][a])
        assert powers[1] == a
        if a != 0:
            assert powers[q - 1] == 1  # Lagrange on the unit group
            assert powers[q - 2] == inv[a]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_no_zero_divisors(q):
    f = field_of_order(q)
    for a in range(1, q):
        for b in range(1, q):
            assert f._mul_table[a][b] != 0


def test_prime_field_matches_mod_p():
    f = field_make(7)
    for a in range(7):
        for b in range(7):
            assert f._add_table[a][b] == (a + b) % 7
            assert f._mul_table[a][b] == (a * b) % 7


def test_characteristic():
    for q in PRIME_POWERS:
        f = field_of_order(q)
        acc = 0
        for _ in range(f.p):
            acc = f._add_table[acc][1]
        assert acc == 0


# -- tables against the polynomial reference -------------------------------------------


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_tables_match_reference_exhaustive(q):
    f = field_of_order(q)
    ref = Reference(f)
    for a in f.elements():
        assert f._neg_table[a] == ref.neg(a)
        if a:
            assert f._inv_table[a] == ref.inv(a)
        for b in f.elements():
            assert f._add_table[a][b] == ref.add(a, b)
            assert f._mul_table[a][b] == ref.mul(a, b)


@pytest.mark.parametrize("q", [243, 251, 256])
def test_tables_match_reference_sampled(q):
    f = field_of_order(q)
    ref = Reference(f)
    rng = random.Random(q)
    for _ in range(2000):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f._add_table[a][b] == ref.add(a, b)
        assert f._mul_table[a][b] == ref.mul(a, b)
        assert f._neg_table[a] == ref.neg(a)
        if a:
            assert f._inv_table[a] == ref.inv(a)


def test_element_range_checked():
    f = field_make(2, 2)
    assert f.check(3) == 3
    assert f.check_row((0, 1, 2, 3)) == (0, 1, 2, 3)
    for bad in (4, -1, True, 1.0):
        with pytest.raises(SteinerError, match="not an element index"):
            f.check(bad)
        with pytest.raises(SteinerError, match="not an element index"):
            f.check_row((0, bad))
        with pytest.raises(SteinerError, match="not an element index"):
            f.neg(bad)
