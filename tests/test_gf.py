"""Finite field construction and arithmetic.

Moduli are pinned: the canonical modulus of GF(p^k) is the monic
irreducible whose low-degree-first coefficient tuple is smallest as a
base-p integer, so these values must never change silently.
"""

from __future__ import annotations

import pytest

from steinergraphs.errors import LimitExceededError, MixedFieldsError, NonPrimeError
from steinergraphs.gf import Field, field_make, is_prime

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9]


def _field(q: int) -> Field:
    for p in (2, 3, 5, 7):
        k = 0
        n = q
        while n % p == 0:
            n //= p
            k += 1
        if n == 1:
            return field_make(p, k)
    raise ValueError(q)


# -- construction ------------------------------------------------------------------


def test_canonical_moduli_pinned():
    assert field_make(2, 2).modulus == (1, 1, 1)  # x^2+x+1
    assert field_make(2, 3).modulus == (1, 1, 0, 1)  # x^3+x+1
    assert field_make(3, 2).modulus == (1, 0, 1)  # x^2+1
    assert field_make(2, 4).modulus == (1, 1, 0, 0, 1)  # x^4+x+1
    assert field_make(5, 2).modulus == (2, 0, 1)  # x^2+2
    assert field_make(3, 3).modulus == (1, 2, 0, 1)  # x^3+2x+1


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeError):
        field_make(4)
    with pytest.raises(NonPrimeError):
        field_make(6, 2)


def test_order_limit_enforced():
    with pytest.raises(LimitExceededError):
        field_make(2, 1, order_limit=1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13}
    for n in range(2, 14):
        assert is_prime(n) == (n in primes)


def test_field_equality_and_hash():
    assert field_make(2, 2) == field_make(2, 2)
    assert field_make(2, 2) != field_make(2, 1)
    assert hash(field_make(3, 1)) == hash(field_make(3, 1))


# -- axioms, exhaustive for every order up to 9 --------------------------------------


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_additive_group(q):
    f = _field(q)
    for a in f.elements():
        assert f.add(a, 0) == a
        assert f.add(a, f.neg(a)) == 0
        for b in f.elements():
            assert f.add(a, b) == f.add(b, a)
            for c in f.elements():
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_multiplicative_group(q):
    f = _field(q)
    for a in f.elements():
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        if a != 0:
            assert f.mul(a, f.inv(a)) == 1
        for b in f.elements():
            assert f.mul(a, b) == f.mul(b, a)
            for c in f.elements():
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_distributivity(q):
    f = _field(q)
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_sub_div_pow_consistent(q):
    f = _field(q)
    for a in f.elements():
        for b in f.elements():
            assert f.add(f.sub(a, b), b) == a
            if b != 0:
                assert f.mul(f.mul(a, f.inv(b)), b) == a
        assert f.pow(a, 1) == a
        if a != 0:
            assert f.pow(a, q - 1) == 1  # Lagrange on the unit group
            assert f.pow(a, -1) == f.inv(a)


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_no_zero_divisors(q):
    f = _field(q)
    for a in range(1, q):
        for b in range(1, q):
            assert f.mul(a, b) != 0


def test_prime_field_matches_mod_p():
    f = field_make(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7


def test_characteristic():
    for q in PRIME_POWERS:
        f = _field(q)
        acc = 0
        for _ in range(f.p):
            acc = f.add(acc, 1)
        assert acc == 0


def test_element_range_checked():
    f = field_make(2, 2)
    with pytest.raises(MixedFieldsError):
        f.add(4, 0)
    with pytest.raises(MixedFieldsError):
        f.mul(0, -1)
