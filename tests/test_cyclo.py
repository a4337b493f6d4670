"""Exact cyclotomic arithmetic, checked against sympy's cyclotomic polynomials."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from helpers import rand_element, rand_nonzero
from parcoh.cyclo import CycloField, format_element, parse_element
from parcoh.errors import (FieldMismatch, LiteralSyntaxError, NoEmbedding,
                           NotReal)

ORDERS = [1, 3, 4, 5, 8, 12]


def test_degree_matches_euler_phi():
    for n in ORDERS + [7, 9, 15, 20]:
        assert CycloField(n).degree == sympy.totient(n)


def test_zeta_is_primitive_root():
    for n in ORDERS:
        F = CycloField(n)
        z = F.zeta()
        power = F.one()
        for k in range(1, n):
            power = power * z
            if k < n:
                assert (power == F.one()) == (k == n), \
                    "zeta_%d has order dividing %d" % (n, k)
        assert power * z == F.one()


def test_minimal_polynomial_vanishes_at_zeta():
    x = sympy.symbols("x")
    for n in ORDERS + [7, 9, 15]:
        F = CycloField(n)
        coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        val = F.zero()
        for c in coeffs:  # descending powers
            val = val * F.zeta() + F.from_rational(Fraction(int(c)))
        assert not val, "Phi_%d(zeta_%d) != 0" % (n, n)


def test_field_axioms_random():
    rng = random.Random(101)
    for n in ORDERS:
        F = CycloField(n)
        for _ in range(25):
            a = rand_element(F, rng, 3)
            b = rand_element(F, rng, 3)
            c = rand_element(F, rng, 3)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + F.zero() == a
            assert a * F.one() == a
            assert a - a == F.zero()


def test_inverse_random():
    rng = random.Random(102)
    for n in ORDERS:
        F = CycloField(n)
        for _ in range(15):
            a = rand_nonzero(F, rng, 3)
            assert a * a.inverse() == F.one()
    with pytest.raises(ZeroDivisionError):
        CycloField(3).zero().inverse()


def test_conjugation_is_an_involutive_automorphism():
    rng = random.Random(103)
    for n in ORDERS:
        F = CycloField(n)
        z = F.zeta()
        assert z.conjugate() == F.zeta(n - 1 if n > 1 else 0)
        for _ in range(10):
            a = rand_element(F, rng, 3)
            b = rand_element(F, rng, 3)
            assert a.conjugate().conjugate() == a
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_parse_format_roundtrip():
    rng = random.Random(104)
    for n in ORDERS:
        F = CycloField(n)
        for _ in range(20):
            a = rand_element(F, rng, 3)
            assert parse_element(format_element(a), F) == a
    F = CycloField(12)
    assert format_element(F.zero()) == "0"
    assert parse_element("-1/3*z^3 + 2/3*z", F) == \
        F.from_rational(Fraction(-1, 3)) * F.zeta(3) \
        + F.from_rational(Fraction(2, 3)) * F.zeta(1)


def test_parse_rejects_garbage():
    F = CycloField(3)
    for bad in ("", "z +", "2**z", "w", "1/0", "z^"):
        with pytest.raises(LiteralSyntaxError):
            parse_element(bad, F)


def test_high_powers_reduce():
    # z^(n+k) must agree with z^k once reduced mod the minimal polynomial
    for n in ORDERS:
        F = CycloField(n)
        assert F.zeta(n) == F.one()
        assert F.zeta(n + 3) == F.zeta(3 % n)


def test_coercion_into_larger_field():
    small = CycloField(3)
    big = CycloField(12)
    z3 = small.zeta()
    lifted = z3.coerce(big)
    assert lifted == big.zeta(4)
    rng = random.Random(105)
    for _ in range(10):
        a = rand_element(small, rng, 3)
        b = rand_element(small, rng, 3)
        assert (a * b).coerce(big) == a.coerce(big) * b.coerce(big)
        assert (a + b).coerce(big) == a.coerce(big) + b.coerce(big)
    with pytest.raises(NoEmbedding):
        CycloField(5).zeta().coerce(big)


@given(st.fractions(max_denominator=50), st.sampled_from(ORDERS + [7, 9]))
def test_rational_elements_hash_like_the_rational(q, n):
    x = CycloField(n).from_rational(q)
    assert x == q
    assert hash(x) == hash(q)
    if q.denominator == 1:
        assert hash(x) == hash(int(q))
        assert len({x, int(q)}) == 1


def test_mixing_fields_raises():
    with pytest.raises(FieldMismatch):
        CycloField(3).zeta() + CycloField(4).zeta()


def test_sign_known_values():
    F = CycloField(12)
    sqrt3 = F.zeta(1) + F.zeta(11)  # 2*cos(pi/6)
    assert sqrt3.sign() == 1
    assert (-sqrt3).sign() == -1
    assert F.zero().sign() == 0
    assert F.from_rational(Fraction(-3, 2)).sign() == -1
    # the golden hermitian scale: (zeta + zeta^11)/3 = 1/sqrt(3)
    a = parse_element("-1/3*z^3 + 2/3*z", F)
    assert a.is_real() and a.sign() == 1
    with pytest.raises(NotReal):
        F.zeta().sign()


def test_sign_orders_cosines():
    # 2*cos(2*pi*k/n) is positive iff the angle sits in the right half plane
    for n in (5, 8, 12):
        F = CycloField(n)
        for k in range(1, n):
            x = F.zeta(k) + F.zeta(n - k)
            expected = 0 if 4 * k == n or 4 * k == 3 * n else \
                (1 if (k / n < 0.25 or k / n > 0.75) else -1)
            assert x.sign() == expected, (n, k)
