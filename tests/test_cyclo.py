"""Exact cyclotomic arithmetic, checked against sympy's cyclotomic polynomials."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm

import mpmath
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from helpers import rand_element, rand_nonzero
from oracles import (format_element_oracle, fraction_inverse, fraction_mul,
                     galois_oracle, sign_oracle)
from parcoh.cyclo import CycloField, format_element, parse_element
from parcoh.errors import (FieldMismatch, LiteralSyntaxError, NoEmbedding,
                           NotReal)

ORDERS = [1, 3, 4, 5, 8, 12]
# the fields of the property tests: every order the problem files and the
# benchmark use, and the fields Q(zeta_lcm(n, 4)) their Hermitian Grams use
PROPERTY_ORDERS = [1, 3, 4, 5, 7, 8, 12, 20, 28]


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


def test_modulus_is_sympys_cyclotomic_polynomial():
    x = sympy.symbols("x")
    for n in PROPERTY_ORDERS + [9, 15, 30, 255]:
        want = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()[::-1]
        assert CycloField(n).modulus == tuple(int(c) for c in want), n


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


def test_sign_builds_one_interval_context(monkeypatch):
    import mpmath
    from parcoh import cyclo
    made = []
    real = mpmath.ctx_iv.MPIntervalContext

    def counting():
        made.append(1)
        return real()

    monkeypatch.setattr(mpmath.ctx_iv, "MPIntervalContext", counting)
    monkeypatch.setattr(cyclo, "_INTERVALS", None)
    F = CycloField(28)
    monkeypatch.setattr(F, "_cos_bounds", [])
    signs = [(F.zeta(k) + F.zeta(28 - k)).sign() for k in range(1, 28)] * 3
    assert signs.count(0) == 6 and set(signs) == {-1, 0, 1}
    assert len(made) == 1


def _exact(mpf_tuple):
    sign, man, exp, _ = mpf_tuple
    return Fraction(-man if sign else man) * Fraction(2) ** exp


def test_cosine_bounds_bracket_the_cosines():
    # against mpmath's interval cosine at 128 more bits, read exactly: a
    # bound rounded inwards (a floor for hi_k, say) falls inside the
    # reference interval for some k
    from parcoh import cyclo
    ref = mpmath.ctx_iv.MPIntervalContext()
    for n in PROPERTY_ORDERS:
        F = CycloField(n)
        for prec in (64, 128, 256):
            ref.prec = prec + 128
            bounds = cyclo._cosine_bounds(n, F.degree, prec)
            assert len(bounds) == F.degree
            for k, (lo, hi) in enumerate(bounds):
                a, b = ref.cos(2 * ref.pi * k / n)._mpi_
                assert lo <= _exact(a) * 2 ** prec, (n, prec, k)
                assert _exact(b) * 2 ** prec <= hi, (n, prec, k)
                assert hi - lo <= 64, (n, prec, k)


def _near_zero(F, k):
    """zeta^k + zeta^-k - p/q, p/q the first continued-fraction convergent
    of 2*cos(2*pi*k/n) within 2^-66 of it, and the true sign."""
    with mpmath.workprec(400):
        v = x = 2 * mpmath.cos(2 * mpmath.pi * k / F.n)
        h0, h1, k0, k1 = 0, 1, 1, 0
        while True:
            a = int(mpmath.floor(x))
            h0, h1, k0, k1 = h1, a * h1 + h0, k1, a * k1 + k0
            err = v - mpmath.mpf(h1) / k1
            if abs(err) < mpmath.mpf(2) ** -66:
                break
            x = 1 / (x - a)
        return F.zeta(k) + F.zeta(-k) - Fraction(h1, k1), \
            (1 if err > 0 else -1)


def test_sign_of_a_near_zero_element_builds_the_next_level(monkeypatch):
    # within 2^-66 of 0, so the 64-bit bounds straddle 0 and 128 bits
    # decide; a table whose bounds are not outward (the floor for both,
    # say) decides at 64 bits, often wrongly
    F = CycloField(7)
    monkeypatch.setattr(F, "_cos_bounds", [])
    x, expected = _near_zero(F, 1)
    assert x.sign() == sign_oracle(x) == expected
    assert (-x).sign() == -expected
    assert [len(level) for level in F._cos_bounds] == [6, 6]


def test_sign_builds_each_bound_level_once(monkeypatch):
    from parcoh import cyclo
    ctx = mpmath.ctx_iv.MPIntervalContext()
    cos = ctx.cos
    calls = []

    def counting(x):
        calls.append(ctx.prec)
        return cos(x)

    monkeypatch.setattr(ctx, "cos", counting, raising=False)
    monkeypatch.setattr(cyclo, "_INTERVALS", ctx)
    F = CycloField(20)
    monkeypatch.setattr(F, "_cos_bounds", [])
    rng = random.Random(117)
    xs = []
    for _ in range(100):
        a = rand_element(F, rng, span=5)
        xs += [a + a.conjugate(), a * a.conjugate() - 2]
    signs = [x.sign() for x in xs]
    assert calls == [64] * F.degree
    near, expected = _near_zero(F, 3)
    assert near.sign() == expected
    assert calls == [64] * F.degree + [128] * F.degree
    assert [x.sign() for x in xs + [near]] == signs + [expected]
    assert len(calls) == 2 * F.degree
    assert len(F._cos_bounds) == 2
    for level in F._cos_bounds:
        assert len(level) == F.degree
        assert all(type(lo) is int and type(hi) is int and lo <= hi
                   for lo, hi in level)


def test_importing_and_computing_without_a_sign_leaves_mpmath_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "from parcoh import cli\n"
            "assert cli.main(['w-basis', 'problems/picard.json']) == 0\n"
            "print('mpmath' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         cwd=os.path.dirname(src), capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split()[-1] == "False"


# ---------------------------------------------------------------------------
# properties of the integer-numerator representation


_COEFF = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def _field_and_elements(draw, count):
    """A field from PROPERTY_ORDERS and count elements of it; a coefficient
    list may run past the degree, so element() reduces it."""
    F = CycloField(draw(st.sampled_from(PROPERTY_ORDERS)))
    coeffs = st.lists(st.one_of(st.just(0), _COEFF), max_size=F.degree + 2)
    return (F,) + tuple(F.element(draw(coeffs)) for _ in range(count))


def _assert_canonical(x, field):
    assert x.field == field
    assert len(x.num) == field.degree
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not x:
        assert x.num == (0,) * field.degree and x.den == 1


@given(_field_and_elements(3))
def test_field_axioms(data):
    F, a, b, c = data
    zero, one = F.zero(), F.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a + (-a) == zero and (a - b) + b == a
    if a:
        assert a * a.inverse() == one
        assert (b / a) * a == b
        assert a ** -2 == (a * a).inverse()


@given(_field_and_elements(2))
def test_product_and_inverse_match_the_fraction_oracles(data):
    F, a, b = data
    assert (a * b).coeffs == fraction_mul(a, b)
    if a:
        assert a.inverse().coeffs == fraction_inverse(a)


@given(_field_and_elements(2), st.fractions(max_denominator=20))
def test_every_result_is_canonical(data, q):
    F, a, b = data
    big = CycloField(lcm(F.n, 4))
    results = [a, a + b, a - b, b - a, -a, a * b, a * a, a ** 3,
               a * q, a + q, q - a, a.conjugate(), F.from_rational(q),
               F.zero(), F.one(), F.zeta(5), a - a]
    if a:
        results += [a.inverse(), b / a, q / a]
    for x in results:
        _assert_canonical(x, F)
    _assert_canonical(a.coerce(big), big)


@given(_field_and_elements(2), st.fractions(max_denominator=20))
def test_equal_elements_hash_equal(data, q):
    F, a, b = data
    for x, y in ((a, a + b - b), (a, a.conjugate().conjugate()),
                 (a * b, b * a), (a, parse_element(str(a), F))):
        assert x == y and hash(x) == hash(y)
    if a:
        # a rational reached through arithmetic hashes like that rational
        r = a * a.inverse() * q
        assert r == q and hash(r) == hash(q)
        if q.denominator == 1:
            assert hash(r) == hash(int(q))


@given(_field_and_elements(2))
def test_conjugate_and_coerce_are_ring_homomorphisms(data):
    F, a, b = data
    for image in (lambda x: x.conjugate(),
                  lambda x: x.coerce(CycloField(lcm(F.n, 4))),
                  lambda x: x.coerce(CycloField(3 * F.n))):
        assert image(a + b) == image(a) + image(b)
        assert image(a - b) == image(a) - image(b)
        assert image(a * b) == image(a) * image(b)
        assert image(F.one()) == image(a).field.one()
        if a:
            assert image(a.inverse()) == image(a).inverse()
    big = CycloField(lcm(F.n, 4))
    assert a.coerce(big).conjugate() == a.conjugate().coerce(big)


GALOIS_ORDERS = (1, 3, 5, 7, 12, 20, 28)


@given(st.sampled_from(GALOIS_ORDERS), st.data())
def test_conjugate_and_coerce_match_the_dense_galois_oracle(n, data):
    # every embedding between the orders (Q(zeta_7) -> Q(zeta_28) among
    # them) and into Q(zeta_lcm(n, 4)), where Hermitian Grams are built
    F = CycloField(n)
    coeffs = st.lists(st.one_of(st.just(0), _COEFF), max_size=F.degree)
    a = F.element(data.draw(coeffs))
    assert a.conjugate() == galois_oracle(a, F, -1)
    targets = {N for N in GALOIS_ORDERS if N % n == 0} | {lcm(n, 4)}
    for N in sorted(targets - {n}):
        big = CycloField(N)
        assert a.coerce(big) == galois_oracle(a, big, N // n)
        assert a.coerce(big).conjugate() == galois_oracle(
            galois_oracle(a, big, N // n), big, -1)


@given(_field_and_elements(1))
def test_format_then_parse_is_the_identity(data):
    F, a = data
    assert parse_element(format_element(a), F) == a


@given(st.sampled_from([1, 3, 4, 5, 12, 28]),
       st.lists(st.one_of(st.just(0), _COEFF), min_size=1, max_size=12),
       st.integers(2, 36))
def test_format_matches_the_fraction_oracle(n, coeffs, den):
    F = CycloField(n)
    a = F.element(coeffs) / den
    if a.den == 1:
        a = a + Fraction(1, den)
    for x in (a, -a, a * F.zeta(), F.element(coeffs)):
        assert format_element(x) == format_element_oracle(x)


@given(_field_and_elements(2))
def test_sign_matches_the_interval_oracle(data):
    F, a, b = data
    for x in (a + a.conjugate(), a * a.conjugate() - b * b.conjugate(),
              (a - b.conjugate()) * (b - a.conjugate())):
        assert x.sign() == sign_oracle(x)
