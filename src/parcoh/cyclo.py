"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is a tuple num of phi(n) Python ints, its coordinates in the
power basis 1, z, ..., z^(phi(n)-1), over one positive int den, as in
FLINT/Antic's nf_elem (W. Hart, "ANTIC: Algebraic Number Theory in C",
2015).  It is kept canonical: gcd(den, *num) = 1, and zero is (0, ..., 0)
over 1, so equality and the zero test are tuple comparisons.  n = 1
gives plain Q.

Every product goes through one kernel, _product_sums, which forms a row
x + a*M on the integers alone: linalg's row products, eliminations and
row scalings, and a*b as a single term.  Each output entry accumulates
the integer convolutions of its nonzero terms over one common
denominator, and its coefficients of z^k, deg <= k <= 2*deg - 2, are
folded back once with an integer table of z^k mod Phi_n built once per
field; Phi_n is monic, so the fold divides nothing.  A term costs
O(phi(n)^2) int products, an output entry one fold and one gcd.  No
other code convolves numerators or reads the fold table.  An element
from coefficients or from a literal (whose coefficients are first added
up by exponent mod n) is one power sum over one common denominator.

The inverse runs the extended Euclidean algorithm against Phi_n on
integer polynomials (pseudo-division, with the common content of each
remainder and its cofactor divided out): O(phi(n)^2) int operations on
integers whose size grows at most linearly with phi(n).

Complex conjugation (zeta_n -> zeta_n^-1) and the embedding into
Q(zeta_N), n | N (zeta_n -> zeta_N^(N/n)), are Galois maps zeta_n ->
zeta_N^step.  The target field keeps, per source n and step, a table of
the nonzero terms of z^(step*k) mod Phi_N for k < phi(n), built on first
use.  Most of those powers are single basis vectors, so a map costs one
int product per nonzero table term, not phi(n)*phi(N) of them: 14 terms
for the conjugation of Q(zeta_20), where the dense sum loops over 64
coefficient pairs.  The tables depend on the fields alone, never on an
element.

The sign of a nonzero real element is read from integers as well.  Each
field keeps, per precision p = 64 * 2^level bits, the integer bounds
lo_k <= 2^p * cos(2*pi*k/n) <= hi_k for k < phi(n): the floor and ceiling
of the endpoints of mpmath's outward-rounded interval cosine, computed
once, when an element first needs that level.  The exact sums of num
against them bracket 2^p times the element's value, so a sign costs
O(phi(n)) int products per level tried and no float enters it.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import add, neg, sub

from .errors import (FieldInvariantError, FieldMismatch, NoEmbedding, NotReal,
                     LiteralSyntaxError)


# Phi_d as int tuples, low degree first
_CYCLOTOMIC = {1: (-1, 1)}

# mpmath's interval context for the cosine bounds of sign(), made when the
# first table is built; mpmath is imported there so that code which never
# takes a sign does not load it
_INTERVALS = None

# sign() tries the precisions 64 * 2^level bits for level < _SIGN_LEVELS,
# up to 2^22 bits
_SIGN_LEVELS = 17


def _cyclotomic(n):
    """Coefficients of Phi_n: x^n - 1 divided exactly by every Phi_d, d | n,
    d < n.  Each Phi_d is monic, so the long division stays in Z."""
    if n in _CYCLOTOMIC:
        return _CYCLOTOMIC[n]
    p = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q = _cyclotomic(d)
            dq = len(q) - 1
            quot = [0] * (len(p) - dq)
            for k in range(len(quot) - 1, -1, -1):
                c = p[k + dq]
                if c:
                    quot[k] = c
                    for i, qi in enumerate(q):
                        if qi:
                            p[k + i] -= c * qi
            if any(p[:dq]):
                raise FieldInvariantError(
                    "dividing x^%d - 1 by Phi_%d leaves a remainder" % (n, d))
            p = quot
    _CYCLOTOMIC[n] = p = tuple(p)
    return p


def _euler_phi(n):
    out = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out -= out // m
    return out


def _canonical(field, num, den):
    """The element num/den with den > 0, divided by gcd(den, *num)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return CycloElem(field, tuple(num), den)


def _mismatch(field, x):
    return FieldMismatch("mixing Q(zeta_%d) and Q(zeta_%d); coerce explicitly"
                         % (field.n, x.field.n))


def _as_element(field, x):
    """x as an element of field: an int or Fraction is embedded, any other
    type but an element gives None, and an element of another field
    raises FieldMismatch."""
    if isinstance(x, CycloElem):
        if x.field is not field and x.field != field:
            raise _mismatch(field, x)
        return x
    if isinstance(x, (int, Fraction)):
        return field.from_rational(x)
    return None


def _product_sums(field, xs, avals, entries, ncols):
    """The row xs + avals*M in field, for M the row-major matrix entries
    with ncols columns.

    Output entry j accumulates the integer convolutions of its nonzero
    terms avals[i]*M[i][j], unfolded, over one common denominator; a
    term whose denominator den(a)*den(b) differs rescales the sum, the
    term or both to their lcm.  An entry with a term is folded and made
    canonical once; an entry without one is xs[j] itself.  Degree 2 has
    its 2 x 2 convolution written out, since at that size the loop
    overhead is most of a term's cost.  Raises FieldMismatch when an
    operand it reads is not an element of field.
    """
    deg = field.degree
    accs = [None] * ncols
    dens = [0] * ncols  # 0 until entry j has a term
    for i, a in enumerate(avals):
        if a.field is not field:
            raise _mismatch(field, a)
        anum = a.num
        if not any(anum):
            continue
        aden = a.den
        for j, b in enumerate(entries[i * ncols:(i + 1) * ncols]):
            if b.field is not field:
                raise _mismatch(field, b)
            bnum = b.num
            if not any(bnum):
                continue
            acc = accs[j]
            if acc is None:
                acc = accs[j] = [0] * (2 * deg - 1)
                x = xs[j]
                if x.field is not field:
                    raise _mismatch(field, x)
                if any(x.num):
                    acc[:deg] = x.num
                    dens[j] = x.den
            den, d = dens[j], aden * b.den
            cnum = anum
            if d != den:
                if den:
                    g = gcd(den, d)
                    k, m = den // g, d // g
                    if m != 1:
                        acc = accs[j] = [c * m for c in acc]
                        dens[j] = den * m
                    if k != 1:
                        cnum = [c * k for c in anum]
                else:
                    dens[j] = d
            if deg == 2:
                a0, a1 = cnum
                b0, b1 = bnum
                acc[0] += a0 * b0
                acc[1] += a0 * b1 + a1 * b0
                acc[2] += a1 * b1
            else:
                for p, c in enumerate(cnum):
                    if c:
                        for q, e in enumerate(bnum, p):
                            if e:
                                acc[q] += c * e
    out = []
    for j, acc in enumerate(accs):
        if acc is None:
            out.append(xs[j])
            continue
        num = acc[:deg]
        for row, c in zip(field._fold, acc[deg:]):
            if c:
                for p, t in row:
                    num[p] += c * t
        out.append(_canonical(field, num, dens[j]))
    return out


def _power_sum(field, terms):
    """Int coordinates in field of sum c * zeta^k over int pairs (k, c)."""
    out = [0] * field.degree
    for k, c in terms:
        if c:
            for i, p in enumerate(field._power(k)):
                if p:
                    out[i] += c * p
    return out


def _rational_sum(field, terms):
    """The element sum c * zeta^k over pairs (k, c), c rational."""
    terms = [(k, Fraction(c)) for k, c in terms]
    den = lcm(*(c.denominator for _, c in terms))
    return _canonical(field, _power_sum(field, [
        (k, c.numerator * (den // c.denominator)) for k, c in terms]), den)


def _cosine_bounds(n, count, prec):
    """(lo_k, hi_k) with lo_k <= 2^prec * cos(2*pi*k/n) <= hi_k, k < count.

    lo_k and hi_k are the floor and ceiling of 2^prec times the endpoints
    of mpmath's outward-rounded interval cosine at precision prec.
    """
    global _INTERVALS
    if _INTERVALS is None:
        import mpmath
        _INTERVALS = mpmath.ctx_iv.MPIntervalContext()
    from mpmath.libmp import mpf_shift, to_int
    ctx = _INTERVALS
    ctx.prec = prec
    two_pi = 2 * ctx.pi
    out = []
    for k in range(count):
        a, b = ctx.cos(two_pi * k / n)._mpi_
        out.append((to_int(mpf_shift(a, prec), "f"),
                    to_int(mpf_shift(b, prec), "c")))
    return tuple(out)


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _half_gcdex(a, m):
    """(s, c) with s*a = c mod m, c a nonzero int, for integer polynomials
    a and m, m irreducible of higher degree than a.

    The extended Euclidean algorithm on pseudo-remainders: each step makes
    r0 <- u*r0 - v*z^k*r1 and s0 <- u*s0 - v*z^k*s1, keeping s_i*a = r_i
    mod m, then divides the pair (r0, s0) by its common content.
    """
    r0, r1 = list(m), _trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        lead, n1 = r1[-1], len(r1)
        while len(r0) >= n1:
            c = r0[-1]
            g = gcd(lead, c)
            u, v = lead // g, c // g
            if u != 1:
                r0 = [u * x for x in r0]
                s0 = [u * x for x in s0]
            k = len(r0) - n1
            for i, y in enumerate(r1, k):
                r0[i] -= v * y
            if len(s0) < len(s1) + k:
                s0 += [0] * (len(s1) + k - len(s0))
            for i, y in enumerate(s1, k):
                s0[i] -= v * y
            _trim(r0)
        g = gcd(*r0, *s0)
        if g > 1:
            r0 = [x // g for x in r0]
            s0 = [x // g for x in s0]
        r0, r1, s0, s1 = r1, r0, s1, s0
    if not r1:
        raise FieldInvariantError("element shares a factor with the modulus")
    return s1, r1[0]


class CycloField:
    """The field Q(zeta_n), a value object keyed by n."""

    __slots__ = ("n", "degree", "modulus", "_powers", "_fold", "_zeros",
                 "_cos_bounds", "_galois_maps")

    _instances = {}

    def __new__(cls, n):
        if n < 1:
            raise ValueError("cyclotomic order must be >= 1")
        if n in cls._instances:
            return cls._instances[n]
        self = object.__new__(cls)
        self.n = n
        self.modulus = _cyclotomic(n)
        self.degree = deg = len(self.modulus) - 1
        if deg != _euler_phi(n):
            raise FieldInvariantError("Phi_%d has degree %d, not phi(%d)"
                                      % (n, deg, n))
        self._zeros = (0,) * deg
        # z^k reduced mod Phi_n, filled lazily past the power basis
        self._powers = [None] * n
        for k in range(deg):
            self._powers[k] = self._zeros[:k] + (1,) + self._zeros[k + 1:]
        # the nonzero (i, c) of z^k mod Phi_n, for deg <= k <= 2*deg - 2
        self._fold = tuple(
            tuple((i, c) for i, c in enumerate(self._power(k)) if c)
            for k in range(deg, 2 * deg - 1))
        # level j: the _cosine_bounds of z^0..z^(deg-1) at 64 * 2^j bits,
        # built when an element first needs that level
        self._cos_bounds = []
        # (source n, step) -> the nonzero (i, c) of z^(step*k) mod Phi_n for
        # k < phi(source n), built when an element is first mapped that way
        self._galois_maps = {}
        cls._instances[n] = self
        return self

    def __repr__(self):
        return "CycloField(%d)" % self.n

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.n == self.n

    def __hash__(self):
        return hash(("CycloField", self.n))

    def _power(self, k):
        """Int coefficients of z^k mod Phi_n, for any integer k."""
        k %= self.n
        powers = self._powers
        if powers[k] is None:
            j = k - 1
            while powers[j] is None:
                j -= 1
            cur = list(powers[j])
            low = self.modulus[:-1]
            for m in range(j + 1, k + 1):
                top = cur.pop()
                cur.insert(0, 0)
                if top:
                    for i, c in enumerate(low):
                        if c:
                            cur[i] -= top * c
                powers[m] = tuple(cur)
        return powers[k]

    def element(self, coeffs):
        """sum_k coeffs[k] z^k, for a list of rationals of any length."""
        return _rational_sum(self, enumerate(coeffs))

    def zero(self):
        return CycloElem(self, self._zeros, 1)

    def one(self):
        return CycloElem(self, self._powers[0], 1)

    def from_rational(self, q):
        q = Fraction(q)
        return CycloElem(self, (q.numerator,) + self._zeros[1:],
                         q.denominator)

    def zeta(self, k=1):
        """The root of unity zeta_n^k."""
        return CycloElem(self, self._power(k), 1)


class CycloElem:
    """num/den in Q(zeta_n), canonical: den > 0, gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions (a read-only view)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _add_or_sub(self, x, op):
        x = _as_element(self.field, x)
        if x is None:
            return NotImplemented
        d1, d2 = self.den, x.den
        if d1 == d2:
            num = tuple(map(op, self.num, x.num))
            if d1 == 1:
                return CycloElem(self.field, num, 1)
            return _canonical(self.field, num, d1)
        g = gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        return _canonical(self.field, [op(a * m1, b * m2) for a, b in
                                       zip(self.num, x.num)], d1 * m1)

    def __add__(self, x):
        return self._add_or_sub(x, add)

    __radd__ = __add__

    def __sub__(self, x):
        return self._add_or_sub(x, sub)

    def __rsub__(self, x):
        x = _as_element(self.field, x)
        if x is None:
            return NotImplemented
        return x - self

    def __neg__(self):
        return CycloElem(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, x):
        x = _as_element(self.field, x)
        if x is None:
            return NotImplemented
        f = self.field
        return _product_sums(f, (f.zero(),), (self,), (x,), 1)[0]

    __rmul__ = __mul__

    def __truediv__(self, x):
        x = _as_element(self.field, x)
        if x is None:
            return NotImplemented
        return self * x.inverse()

    def __rtruediv__(self, x):
        x = _as_element(self.field, x)
        if x is None:
            return NotImplemented
        return x * self.inverse()

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, x):
        if isinstance(x, (int, Fraction)):
            x = self.field.from_rational(x)
        if not isinstance(x, CycloElem):
            return NotImplemented
        return self.num == x.num and self.den == x.den and \
            self.field == x.field

    def __hash__(self):
        # a rational element equals that int or Fraction, so hashes like it
        num = self.num
        if not any(num[1:]):
            return hash(Fraction(num[0], self.den) if self.den > 1 else num[0])
        return hash((self.field, num, self.den))

    def __bool__(self):
        return any(self.num)

    def inverse(self):
        """1/self: s*num = c mod Phi_n from the integer Euclid, so
        1/self = den*s/c."""
        f = self.field
        num = self.num
        if not any(num):
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % f.n)
        s, c = _half_gcdex(num, f.modulus)
        if c < 0:
            s, c = [-a for a in s], -c
        out = [self.den * a for a in s]
        return _canonical(f, out + [0] * (f.degree - len(out)), c)

    def _galois(self, target, step):
        """The image in target under zeta_n -> zeta_N^step.

        target keeps, per (n, step), the nonzero terms of each image
        zeta_N^(step*k) of a power-basis vector, so an image costs one int
        product per nonzero term of the table.  It maps Z[zeta_n] into
        Z[zeta_N], and Z[zeta_N] meets the image of Q(zeta_n) in the
        image of Z[zeta_n] alone, so an int divides the image of num only
        if it divides num: the image stays canonical.
        """
        key = (self.field.n, step)
        table = target._galois_maps.get(key)
        if table is None:
            table = target._galois_maps[key] = tuple(
                tuple((i, c) for i, c in enumerate(target._power(step * k))
                      if c)
                for k in range(self.field.degree))
        out = [0] * target.degree
        for c, row in zip(self.num, table):
            if c:
                for i, t in row:
                    out[i] += c * t
        return CycloElem(target, tuple(out), self.den)

    def conjugate(self):
        """Image under zeta -> zeta^(n-1), complex conjugation."""
        return self._galois(self.field, -1)

    def coerce(self, target):
        """Embed into Q(zeta_N) via zeta_n -> zeta_N^(N/n); needs n | N."""
        f = self.field
        if target == f:
            return self
        if target.n % f.n != 0:
            raise NoEmbedding("no embedding of Q(zeta_%d) into Q(zeta_%d)"
                              % (f.n, target.n))
        return self._galois(target, target.n // f.n)

    def is_real(self):
        return self.conjugate() == self

    def sign(self):
        """Sign of a real element under the embedding zeta_n = exp(2*pi*i/n).

        Zero is decided symbolically.  Otherwise, with integer bounds
        lo_k <= 2^p * cos(2*pi*k/n) <= hi_k (the field's table at
        precision p), 2^p * num lies between the exact integer sums
        low = sum_k c_k * (lo_k if c_k > 0 else hi_k) and high =
        sum_k c_k * (hi_k if c_k > 0 else lo_k); den is positive.  The
        sign is +1 if low > 0 and -1 if high < 0; otherwise p doubles,
        from 64 bits, building the next level of the table when first
        needed.
        """
        if not self.is_real():
            raise NotReal("element is not fixed by conjugation: %s" % self)
        if not self:
            return 0
        f = self.field
        levels = f._cos_bounds
        for level in range(_SIGN_LEVELS):
            if level == len(levels):
                levels.append(_cosine_bounds(f.n, f.degree, 64 << level))
            low = high = 0
            for c, (lo, hi) in zip(self.num, levels[level]):
                if c > 0:
                    low += c * lo
                    high += c * hi
                elif c < 0:
                    low += c * hi
                    high += c * lo
            if low > 0:
                return 1
            if high < 0:
                return -1
        raise FieldInvariantError(
            "interval refinement did not separate %r from 0" % self)

    def __repr__(self):
        return format_element(self)

    def __str__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# element literals: polynomials in z over Q, e.g. "-1/2*z^2 + 3"


def format_element(x):
    """The literal of x, highest power of z first, each coefficient in
    lowest terms (one gcd with den per nonzero coefficient)."""
    den, parts = x.den, []
    for k in range(x.field.degree - 1, -1, -1):
        c = x.num[k]
        if not c:
            continue
        a = abs(c)
        g = gcd(a, den)
        mag = str(a // g) if g == den else "%d/%d" % (a // g, den // g)
        if k == 0:
            body = mag
        else:
            zp = "z" if k == 1 else "z^%d" % k
            body = zp if a == den else "%s*%s" % (mag, zp)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts) if parts else "0"


_TERM_SPLIT_OK = set("0123456789z^/* \t")


def parse_element(text, field):
    """Parse an element literal into the given field."""
    s = text.strip()
    if not s:
        raise LiteralSyntaxError("empty element literal")
    if any(ch not in _TERM_SPLIT_OK and ch not in "+-" for ch in s):
        raise LiteralSyntaxError("bad character in element literal %r" % text)
    # split into signed terms at top level
    terms = []
    sign, buf = 1, []
    for ch in s:
        if ch in "+-":
            content = "".join(buf).strip()
            if content:
                terms.append((sign, content))
                sign, buf = 1, []
            sign *= -1 if ch == "-" else 1
        else:
            buf.append(ch)
    last = "".join(buf).strip()
    if not last:
        raise LiteralSyntaxError("trailing operator in %r" % text)
    terms.append((sign, last))

    # each term's coefficient added up by its exponent mod n
    sums = {}
    for sign, term in terms:
        coeff, k = _parse_term(term, text)
        k %= field.n
        sums[k] = sums.get(k, 0) + sign * coeff
    return _rational_sum(field, sums.items())


def _parse_term(term, whole):
    """(coefficient, exponent) of one unsigned term, exponent 0 without z."""
    factors = [f.strip() for f in term.split("*")]
    if not all(factors):
        raise LiteralSyntaxError("empty factor in %r" % whole)
    coeff = Fraction(1)
    zexp = None
    for f in factors:
        if f.startswith("z"):
            if zexp is not None:
                raise LiteralSyntaxError("repeated z factor in %r" % whole)
            if f == "z":
                zexp = 1
            elif f.startswith("z^"):
                try:
                    zexp = int(f[2:])
                except ValueError:
                    raise LiteralSyntaxError("bad exponent in %r" % whole)
                if zexp < 0:
                    raise LiteralSyntaxError("negative exponent in %r" % whole)
            else:
                raise LiteralSyntaxError("bad factor %r in %r" % (f, whole))
        else:
            try:
                coeff *= Fraction(f)
            except (ValueError, ZeroDivisionError):
                raise LiteralSyntaxError("bad rational %r in %r" % (f, whole))
    return coeff, zexp or 0
