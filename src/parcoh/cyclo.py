"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Elements are stored in the power basis 1, z, ..., z^(phi(n)-1) with
rational coefficients, eagerly reduced mod the n-th cyclotomic
polynomial, so equality and the zero test are exact coefficient
comparisons.  n = 1 gives plain Q.
"""

from fractions import Fraction

from .errors import FieldMismatch, NoEmbedding, NotReal, LiteralSyntaxError

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction, coefficient lists low degree first


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return _poly_trim(out)


def _poly_sub(p, q):
    n = max(len(p), len(q))
    out = [(p[i] if i < len(p) else _ZERO) - (q[i] if i < len(q) else _ZERO)
           for i in range(n)]
    return _poly_trim(out)


def _poly_divmod(p, q):
    """Quotient and remainder of p by q (q nonzero, exact division over Q)."""
    p = _poly_trim(list(p))
    dq = len(q) - 1
    lead = q[-1]
    quot = [_ZERO] * max(len(p) - dq, 0)
    while p and len(p) - 1 >= dq:
        c = p[-1] / lead
        k = len(p) - 1 - dq
        quot[k] = c
        for i in range(len(q)):
            p[k + i] -= c * q[i]
        _poly_trim(p)
    return _poly_trim(quot), p


def _cyclotomic(n, cache={1: [Fraction(-1), _ONE]}):
    """Coefficients of Phi_n, by dividing x^n - 1 by all lower Phi_d, d | n."""
    if n in cache:
        return cache[n]
    p = [_ZERO] * (n + 1)
    p[0], p[n] = Fraction(-1), _ONE
    for d in range(1, n):
        if n % d == 0:
            p, rem = _poly_divmod(p, _cyclotomic(d))
            assert not rem
    cache[n] = p
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


class CycloField:
    """The field Q(zeta_n), a value object keyed by n."""

    __slots__ = ("n", "degree", "modulus", "_powers")

    _instances = {}

    def __new__(cls, n):
        if n < 1:
            raise ValueError("cyclotomic order must be >= 1")
        if n in cls._instances:
            return cls._instances[n]
        self = object.__new__(cls)
        self.n = n
        self.modulus = tuple(_cyclotomic(n))
        self.degree = len(self.modulus) - 1
        assert self.degree == _euler_phi(n)
        self._powers = [None] * n  # z^k reduced, filled lazily
        cls._instances[n] = self
        return self

    def __repr__(self):
        return "CycloField(%d)" % self.n

    def __eq__(self, other):
        return isinstance(other, CycloField) and other.n == self.n

    def __hash__(self):
        return hash(("CycloField", self.n))

    def _power(self, k):
        """Coefficients of z^k mod Phi_n, for 0 <= k < n."""
        k %= self.n
        if self._powers[k] is None:
            if k < self.degree:
                c = [_ZERO] * self.degree
                c[k] = _ONE
                self._powers[k] = tuple(c)
            else:
                prev = list(self._power(k - 1))
                shifted = [_ZERO] + prev
                if len(shifted) > self.degree:
                    top = shifted.pop()
                    if top:
                        for i in range(self.degree):
                            shifted[i] -= top * self.modulus[i]
                self._powers[k] = tuple(shifted)
        return self._powers[k]

    def element(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            _, rem = _poly_divmod(coeffs, list(self.modulus))
            coeffs = rem
        coeffs += [_ZERO] * (self.degree - len(coeffs))
        return CycloElem(self, tuple(coeffs))

    def zero(self):
        return self.element([])

    def one(self):
        return self.element([_ONE])

    def from_rational(self, q):
        return self.element([Fraction(q)])

    def zeta(self, k=1):
        """The root of unity zeta_n^k."""
        return CycloElem(self, self._power(k))


class CycloElem:
    """An element of Q(zeta_n) in reduced power-basis form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    def _other(self, x):
        if isinstance(x, CycloElem):
            if x.field != self.field:
                raise FieldMismatch(
                    "mixing Q(zeta_%d) and Q(zeta_%d); coerce explicitly"
                    % (self.field.n, x.field.n))
            return x
        if isinstance(x, (int, Fraction)):
            return self.field.from_rational(x)
        return None

    def __add__(self, x):
        x = self._other(x)
        if x is None:
            return NotImplemented
        return CycloElem(self.field,
                         tuple(a + b for a, b in zip(self.coeffs, x.coeffs)))

    __radd__ = __add__

    def __sub__(self, x):
        x = self._other(x)
        if x is None:
            return NotImplemented
        return CycloElem(self.field,
                         tuple(a - b for a, b in zip(self.coeffs, x.coeffs)))

    def __rsub__(self, x):
        x = self._other(x)
        if x is None:
            return NotImplemented
        return x - self

    def __neg__(self):
        return CycloElem(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, x):
        x = self._other(x)
        if x is None:
            return NotImplemented
        prod = _poly_mul(list(self.coeffs), list(x.coeffs))
        if len(prod) >= len(self.coeffs):
            _, prod = _poly_divmod(prod, list(self.field.modulus))
        prod += [_ZERO] * (self.field.degree - len(prod))
        return CycloElem(self.field, tuple(prod))

    __rmul__ = __mul__

    def __truediv__(self, x):
        x = self._other(x)
        if x is None:
            return NotImplemented
        return self * x.inverse()

    def __rtruediv__(self, x):
        x = self._other(x)
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
        return self.field == x.field and self.coeffs == x.coeffs

    def __hash__(self):
        # a rational element equals that int or Fraction, so hashes like it
        c = self.coeffs
        if not any(c[1:]):
            return hash(c[0])
        return hash((self.field, c))

    def __bool__(self):
        return any(self.coeffs)

    def inverse(self):
        """1/self via extended Euclid against the (irreducible) modulus."""
        if not self:
            raise ZeroDivisionError("division by zero in Q(zeta_%d)" % self.field.n)
        # invariant: s_i * self = r_i  (mod Phi_n)
        r0, r1 = list(self.field.modulus), _poly_trim(list(self.coeffs))
        s0, s1 = [], [_ONE]
        while len(r1) > 1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        assert r1, "modulus not coprime to a nonzero element"
        c = r1[0]
        return self.field.element([a / c for a in s1])

    def conjugate(self):
        """Image under zeta -> zeta^(n-1), complex conjugation."""
        f = self.field
        out = [_ZERO] * f.degree
        for k, c in enumerate(self.coeffs):
            if c:
                for i, p in enumerate(f._power((-k) % f.n)):
                    out[i] += c * p
        return CycloElem(f, tuple(out))

    def coerce(self, target):
        """Embed into Q(zeta_N) via zeta_n -> zeta_N^(N/n); needs n | N."""
        f = self.field
        if target == f:
            return self
        if target.n % f.n != 0:
            raise NoEmbedding("no embedding of Q(zeta_%d) into Q(zeta_%d)"
                              % (f.n, target.n))
        step = target.n // f.n
        out = [_ZERO] * target.degree
        for k, c in enumerate(self.coeffs):
            if c:
                for i, p in enumerate(target._power(step * k)):
                    out[i] += c * p
        return CycloElem(target, tuple(out))

    def is_real(self):
        return self.conjugate() == self

    def sign(self):
        """Sign of a real element under the embedding zeta_n = exp(2*pi*i/n).

        Zero is decided symbolically; otherwise the embedding is evaluated
        with outward-rounded interval arithmetic at doubling precision until
        the interval misses 0.
        """
        if not self.is_real():
            raise NotReal("element is not fixed by conjugation: %s" % self)
        if not self:
            return 0
        import mpmath
        ctx = mpmath.ctx_iv.MPIntervalContext()
        prec = 64
        while prec <= 1 << 22:
            ctx.prec = prec
            total = ctx.zero
            two_pi = 2 * ctx.pi
            for k, c in enumerate(self.coeffs):
                if c:
                    coeff = ctx.mpf(c.numerator) / ctx.mpf(c.denominator)
                    total += coeff * ctx.cos(two_pi * k / self.field.n)
            if total > 0:
                return 1
            if total < 0:
                return -1
            prec *= 2
        raise RuntimeError("interval refinement did not separate %r from 0" % self)

    def __repr__(self):
        return format_element(self)

    def __str__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# element literals: polynomials in z over Q, e.g. "-1/2*z^2 + 3"


def format_element(x):
    parts = []
    for k in range(x.field.degree - 1, -1, -1):
        c = x.coeffs[k]
        if not c:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            zp = "z" if k == 1 else "z^%d" % k
            body = zp if abs(c) == 1 else "%s*%s" % (abs(c), zp)
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

    out = field.zero()
    for sign, term in terms:
        out = out + _parse_term(term, field, text) * sign
    return out


def _parse_term(term, field, whole):
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
    val = field.from_rational(coeff)
    if zexp is not None:
        val = val * field.zeta(zexp % field.n)
    return val
