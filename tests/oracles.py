"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths of the library routines they
check: the cup oracle accumulates twisted chains instead of the rolling
T-sum, the signature oracle counts numerical eigenvalue signs of the
complex embedding instead of doing exact congruence reduction, and the
Phi oracle multiplies dense (r d) x (r d) letter matrices instead of
updating two block columns per letter, and the field oracles multiply and
invert with Fraction polynomials (schoolbook product reduced by long
division, extended Euclid over Q) and print literals from Fraction
coefficients instead of integer numerators over one denominator.  The H
oracle intersects the direct sum of the block images Im(g_i - 1) with
the kernel of the cocycle relation instead of taking the left kernel of
one check matrix.  The elimination oracles solve
x*a = b on the augmented matrix [a^T | b^T] instead of one tracked
elimination of a^T, and take the left kernel from the transform of a
tracked elimination of the rows of a followed by a second RREF instead
of reading it off one elimination of the columns.  The sign oracle
evaluates interval cosines with mpmath on every call instead of summing
cached integer bounds, and the Galois oracle sums the dense reduced
powers of zeta over every coefficient pair instead of reading a field's
sparse table.  The product oracle convolves and folds two numerators on
their own instead of through the row kernel, and the literal oracle
builds an element per term with the element operators instead of
adding up coefficients by exponent and reducing once.  The row-kernel oracles form every product and every sum
with the element operators instead of accumulating integer convolutions
over a common denominator.  The ambient route to W applies (r d) x (r d)
chain maps (psi, compose, induced_on_W) to the H and E basis vectors
instead of moving and twisting the basis rows letter by letter.
"""

from fractions import Fraction

import mpmath

from helpers import block_diag
from parcoh.braid import ChainMap, _on_W
from parcoh.cyclo import CycloElem, _canonical, _power_sum
from parcoh.errors import (FieldInvariantError, LiteralSyntaxError,
                           NotHermitian, NotReal, TupleMismatch)
from parcoh.linalg import (Matrix, Subspace, _rref_rows, dot, kernel_left,
                           vec_add, vec_mat, vec_sub)


def cup_chain_oracle(gstar, g, phi, psi):
    """Pair two parabolic cocycles by accumulating w-chains.

    Chains w_i = v_i + w_(i-1) g_i are built for both arguments; the value
    is sum_i < wstar_i - wstar_(i-1), u_i - w_(i-1) > where u_i is any
    solution of u_i (g_i - 1) = w_i - w_(i-1).
    """
    d, r = g.dim, g.r
    blocks = lambda v: [tuple(v[i * d:(i + 1) * d]) for i in range(r)]
    vs, ws = blocks(phi), blocks(psi)
    zero = tuple(g.field.zero() for _ in range(d))
    wstar = [zero]
    for i in range(r):
        wstar.append(vec_add(vs[i], vec_mat(wstar[-1], gstar.mats[i])))
    wch = [zero]
    for i in range(r):
        wch.append(vec_add(ws[i], vec_mat(wch[-1], g.mats[i])))
    ident = Matrix.identity(g.field, d)
    total = g.field.zero()
    for i in range(1, r + 1):
        diff = vec_sub(wch[i], wch[i - 1])
        u = solve_row_oracle(g.mats[i - 1] - ident, diff)
        assert u is not None, "second argument is not parabolic"
        total = total + dot(vec_sub(wstar[i], wstar[i - 1]),
                            vec_sub(u, wch[i - 1]))
    return total


def _embed(x, prec=80):
    """Complex floating value of a cyclotomic element."""
    with mpmath.workprec(prec):
        n = x.field.n
        total = mpmath.mpc(0)
        for k, c in enumerate(x.coeffs):
            if c:
                coeff = mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                total += coeff * mpmath.e ** (2j * mpmath.pi * k / n)
        return total


def numeric_signature(G, prec=80):
    """Inertia (p, q, nullity) from numerical eigenvalues of the embedding.

    Only safe for well-separated spectra; the tests feed it matrices whose
    exact inertia is being cross-checked, not decided.
    """
    n = G.rows
    if n == 0:
        return (0, 0, 0)
    with mpmath.workprec(prec):
        A = mpmath.matrix(n)
        for i in range(n):
            for j in range(n):
                A[i, j] = _embed(G[i, j], prec)
        A = (A + A.transpose_conj()) * 0.5  # scrub rounding asymmetry
        eigvals = mpmath.eigh(A, eigvals_only=True)
        scale = max([mpmath.mpf(1)] + [abs(e) for e in eigvals])
        tol = scale * mpmath.mpf(2) ** (20 - prec)
        p = sum(1 for e in eigvals if e > tol)
        q = sum(1 for e in eigvals if e < -tol)
        return (p, q, n - p - q)


def signature_oracle(G):
    """Inertia (p, q, nullity) by congruence on the full matrix: each
    pivot takes a row operation over all columns and the matching column
    operation over all rows, and a zero diagonal is first swapped with a
    later nonzero one or, failing that, repaired by the transvection
    row_j += G[j][l]*row_l, col_j += conj(G[j][l])*col_l."""
    if G != G.conj_transpose():
        raise NotHermitian("matrix is not conjugate-symmetric")
    n = G.rows
    rows = [list(G.row(i)) for i in range(n)]

    def addrow(j, l, c):
        # row_j += c*row_l, then col_j += conj(c)*col_l
        rows[j] = [x + c * y if y else x for x, y in zip(rows[j], rows[l])]
        cc = c.conjugate()
        for row in rows:
            if row[l]:
                row[j] = row[j] + cc * row[l]

    def swap(j, l):
        rows[j], rows[l] = rows[l], rows[j]
        for x in range(n):
            rows[x][j], rows[x][l] = rows[x][l], rows[x][j]

    p = q = nullity = 0
    for k in range(n):
        if not rows[k][k]:
            hit = next((j for j in range(k + 1, n) if rows[j][j]), None)
            if hit is not None:
                swap(k, hit)
            else:
                pair = next(((j, l) for j in range(k, n)
                             for l in range(j + 1, n) if rows[j][l]), None)
                if pair is None:
                    nullity += n - k
                    break
                j, l = pair
                addrow(j, l, rows[j][l])
                if j != k:
                    swap(k, j)
        piv = rows[k][k]
        s = piv.sign()
        if s == 0:
            raise FieldInvariantError("nonzero pivot %s has sign 0" % piv)
        if s > 0:
            p += 1
        else:
            q += 1
        inv = piv.inverse()
        for j in range(k + 1, n):
            if rows[j][k]:
                addrow(j, k, -(rows[j][k] * inv))
    return (p, q, nullity)


def _phi_letter_matrix(mats, d, i):
    """Dense matrix of Phi(g, b_(i+1)): H_g -> H_(g^b_(i+1)), i 0-based.

    Blocks: position i receives v_(i+1); position i+1 receives
    v_(i+1)*(1 - g_(i+1)^-1 g_i g_(i+1)) + v_i*g_(i+1); every other
    block passes through.
    """
    r = len(mats)
    field = mats[0].field
    gi, gi1 = mats[i], mats[i + 1]
    ident = Matrix.identity(field, d)
    blocks = {(j, j): ident for j in range(r) if j not in (i, i + 1)}
    blocks[(i + 1, i)] = ident
    blocks[(i, i + 1)] = gi1
    blocks[(i + 1, i + 1)] = ident - gi1.inverse() * gi * gi1
    ent = [field.zero()] * (r * d) ** 2
    for (bi, bj), m in blocks.items():
        for a in range(d):
            for b in range(d):
                ent[(bi * d + a) * (r * d) + bj * d + b] = m[a, b]
    return Matrix(field, r * d, r * d, ent)


def phi_dense_oracle(g, beta):
    """Phi(g, beta) as a product of dense letter matrices; (matrix, mats).

    A positive letter multiplies by the generator matrix at the current
    tuple; an inverse letter multiplies by the full inverse of the
    generator matrix taken at the tuple it moves to.  mats is the moved
    tuple as a list of matrices.
    """
    d = g.dim
    mats = list(g.mats)
    total = Matrix.identity(g.field, g.r * d)
    for idx, exp in beta.letters:
        i = idx - 1
        a, b = mats[i], mats[i + 1]
        if exp == 1:
            step = _phi_letter_matrix(mats, d, i)
            mats[i], mats[i + 1] = b, b.inverse() * a * b
        else:
            mats[i], mats[i + 1] = a * b * a.inverse(), a
            step = _phi_letter_matrix(mats, d, i).inverse()
        total = total * step
    return total, mats


def psi(g, h):
    """Psi(g, h): H_(h g h^-1) -> H_g, blockwise right multiplication by h."""
    domain = g.conjugated(h)
    return ChainMap(domain, g, block_diag(g.field, [h] * g.r))


def compose(first, second):
    """The chain map first then second (domains must chain)."""
    if second.domain_tuple != first.codomain_tuple:
        raise TupleMismatch("chain maps do not compose: the second "
                            "starts at another tuple")
    return ChainMap(first.domain_tuple, second.codomain_tuple,
                    first.matrix * second.matrix)


def induced_on_W(chain_map, dom, cod):
    """Matrix of the induced map W_dom -> W_cod in the chart bases, from
    the ambient images of dom's H and E basis vectors."""
    if dom.tuple != chain_map.domain_tuple:
        raise TupleMismatch("chain map starts at another tuple")
    if cod.tuple != chain_map.codomain_tuple:
        raise TupleMismatch("chain map ends at another tuple")
    return _on_W([vec_mat(v, chain_map.matrix)
                  for v in dom.H.basis + dom.E.basis], dom, cod)


# ---------------------------------------------------------------------------
# cyclotomic field arithmetic on Fraction coefficient lists, low degree first


def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_sub(p, q):
    p = p + [0] * (len(q) - len(p))
    q = q + [0] * (len(p) - len(q))
    return _poly_trim([a - b for a, b in zip(p, q)])


def _poly_divmod(p, q):
    """Quotient and remainder of p by a nonzero q over Q."""
    p = _poly_trim(list(p))
    dq = len(q) - 1
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    while p and len(p) - 1 >= dq:
        c = Fraction(p[-1]) / q[-1]
        k = len(p) - 1 - dq
        quot[k] = c
        for i in range(len(q)):
            p[k + i] -= c * q[i]
        _poly_trim(p)
    return _poly_trim(quot), p


def _padded(p, deg):
    return tuple(Fraction(c) for c in p) + (Fraction(0),) * (deg - len(p))


def fraction_mul(a, b):
    """Coefficients of a*b: schoolbook Fraction product mod Phi_n."""
    _, rem = _poly_divmod(_poly_mul(list(a.coeffs), list(b.coeffs)),
                          list(a.field.modulus))
    return _padded(rem, a.field.degree)


def fraction_inverse(a):
    """Coefficients of 1/a: extended Euclid over Q against Phi_n."""
    # invariant: s_i * a = r_i  (mod Phi_n)
    r0, r1 = list(a.field.modulus), _poly_trim(list(a.coeffs))
    s0, s1 = [], [Fraction(1)]
    while len(r1) > 1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    c = r1[0]
    return _padded([x / c for x in s1], a.field.degree)


def galois_oracle(x, target, step):
    """The image of x in target under zeta_n -> zeta_N^step, summing
    num[k] times every coordinate of zeta_N^(step*k)."""
    return CycloElem(target, tuple(_power_sum(
        target, [(step * k, c) for k, c in enumerate(x.num)])), x.den)


def mul_oracle(a, b):
    """a*b for elements of one field: the integer convolution of the
    numerators, folded with the field's table of z^k mod Phi_n, over
    den(a)*den(b), as the element product computed it before the row
    kernel."""
    f = a.field
    deg = f.degree
    prod = [0] * (2 * deg - 1)
    for i, x in enumerate(a.num):
        if x:
            for j, y in enumerate(b.num, i):
                if y:
                    prod[j] += x * y
    out = prod[:deg]
    for row, c in zip(f._fold, prod[deg:]):
        if c:
            for i, t in row:
                out[i] += c * t
    return _canonical(f, out, a.den * b.den)


def parse_oracle(text, field):
    """The literal parsed term by term with element arithmetic: one
    from_rational, one mul_oracle by a power of zeta and one element sum
    per term."""
    s = text.strip()
    if not s:
        raise LiteralSyntaxError("empty element literal")
    if any(ch not in "0123456789z^/* \t+-" for ch in s):
        raise LiteralSyntaxError("bad character in element literal %r" % text)
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
        val = _parse_term_oracle(term, field, text)
        out = out + val if sign > 0 else out - val
    return out


def _parse_term_oracle(term, field, whole):
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
        val = mul_oracle(val, field.zeta(zexp % field.n))
    return val


def format_element_oracle(x):
    """The element literal, built from the Fraction coefficients."""
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


def h_space_oracle(g):
    """H_g as the span C of the blocks of the Im(g_i - 1), cut down to
    the x*C whose twisted sum sum_i v_i*g_(i+1)*...*g_r vanishes."""
    F, d, r = g.field, g.dim, g.r
    ident = Matrix.identity(F, d)
    zero = F.zero()
    rows = []
    for i, m in enumerate(g.mats):
        img = Subspace.from_rows(F, d, (m - ident).row_list())
        for block in img.basis:
            row = [zero] * (r * d)
            row[i * d:(i + 1) * d] = block
            rows.append(tuple(row))
    c = Subspace.from_rows(F, r * d, rows)
    if c.dim == 0:
        return c
    cmat = Matrix.from_rows(F, list(c.basis))
    relation = Matrix.from_rows(F, [row for s in g.suffix_products()
                                    for row in s.row_list()])
    ker = kernel_left(cmat * relation)
    return Subspace.from_rows(F, r * d,
                              [vec_mat(x, cmat) for x in ker.basis])


# ---------------------------------------------------------------------------
# row products, elimination and sign, as computed before the integer
# and one-pass kernels


def row_times_oracle(v, entries, ncols, zero):
    """The row v times the row-major matrix entries, one element product
    and one element sum per nonzero term."""
    acc = [None] * ncols
    for i, a in enumerate(v):
        if a:
            base = i * ncols
            for j in range(ncols):
                y = entries[base + j]
                if y:
                    term = a * y
                    acc[j] = term if acc[j] is None else acc[j] + term
    return [zero if x is None else x for x in acc]


def sub_mul_oracle(xs, c, ys):
    """The row xs - c*ys with the element operators, x kept where y is 0."""
    return [x - c * y if y else x for x, y in zip(xs, ys)]


def solve_row_oracle(a, b):
    """Some x with x*a = b, or None, from the RREF of [a^T | b^T]; free
    coordinates of x are 0."""
    n = a.rows
    aug = []
    for j in range(a.cols):
        aug.append([a[i, j] for i in range(n)] + [b[j]])
    pivots = _rref_rows(aug)
    if n in pivots:
        return None  # pivot in the augmented column: inconsistent
    zero = a.field.zero()
    x = [zero] * n
    for k, col in enumerate(pivots):
        x[col] = aug[k][n]
    return tuple(x)


def kernel_left_oracle(a):
    """{x : x*a = 0}: the transform rows past the rank of a tracked
    elimination of the rows of a, put in RREF by a second elimination."""
    rows = [list(a.row(i)) for i in range(a.rows)]
    ident = Matrix.identity(a.field, a.rows)
    track = [list(ident.row(i)) for i in range(a.rows)]
    rank = len(_rref_rows(rows, track))
    kern = [tuple(track[i]) for i in range(rank, a.rows)]
    return Subspace.from_rows(a.field, a.rows, kern)


def sign_oracle(x):
    """Sign of a real element: the interval sum of num[k]*cos(2*pi*k/n)
    evaluated with mpmath at 64, 128, ... bits until it misses 0."""
    if not x.is_real():
        raise NotReal("element is not fixed by conjugation")
    if not x:
        return 0
    ctx = mpmath.ctx_iv.MPIntervalContext()
    prec = 64
    while prec <= 1 << 22:
        ctx.prec = prec
        total = ctx.zero
        two_pi = 2 * ctx.pi
        for k, c in enumerate(x.num):
            if c:
                total += ctx.mpf(c) * ctx.cos(two_pi * k / x.field.n)
        if total > 0:
            return 1
        if total < 0:
            return -1
        prec *= 2
    raise RuntimeError("interval refinement did not separate %r from 0" % x)
