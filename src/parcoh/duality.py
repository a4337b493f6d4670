"""The cup-product pairing on W, its Hermitian variant, exact signatures.

The pairing of a parabolic cocycle phi for the dual tuple g* with a
parabolic cocycle psi for g is

    phi cup psi = sum_i ( <v*_i, v'_i>
                  + sum_{j<i} <v*_j g*_{j+1}...g*_{i-1} (g*_i - 1), v'_i> )

where v'_i solves v'_i (g_i - 1) = v_i (any solution works; the value is
independent of the lift and of representatives mod E).  <,> is the
standard coordinate pairing.  The value splits as <chain_row(g*, phi),
the lift row of psi>: chain_row depends on phi only (block i is
v*_i + T_i (g*_i - 1), T_i the inner sum over j < i) and the lift row
on psi only (the lifts v'_1, ..., v'_r concatenated).

Hermitian form on W_g: (phi, psi) = -i * (kappa(conj(phi)) cup psi),
computed after coercing to Q(zeta_m) with m = lcm(n, 4) so that
i = zeta_m^(m/4) exists.  kappa sends a block v to conj(v)*J^T, the
coordinate form of the map V-bar -> V* induced by the Hermitian form
x, y -> x*J*conj(y)^T on V.

On the chart representatives rep_1, ..., rep_w of W_g the Gram matrix
is therefore one product, G = -i * A * L^T: row k of A is
chain_row(g*, kappa(rep_k)) and row l of L is the lift row of rep_l,
so the cost is w rows of r lifts each, not w^2 pairings.  chain_row is
linear, so the -i goes into kappa: its matrix is -i*J^T, d^2 products
once, and G = A * L^T with no w^2 products after it.  Each g_i - 1
is eliminated once per Gram, by the linalg.RowSolver that w_space keeps
in WSpace.solvers (see tuples): it lifts each block in O(d^2), and its
left kernel is block i of the check matrix K_(g*) of H_(g*), which
then costs only the suffix products of g*.  Every kappa image v is
checked by v*K_(g*) = 0; H_(g*) itself is never built.  A bilinear
form gives G = A * L^T with kappa(v) = v*J^T.

The form is conjugate-linear in the first argument and linear in the
second, so on W coordinates (rows) the value is conj(x)*G*y^T and a
monodromy matrix M preserves it iff conj(M)*G*M^T = G.  With these
conventions the signature formula of predicted_signature holds exactly:
signature(gram_on_W(g)) == predicted_signature(g), checked over random
rank-one root-of-unity tuples in the test suite.

signature reads the inertia off one triangle: an LDL* reduction that
replaces the active indices by their Hermitian Schur complement at each
pivot, about m^2/2 products for m active indices, where a congruence
row and column operation on the full matrix costs 1.5*m^2.
"""

from fractions import Fraction
from math import lcm

from .cyclo import CycloField
from .errors import (FieldInvariantError, FormNotInvariant, NonzeroH0,
                     NotHermitian, NotParabolic, NotRootOfUnity, TupleMismatch)
from .linalg import (Matrix, _scale, _sub_mul, dot, kernel_left, vec_add,
                     vec_conj, vec_mat, vec_sub)
from .tuples import (_check_matrix, _entry_solver, common_fixed_space,
                     dual_tuple, w_space)


def _lift(solver, v_i):
    x = solver.solve(v_i)
    if x is None:
        raise NotParabolic("block is not in the image of g_i - 1")
    return x


def _blocks(v, r, d):
    return [tuple(v[i * d:(i + 1) * d]) for i in range(r)]


def chain_row(gstar, phi):
    """The phi factor of the cup product, block i v*_i + T_i*(g*_i - 1).

    T_i = sum_{j<i} v*_j g*_(j+1)...g*_(i-1) is built incrementally.
    """
    d, r = gstar.dim, gstar.r
    T = tuple(gstar.field.zero() for _ in range(d))
    out = []
    for v, m in zip(_blocks(phi, r, d), gstar.mats):
        # T_(i+1) = T_i*g*_i + v*_i, so block i is T_(i+1) - T_i
        nxt = vec_add(vec_mat(T, m), v)
        out.extend(vec_sub(nxt, T))
        T = nxt
    return tuple(out)


def _lift_row(solvers, psi, d):
    """The psi factor of the cup product: its r lifts, concatenated."""
    out = []
    for solver, w in zip(solvers, _blocks(psi, len(solvers), d)):
        out.extend(_lift(solver, w))
    return tuple(out)


def _dual_check(ws, gstar):
    """K_(g*) for gstar = dual_tuple(ws.tuple), from the left kernels of
    the g_i - 1 (the right kernels of the g*_i - 1) in ws.solvers."""
    return _check_matrix([s.left_kernel() for s in ws.solvers],
                         gstar.suffix_products())


def _check_dual(gstar, g):
    """TupleMismatch unless gstar is dual_tuple(g), i.e. g_i^T * g*_i = 1."""
    if gstar.r != g.r or gstar.dim != g.dim or gstar.field != g.field:
        raise TupleMismatch("first tuple is not the dual of the second")
    ident = Matrix.identity(g.field, g.dim)
    for m, ms in zip(g.mats, gstar.mats):
        if m.transpose() * ms != ident:
            raise TupleMismatch("first tuple is not the dual of the second")


def cup_pairing(gstar, g, phi, psi, lifts=None):
    """The cup product of phi (cocycle for g*) with psi (cocycle for g).

    lifts, if given, must solve lifts[i]*(g_i - 1) = psi block i; any
    choice gives the same value, which the test suite exercises.
    """
    _check_dual(gstar, g)
    if lifts is None:
        row = _lift_row([_entry_solver(m) for m in g.mats], psi, g.dim)
    else:
        ident = Matrix.identity(g.field, g.dim)
        ws = _blocks(psi, g.r, g.dim)
        row = []
        for i in range(g.r):
            if vec_mat(lifts[i], g.mats[i] - ident) != ws[i]:
                raise NotParabolic("lift %d does not solve v'(g-1) = v"
                                   % (i + 1))
            row.extend(lifts[i])
    return dot(chain_row(gstar, phi), row)


_FORM_KINDS = ("hermitian", "bilinear-symmetric", "bilinear-alternating")


class SesquiData:
    """An invariant form on V: a kind tag plus its Gram matrix J."""

    __slots__ = ("kind", "J")

    def __init__(self, kind, J):
        if kind not in _FORM_KINDS:
            raise FormNotInvariant("unknown form kind %r" % (kind,))
        self.kind = kind
        self.J = J

    def check(self, g):
        """Verify shape, symmetry and g-invariance; raises FormNotInvariant."""
        J = self.J
        if J.rows != J.cols or J.rows != g.dim:
            raise FormNotInvariant("J is not %dx%d" % (g.dim, g.dim))
        if not J.is_invertible():
            raise FormNotInvariant("J is singular")
        if self.kind == "bilinear-symmetric" and J != J.transpose():
            raise FormNotInvariant("J is not symmetric")
        if self.kind == "bilinear-alternating" and J != -J.transpose():
            raise FormNotInvariant("J is not alternating")
        if self.kind == "hermitian" and J != J.conj_transpose():
            raise FormNotInvariant("J is not conjugate-symmetric")
        for k, m in enumerate(g.mats):
            tau = m.conj_transpose() if self.kind == "hermitian" else m.transpose()
            if m * J * tau != J:
                raise FormNotInvariant("g_%d does not preserve the form" % (k + 1))


class GramResult:
    __slots__ = ("G", "kind", "wspace")

    def __init__(self, G, kind, wspace):
        self.G = G
        self.kind = kind
        self.wspace = wspace


def _kappa_image(v_blocks, Jt, conj_first):
    out = []
    for b in v_blocks:
        bb = vec_conj(b) if conj_first else b
        out.extend(vec_mat(bb, Jt))
    return tuple(out)


def gram_on_W(g, form):
    """Gram matrix of the induced form on the W_g representative basis.

    G = A * L^T: row k of A is the chain_row of kappa(rep_k), row l of L
    is the lift row of rep_l.  For a hermitian form the factor -i is
    folded into kappa, whose matrix is then -i*J^T (d^2 products instead
    of w^2 on G); chain_row is linear, so G is the same.
    """
    form.check(g)
    hermitian = form.kind == "hermitian"
    if hermitian:
        m = lcm(g.field.n, 4)
        big = CycloField(m)
        g = g.coerce(big)
        Jt = form.J.coerce(big).transpose() * -big.zeta(m // 4)
        kind = "hermitian"
    else:
        Jt = form.J.transpose()
        kind = ("bilinear-alternating" if form.kind == "bilinear-symmetric"
                else "bilinear-symmetric")
    ws = w_space(g)
    reps = ws.chart.reps
    gstar = dual_tuple(g)
    Kstar = _dual_check(ws, gstar)
    A = []
    for rep in reps:
        phi = _kappa_image(_blocks(rep, g.r, g.dim), Jt,
                           conj_first=hermitian)
        # kappa of a parabolic cocycle for g must be parabolic for g*
        if any(vec_mat(phi, Kstar)):
            raise FormNotInvariant("kappa image of a W representative "
                                   "is not a parabolic cocycle for g*")
        A.append(chain_row(gstar, phi))
    L = [_lift_row(ws.solvers, rep, g.dim) for rep in reps]
    G = Matrix.from_rows(g.field, A) * \
        Matrix.from_rows(g.field, L).transpose()
    return GramResult(G, kind, ws)


class SignatureResult:
    __slots__ = ("p", "q", "nullity")

    def __init__(self, p, q, nullity):
        self.p = p
        self.q = q
        self.nullity = nullity

    def as_pair(self):
        return (self.p, self.q)

    def __repr__(self):
        if self.nullity:
            return "(%d, %d; nullity %d)" % (self.p, self.q, self.nullity)
        return "(%d, %d)" % (self.p, self.q)


def signature(gram):
    """Exact inertia (p, q, nullity) of a Hermitian Gram matrix.

    The Hermitian check compares each entry on and above the diagonal
    with the conjugate of its mirror entry, so a non-real diagonal entry
    fails it too.  Then an LDL* reduction on the upper triangle S of the
    still-active indices: the pivot is the first active index j with
    S[j][j] != 0, it adds the sign of S[j][j] to p or q, and the rest is
    replaced by its Schur complement, S[a][b] -= conj(S[j][a]) *
    S[j][j]^-1 * S[j][b] for active a <= b (S[j][a] read as the
    conjugate of S[a][j] when a < j), skipping zero terms.  When every
    active diagonal entry is zero, the first active pair a < b with
    S[a][b] != 0 is repaired by the transvection row_a += S[a][b]*row_b,
    col_a += conj(S[a][b])*col_b, which makes the new diagonal entry
    2*|S[a][b]|^2, positive in any conjugation-closed field; if there is
    no such pair the active indices are the nullity.  Each pivot costs
    one sign, one inverse and about m^2/2 products for m active indices,
    where the same congruence on the full matrix costs 1.5*m^2; the
    weights conj(S[j][a]) * S[j][j]^-1 are one row scaling (_scale).
    Every sign decision goes through CycloElem.sign.
    """
    if isinstance(gram, GramResult):
        if gram.kind != "hermitian":
            raise NotHermitian("signature needs a hermitian Gram result")
        G = gram.G
    else:
        G = gram
    n = G.rows
    if G.cols != n:
        raise NotHermitian("matrix is not conjugate-symmetric")
    S = [list(G.row(a)) for a in range(n)]
    for a in range(n):
        row = S[a]
        for b in range(a, n):
            if S[b][a] != row[b].conjugate():
                raise NotHermitian("matrix is not conjugate-symmetric")
    active = list(range(n))
    p = q = 0
    while active:
        j = next((a for a in active if S[a][a]), None)
        if j is None:
            pair = next(((a, b) for k, a in enumerate(active)
                         for b in active[k + 1:] if S[a][b]), None)
            if pair is None:
                break
            j, b = pair
            _transvect(S, active, j, b)
        piv = S[j][j]
        s = piv.sign()
        if s == 0:
            raise FieldInvariantError("nonzero pivot %s has sign 0" % piv)
        if s > 0:
            p += 1
        else:
            q += 1
        inv = piv.inverse()
        active.remove(j)
        # the active a with S[j][a] != 0, S[j][a] and conj(S[j][a]) / S[j][j]
        cols, xs, ys = [], [], []
        for a in active:
            if a > j:
                x = S[j][a]
                if x:
                    cols.append(a)
                    xs.append(x)
                    ys.append(x.conjugate())
            else:
                y = S[a][j]
                if y:
                    cols.append(a)
                    xs.append(y.conjugate())
                    ys.append(y)
        ws = _scale(inv, ys)
        for k, a in enumerate(cols):
            row = S[a]
            updated = _sub_mul([row[b] for b in cols[k:]], ws[k], xs[k:])
            for b, x in zip(cols[k:], updated):
                row[b] = x
    return SignatureResult(p, q, len(active))


def _transvect(S, active, a, b):
    """row_a += c*row_b and col_a += conj(c)*col_b, c = S[a][b], on the
    upper triangle S of the active indices.  a < b, every active diagonal
    entry is zero and every active row before a is zero, so only row a
    changes, and its diagonal entry becomes c*conj(c) + conj(c)*c."""
    c = S[a][b]
    row = S[a]
    cols, ys = [], []
    for m in active:
        if a < m != b:
            y = S[b][m] if m > b else S[m][b].conjugate()
            if y:
                cols.append(m)
                ys.append(y)
    for m, x in zip(cols, _sub_mul([row[m] for m in cols], -c, ys)):
        row[m] = x
    t = c * c.conjugate()
    row[a] = t + t


def predicted_signature(g, eigen_exponents=None):
    """The signature formula from the tuple's root-of-unity eigenvalues.

    eigen_exponents: per matrix, a list of d integers k meaning the
    eigenvalue zeta_n^k with multiplicity as listed; that spectrum is
    verified exactly via kernel dimensions.  For d = 1 the exponents can
    instead be read off the entries.  Requires H^0 = 0.
    """
    n = g.field.n
    d = g.dim
    if common_fixed_space(g).dim != 0:
        raise NonzeroH0("tuple has nonzero common fixed space")
    if eigen_exponents is None:
        # each entry is looked up as zeta^k itself, so m - zeta^k is the
        # 1 x 1 zero matrix and a multiplicity check could not fail here
        if d != 1:
            raise NotRootOfUnity(
                "eigenvalue exponents must be supplied when d > 1")
        exponent = {g.field.zeta(k): k for k in range(n)}
        eigen_exponents = []
        for m in g.mats:
            x = m[0, 0]
            if x not in exponent:
                raise NotRootOfUnity("entry %s is not a power of zeta_%d"
                                     % (x, n))
            eigen_exponents.append([exponent[x]])
    elif len(eigen_exponents) != g.r:
        raise NotRootOfUnity("expected eigenvalues for %d matrices, got %d"
                             % (g.r, len(eigen_exponents)))
    else:
        for mi, (m, exps) in enumerate(zip(g.mats, eigen_exponents)):
            if len(exps) != d:
                raise NotRootOfUnity("matrix %d: expected %d eigenvalues"
                                     % (mi + 1, d))
            mult = {}
            for k in exps:
                mult[k % n] = mult.get(k % n, 0) + 1
            for k, cnt in mult.items():
                eig = Matrix.scalar(g.field, d, g.field.zeta(k))
                if kernel_left(m - eig).dim != cnt:
                    raise NotRootOfUnity(
                        "matrix %d: zeta_%d^%d is not an eigenvalue of "
                        "multiplicity %d" % (mi + 1, n, k, cnt))
    mu_sum = Fraction(0)
    mubar_sum = Fraction(0)
    for exps in eigen_exponents:
        for k in exps:
            mu = Fraction(k % n, n)
            mu_sum += mu
            mubar_sum += (1 - mu) if mu > 0 else Fraction(0)
    p = mu_sum - d
    q = mubar_sum - d
    if p.denominator != 1 or q.denominator != 1:
        raise NotRootOfUnity("signature formula did not give integers")
    return (int(p), int(q))
