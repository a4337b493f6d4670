"""Local-system tuples and the spaces H_g, E_g, W_g = H_g/E_g.

A tuple is a sequence (g_1,...,g_r) of invertible d x d matrices with
g_1*g_2*...*g_r = 1, acting on row vectors from the right.  Cocycle
vectors live in V^r, flattened to length r*d with block order
(v_1,...,v_r).

H_g is the left kernel of one check matrix K_g = h_check(g): a cocycle
v lies in H_g iff each v_i lies in Im(g_i - 1) and
sum_i v_i*g_(i+1)*...*g_r = 0, iff v*K_g = 0.  K_g has r*d rows and
k + d columns, k = sum_i dim ker(g_i - 1) (k = 0 when no g_i has the
eigenvalue 1), so a membership test is one product of O(r*d*(k+d))
field operations, and h_space is one elimination of K_g,
O(r*d*(k+d)*(r*d+k+d)) field operations.

Each g_i - 1 is eliminated once, O(d^3), by the linalg.RowSolver that
w_space keeps in WSpace.solvers.  It lifts any v_i in Im(g_i - 1) to a
v' with v'*(g_i - 1) = v_i in O(d^2); its right kernel is block i of
K_g, and its left kernel, the right kernel of g*_i - 1 =
(g_i^-1)^T - 1, is block i of K_(g*) for the dual tuple g*, so both
check matrices cost only their suffix products beyond that elimination.
"""

from .errors import NotInvertible, ProductNotOne, TooFewPoints, TupleError
from .linalg import Matrix, RowSolver, Subspace, kernel_left, quotient_chart


class MatTuple:
    """A validated tuple (g_1,...,g_r) with product one."""

    __slots__ = ("field", "dim", "mats")

    def __init__(self, field, dim, mats):
        self.field = field
        self.dim = dim
        self.mats = tuple(mats)

    @property
    def r(self):
        return len(self.mats)

    def __eq__(self, other):
        if not isinstance(other, MatTuple):
            return NotImplemented
        return self.mats == other.mats

    def __repr__(self):
        return "MatTuple(r=%d, d=%d over Q(zeta_%d))" % (
            self.r, self.dim, self.field.n)

    def coerce(self, field):
        if field == self.field:
            return self
        return MatTuple(field, self.dim, [m.coerce(field) for m in self.mats])

    def suffix_products(self):
        """S_i = g_(i+1)*...*g_r for i = 1..r (S_r = identity)."""
        out = [Matrix.identity(self.field, self.dim)]
        for m in reversed(self.mats[1:]):
            out.append(m * out[-1])
        out.reverse()
        return out

    def conjugated(self, h):
        """The tuple (h*g_1*h^-1, ..., h*g_r*h^-1); h must be invertible."""
        try:
            hinv = h.inverse()
        except NotInvertible:
            raise NotInvertible("conjugating matrix is singular")
        return MatTuple(self.field, self.dim,
                        [h * g * hinv for g in self.mats])

    def conjugate_entries(self):
        """Entrywise complex conjugate tuple (conj applied to each matrix)."""
        return MatTuple(self.field, self.dim, [g.conj() for g in self.mats])


def validate_tuple(mats):
    """Check the tuple invariants and wrap the matrices in a MatTuple."""
    if len(mats) < 3:
        raise TooFewPoints("need r >= 3 matrices, got %d" % len(mats))
    field = mats[0].field
    d = mats[0].rows
    for k, m in enumerate(mats):
        if m.rows != m.cols or m.rows != d or m.field != field:
            _raise_first_singular(mats[:k])
            raise TupleError(
                "matrix %d is not %dx%d over the common field" % (k + 1, d, d))
    prod = Matrix.identity(field, d)
    for m in mats:
        prod = prod * m
    if prod != Matrix.identity(field, d):
        _raise_first_singular(mats)
        raise ProductNotOne("product g_1*...*g_%d is not the identity"
                            % len(mats))
    return MatTuple(field, d, mats)


def _raise_first_singular(mats):
    """NotInvertible for the first singular matrix of mats, if any.

    validate_tuple eliminates the entries only once a check has failed:
    a product equal to 1 makes every determinant nonzero.  Scanning the
    entries before the failed check keeps its report the first entry
    that is singular or of the wrong shape, in order.
    """
    for k, m in enumerate(mats):
        if not m.is_invertible():
            raise NotInvertible("matrix %d is singular" % (k + 1))


def _entry_solver(m):
    """The RowSolver of m - 1, for one entry m of a tuple."""
    return RowSolver(m - Matrix.identity(m.field, m.rows))


def _check_matrix(kernels, suffixes):
    """K_g from kernels[i], a basis of the right kernel of each g_i - 1,
    and suffixes, g.suffix_products()."""
    d, zero = suffixes[0].rows, suffixes[0].field.zero()
    k = sum(len(n) for n in kernels)
    rows, col = [], 0
    for n, s in zip(kernels, suffixes):
        for a in range(d):
            row = [zero] * k
            row[col:col + len(n)] = [x[a] for x in n]
            rows.append(row + list(s.row(a)))
        col += len(n)
    return Matrix.from_rows(suffixes[0].field, rows)


def _shared_suffix_products(tup, g, suffixes):
    """tup.suffix_products(), given suffixes = g.suffix_products() of a
    tuple g of the same length.

    S_j is taken from g where tup and g agree from entry j + 1 on, and
    otherwise formed as tup_(j+1)*S_(j+1) until it equals g's S_j again.
    A braid letter b_i^(+-1) keeps g_i*g_(i+1), so for its moved tuple
    this forms S_i and S_(i-1) alone, the second confirming that S_(i-1)
    and every S_j before it are g's: two products instead of r - 1.
    """
    out = list(suffixes)
    same = True
    for j in range(len(out) - 2, -1, -1):
        m = tup.mats[j + 1]
        if not same or m != g.mats[j + 1]:
            out[j] = m * out[j + 1]
            same = out[j] == suffixes[j]
    return out


def h_check(g):
    """The (r*d) x (k+d) check matrix K_g with H_g = {v : v*K_g = 0}.

    Block row i holds a basis N_i of the right kernel of g_i - 1 in its
    own k_i columns (v_i is in Im(g_i - 1) iff v_i*N_i = 0), and the last
    d columns hold S_i = g_(i+1)*...*g_r (the cocycle relation).
    """
    return _check_matrix([_entry_solver(m).right_kernel() for m in g.mats],
                         g.suffix_products())


def h_space(g):
    """Parabolic cocycles: blocks in Im(g_i - 1), cocycle relation holds."""
    return kernel_left(h_check(g))


def _coboundary_matrix(g):
    """The d x (r*d) matrix D = [g_1 - 1 | ... | g_r - 1]."""
    ident = Matrix.identity(g.field, g.dim)
    diffs = [m - ident for m in g.mats]
    return Matrix.from_rows(g.field, [[x for m in diffs for x in m.row(a)]
                                      for a in range(g.dim)])


def e_space(g):
    """Coboundaries: the image of v -> (v(g_1 - 1), ..., v(g_r - 1))."""
    return Subspace.from_rows(g.field, g.r * g.dim,
                              _coboundary_matrix(g).row_list())


class WSpace:
    """H_g, its check matrix K, E_g, a deterministic chart for W_g and the
    RowSolver of each g_i - 1 (see the module docstring)."""

    __slots__ = ("tuple", "H", "E", "chart", "K", "solvers")

    def __init__(self, g, H, E, chart, K, solvers):
        self.tuple = g
        self.H = H
        self.E = E
        self.chart = chart
        self.K = K
        self.solvers = solvers

    @property
    def dim(self):
        return self.chart.dim

    def __repr__(self):
        return "WSpace(dim %d, r=%d, d=%d)" % (
            self.dim, self.tuple.r, self.tuple.dim)


def w_space(g):
    solvers = [_entry_solver(m) for m in g.mats]
    K = _check_matrix([s.right_kernel() for s in solvers],
                      g.suffix_products())
    H = kernel_left(K)
    E = e_space(g)
    return WSpace(g, H, E, quotient_chart(H, E), K, solvers)


def dual_tuple(g):
    """g* with g*_i = transpose(g_i^-1); pairs with g via <w g*, v g> = <w, v>."""
    return MatTuple(g.field, g.dim,
                    [m.inverse().transpose() for m in g.mats])


def common_fixed_space(g):
    """The intersection of the kernels of g_i - 1 (this is H^0)."""
    return kernel_left(_coboundary_matrix(g))
