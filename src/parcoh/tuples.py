"""Local-system tuples and the spaces H_g, E_g, W_g = H_g/E_g.

A tuple is a sequence (g_1,...,g_r) of invertible d x d matrices with
g_1*g_2*...*g_r = 1, acting on row vectors from the right.  Cocycle
vectors live in V^r, flattened to length r*d with block order
(v_1,...,v_r).
"""

from .errors import NotInvertible, ProductNotOne, TooFewPoints, TupleError
from .linalg import Matrix, Subspace, kernel_left, quotient_chart, vec_mat


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
            raise TupleError(
                "matrix %d is not %dx%d over the common field" % (k + 1, d, d))
        if not m.is_invertible():
            raise NotInvertible("matrix %d is singular" % (k + 1))
    prod = Matrix.identity(field, d)
    for m in mats:
        prod = prod * m
    if prod != Matrix.identity(field, d):
        raise ProductNotOne("product g_1*...*g_%d is not the identity"
                            % len(mats))
    return MatTuple(field, d, mats)


def _block_image_basis(g):
    """RREF basis of the direct sum of the Im(g_i - 1), inside V^r."""
    d, r = g.dim, g.r
    ident = Matrix.identity(g.field, d)
    zero = g.field.zero()
    rows = []
    for i, m in enumerate(g.mats):
        img = Subspace.from_rows(g.field, d, (m - ident).row_list())
        for block in img.basis:
            row = [zero] * (r * d)
            row[i * d:(i + 1) * d] = block
            rows.append(tuple(row))
    return Subspace.from_rows(g.field, r * d, rows)


def _relation_matrix(g):
    """The (r*d) x d matrix of (v_1,..,v_r) -> sum_i v_i * g_(i+1)..g_r."""
    suffix = g.suffix_products()
    rows = []
    for s in suffix:
        rows.extend(s.row_list())
    return Matrix.from_rows(g.field, rows)


def h_space(g):
    """Parabolic cocycles: blocks in Im(g_i - 1), cocycle relation holds."""
    c = _block_image_basis(g)
    if c.dim == 0:
        return c
    cmat = Matrix.from_rows(g.field, list(c.basis))
    ker = kernel_left(cmat * _relation_matrix(g))
    rows = [vec_mat(x, cmat) for x in ker.basis]
    return Subspace.from_rows(g.field, g.r * g.dim, rows)


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
    """H_g, E_g and a deterministic chart for W_g = H_g/E_g."""

    __slots__ = ("tuple", "H", "E", "chart")

    def __init__(self, g, H, E, chart):
        self.tuple = g
        self.H = H
        self.E = E
        self.chart = chart

    @property
    def dim(self):
        return self.chart.dim

    def __repr__(self):
        return "WSpace(dim %d, r=%d, d=%d)" % (
            self.dim, self.tuple.r, self.tuple.dim)


def w_space(g):
    H = h_space(g)
    E = e_space(g)
    return WSpace(g, H, E, quotient_chart(H, E))


def dual_tuple(g):
    """g* with g*_i = transpose(g_i^-1); pairs with g via <w g*, v g> = <w, v>."""
    return MatTuple(g.field, g.dim,
                    [m.inverse().transpose() for m in g.mats])


def common_fixed_space(g):
    """The intersection of the kernels of g_i - 1 (this is H^0)."""
    return kernel_left(_coboundary_matrix(g))
