"""Exact dense linear algebra over a cyclotomic field.

Row-vector convention throughout: vectors are tuples of CycloElem and
multiply matrices from the left, v -> v*M.  Pivoting is deterministic
(first nonzero entry, scanning left to right) so echelon bases and
quotient charts are reproducible.  All elimination goes through two
loops: _rref_rows (Gauss-Jordan, optionally tracking the transform) and
_reduce (a vector against echelon rows).  Both skip every term whose
multiplier entry is zero, which x - c*0 = x makes exact.

Every row product (_row_times: v*M, behind Matrix.__mul__, vec_mat and
RowSolver.solve), every row update x - c*y (_sub_mul: _rref_rows,
_reduce, the chart read and the signature's Schur step and
transvection), every row scaling c*x (_scale: _rref_rows' pivot and
track rows, the signature's pivot weights and a matrix times a scalar)
and every dot product is one call of the integer kernel
cyclo._product_sums.  It costs O(deg^2) int products per nonzero term
and one fold and one gcd per output entry, and builds no element for a
product or a partial sum.

For an N x m matrix a, the equations of x*a = b are its m columns.
kernel_left eliminates them once, with pivots taken from the right, and
reads the RREF basis of {x : x*a = 0} off the result.  RowSolver
eliminates them once with the transform tracked, solves for any number
of right sides b and reads a basis of each kernel of a off that pass.
Each costs O(m*N*rank) field operations (the solver's transform adds
O(m^2*rank)), where tracking an N x N identity through the rows of a
and then putting the kernel rows in RREF cost O(N^2*(N+m)).

A quotient chart of ambient/sub works in the ambient space's own
coordinates, which an RREF basis gives for free: v = sum_k v[p_k]*basis[k]
over its pivots p_k.  quotient_chart eliminates the sub rows' coordinates
once, with pivots taken from the right, and a chart read is then
O(dim sub * dim quotient) field operations, with no elimination or
reduction in the N ambient columns.
"""

from .cyclo import _as_element, _mismatch, _product_sums
from .errors import NotASubspace, NotInvertible, ShapeMismatch


# ---------------------------------------------------------------------------
# row vectors as tuples


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def dot(u, v):
    """Standard coordinate pairing, no conjugation, as one kernel call."""
    if len(u) != len(v):
        raise ShapeMismatch("dot of vectors of lengths %d and %d"
                            % (len(u), len(v)))
    if not u:
        raise ShapeMismatch("dot of two empty vectors has no field")
    field = u[0].field
    # the kernel reads v_k only where u_k != 0, so check v's field here
    other = next((b for b in v if b.field is not field), None)
    if other is not None:
        raise _mismatch(field, other)
    return _product_sums(field, (field.zero(),), u, v, 1)[0]


def _row_times(v, entries, ncols, zero):
    """The row v times the row-major matrix entries, zero terms skipped.

    The kernel skips a zero entry of v (a whole row of the matrix) and
    each zero matrix entry, so sparse and block-diagonal factors cost
    only their nonzero products.
    """
    return _product_sums(zero.field, (zero,) * ncols, v, entries, ncols)


def _sub_mul(xs, c, ys):
    """The row xs - c*ys; an entry whose y is zero stays x itself."""
    return _product_sums(c.field, xs, (-c,), ys, len(ys))


def _scale(c, xs):
    """The row c*xs; a zero entry of xs stays zero."""
    return _product_sums(c.field, (c.field.zero(),) * len(xs), (c,), xs,
                         len(xs))


def vec_mat(v, m):
    """v*M for a row vector v of length m.rows."""
    if len(v) != m.rows:
        raise ShapeMismatch("vector of length %d times a %d x %d matrix"
                            % (len(v), m.rows, m.cols))
    return tuple(_row_times(v, m.entries, m.cols, m.field.zero()))


def vec_conj(v):
    return tuple(a.conjugate() for a in v)


class Matrix:
    """Immutable dense matrix with CycloElem entries, row-major."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field, rows, cols, entries):
        if len(entries) != rows * cols:
            raise ShapeMismatch("%d entries for a %d x %d matrix"
                                % (len(entries), rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ShapeMismatch("rows of lengths %d and %d"
                                    % (c, len(row)))
            flat.extend(row)
        return cls(field, r, c, flat)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, n, n, [o if i == j else z
                                 for i in range(n) for j in range(n)])

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero()
        return cls(field, rows, cols, [z] * (rows * cols))

    @classmethod
    def scalar(cls, field, n, c):
        z = field.zero()
        return cls(field, n, n, [c if i == j else z
                                 for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self):
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.rows, self.cols, self.entries))

    def _same_shape(self, other, op):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("%d x %d %s %d x %d" % (
                self.rows, self.cols, op, other.rows, other.cols))

    def __add__(self, other):
        self._same_shape(other, "+")
        return Matrix(self.field, self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other, "-")
        return Matrix(self.field, self.rows, self.cols,
                      [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.field, self.rows, self.cols,
                      [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeMismatch("%d x %d times %d x %d" % (
                    self.rows, self.cols, other.rows, other.cols))
            k, zero = self.cols, self.field.zero()
            out = []
            for i in range(self.rows):
                out.extend(_row_times(self.entries[i * k:(i + 1) * k],
                                      other.entries, other.cols, zero))
            return Matrix(self.field, self.rows, other.cols, out)
        return self._scaled(other)

    def _scaled(self, c):
        """c*self for an int, Fraction or element c of the same field."""
        c = _as_element(self.field, c)
        if c is None:
            return NotImplemented
        return Matrix(self.field, self.rows, self.cols,
                      _scale(c, self.entries))

    __rmul__ = _scaled

    def transpose(self):
        return Matrix(self.field, self.cols, self.rows,
                      [self.entries[j * self.cols + i]
                       for i in range(self.cols) for j in range(self.rows)])

    def conj(self):
        return Matrix(self.field, self.rows, self.cols,
                      [a.conjugate() for a in self.entries])

    def conj_transpose(self):
        return self.transpose().conj()

    def coerce(self, field):
        if field == self.field:
            return self
        return Matrix(field, self.rows, self.cols,
                      [a.coerce(field) for a in self.entries])

    def trace(self):
        if self.rows != self.cols:
            raise ShapeMismatch("trace of a %d x %d matrix"
                                % (self.rows, self.cols))
        t = self.field.zero()
        for i in range(self.rows):
            t = t + self[i, i]
        return t

    def inverse(self):
        """Gauss-Jordan inverse; raises NotInvertible on a singular matrix."""
        if self.rows != self.cols:
            raise NotInvertible("matrix is not square")
        n = self.rows
        rows = [list(r) for r in self.row_list()]
        track = [list(r) for r in Matrix.identity(self.field, n).row_list()]
        if len(_rref_rows(rows, track)) < n:
            raise NotInvertible("matrix is singular")
        return Matrix.from_rows(self.field, track)

    def is_invertible(self):
        return (self.rows == self.cols
                and len(_rref_rows([list(r) for r in self.row_list()]))
                == self.rows)

    def __repr__(self):
        return "Matrix(%d x %d over Q(zeta_%d))" % (
            self.rows, self.cols, self.field.n)


# ---------------------------------------------------------------------------
# elimination


def _rref_rows(rows, track=None):
    """In-place RREF of a list of row lists; returns pivot column list.

    If track is given (another list of row lists, same length) the same
    row operations are applied to it.  Terms whose pivot-row entry is
    zero are skipped: x - c*0 and 0*inv are exact, so the rows are the
    same as with every term formed.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    piv = 0
    for col in range(ncols):
        hit = None
        for i in range(piv, nrows):
            if rows[i][col]:
                hit = i
                break
        if hit is None:
            continue
        rows[piv], rows[hit] = rows[hit], rows[piv]
        if track is not None:
            track[piv], track[hit] = track[hit], track[piv]
        inv = rows[piv][col].inverse()
        prow = rows[piv] = _scale(inv, rows[piv])
        if track is not None:
            trow = track[piv] = _scale(inv, track[piv])
        for i in range(nrows):
            c = rows[i][col]
            if i != piv and c:
                rows[i] = _sub_mul(rows[i], c, prow)
                if track is not None:
                    track[i] = _sub_mul(track[i], c, trow)
        pivots.append(col)
        piv += 1
        if piv == nrows:
            break
    return pivots


def _reduce(basis, v):
    """Remainder of v after eliminating against basis, in order.

    Each basis row has a leading 1 at its pivot (its first nonzero
    entry) and is zero at the pivots of the rows before it; the
    remainder is zero exactly when v lies in the span of basis.
    """
    v = list(v)
    for row in basis:
        pj = next(j for j, x in enumerate(row) if x)
        c = v[pj]
        if c:
            v[pj:] = _sub_mul(v[pj:], c, row[pj:])
    return tuple(v)


class RowSolver:
    """Solves x*a = b for any number of right sides b, eliminating a once.

    The equations are the columns of a: the RREF R of a^T, with pivots
    p_k and the transform T tracked (T*a^T = R).  x*a = b is consistent
    iff (T*b^T)_k = 0 for every k past the rank, and the solution with
    its free coordinates 0 puts (T*b^T)_k at x[p_k].  The rows of T past
    the rank span {y : a*y^T = 0}, and R*x^T = 0 gives {x : x*a = 0}.
    Set-up costs O(m*(n+m)*rank) field operations for an n x m matrix a,
    each solve O(m^2) and each kernel at most a negation per entry.
    """

    __slots__ = ("field", "rows", "cols", "_pivots", "_eqs", "_track_t")

    def __init__(self, a):
        m = a.cols
        eqs = [list(a.entries[j::m]) for j in range(m)]
        zero, one = a.field.zero(), a.field.one()
        track = [[one if i == j else zero for j in range(m)]
                 for i in range(m)]
        self.field = a.field
        self.rows = a.rows
        self.cols = m
        self._pivots = _rref_rows(eqs, track)
        self._eqs = eqs[:len(self._pivots)]
        # T^T row-major, so that T*b^T is the row product b*T^T
        self._track_t = [t for col in zip(*track) for t in col]

    def solve(self, b):
        """Some x with x*a = b, or None; free coordinates of x are 0."""
        if len(b) != self.cols:
            raise ShapeMismatch("right side of length %d for %d columns"
                                % (len(b), self.cols))
        zero = self.field.zero()
        y = _row_times(b, self._track_t, self.cols, zero)
        if any(y[len(self._pivots):]):
            return None
        x = [zero] * self.rows
        for p, c in zip(self._pivots, y):
            x[p] = c
        return tuple(x)

    def left_kernel(self):
        """A basis of {x : x*a = 0}, one row per free coordinate."""
        return _free_rows(self.field, self.rows, self._pivots, self._eqs)

    def right_kernel(self):
        """A basis of {y : a*y^T = 0}: the rows of T past the rank."""
        m = self.cols
        return tuple(tuple(self._track_t[k::m])
                     for k in range(len(self._pivots), m))


def _free_rows(field, n, pivots, eqs):
    """The solutions e_f - sum_k eqs[k][f]*e_(pivots[k]), free f < n."""
    zero, one = field.zero(), field.one()
    basis = []
    for f in sorted(set(range(n)).difference(pivots)):
        row = [zero] * n
        row[f] = one
        for p, eq in zip(pivots, eqs):
            c = eq[f]
            if c:
                row[p] = -c
        basis.append(tuple(row))
    return tuple(basis)


def kernel_left(a):
    """The subspace {x : x*a = 0}, from one elimination of its equations.

    The equations are the columns of a, each reversed so that _rref_rows
    takes its pivots from the right.  An eliminated equation R_i is then
    nonzero only at free f < p_i, so in ascending f the _free_rows are
    the RREF basis.  O(m*n*rank) field operations for an n x m matrix a.
    """
    n, m = a.rows, a.cols
    eqs = [list(a.entries[j::m][::-1]) for j in range(m)]
    pivots = [n - 1 - q for q in _rref_rows(eqs)]
    return Subspace(a.field, n, _free_rows(
        a.field, n, pivots, [eq[::-1] for eq in eqs[:len(pivots)]]))


class Subspace:
    """A subspace of row vectors, stored as an RREF basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field, ambient_dim, basis):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis  # tuple of row tuples, RREF, no zero rows

    @classmethod
    def from_rows(cls, field, ambient_dim, rows):
        rows = [list(r) for r in rows]
        if rows:
            pivots = _rref_rows(rows)
            rows = rows[:len(pivots)]
        return cls(field, ambient_dim, tuple(tuple(r) for r in rows))

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, v):
        """Remainder of v after eliminating against the basis."""
        return _reduce(self.basis, v)

    def contains(self, v):
        return not any(self.reduce(v))

    def contains_subspace(self, other):
        return all(self.contains(r) for r in other.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return "Subspace(dim %d of %d over Q(zeta_%d))" % (
            self.dim, self.ambient_dim, self.field.n)


class QuotientChart:
    """A chart for ambient/sub: representatives and a coordinate map.

    The ambient basis is in RREF with pivots p_k, so v in the ambient
    space is sum_k v[p_k]*basis[k]: its ambient coordinates are read off
    the pivots.  In those coordinates the sub rows, eliminated once with
    pivots taken from the right, are rows R_t with last nonzero entry 1
    at q_t.  The representatives are the ambient basis rows at the
    positions k that are no q_t.
    """

    __slots__ = ("ambient", "sub", "positions", "reps", "_at", "_eqs")

    def __init__(self, ambient, sub, positions, at, eqs):
        self.ambient = ambient
        self.sub = sub
        self.positions = positions
        self.reps = tuple(ambient.basis[k] for k in positions)
        self._at = at      # the pivot p_k of each position k
        self._eqs = eqs    # (p_(q_t), R_t at the positions) per sub row

    @property
    def dim(self):
        return len(self.reps)

    def coords(self, v):
        """Coordinates of v in the representatives, modulo sub.

        v must lie in the ambient space.  Subtracting v[p_(q_t)]*R_t for
        every t clears the coordinates at the q_t and changes v only by
        an element of sub, so what is left at the positions is the
        answer: O(dim sub * dim W) field operations.
        """
        if not self.ambient.contains(v):
            raise NotASubspace("vector is not in the ambient space")
        return self._coords(v)

    def _coords(self, v):
        """coords(v) for a v already known to lie in the ambient space."""
        out = [v[p] for p in self._at]
        for p, eq in self._eqs:
            c = v[p]
            if c:
                out = _sub_mul(out, c, eq)
        return tuple(out)


def quotient_chart(ambient, sub):
    """Deterministic chart for ambient/sub.

    Representatives are the first ambient basis vectors that stay
    independent modulo sub, in basis order.  Basis row k adds to the
    span exactly when no vector of sub has its last nonzero ambient
    coordinate at k, so they are read off one elimination of the sub
    rows' ambient coordinates (see QuotientChart), O(dim sub^2 * dim
    ambient) field operations after the containment check.
    """
    if not ambient.contains_subspace(sub):
        raise NotASubspace("sub is not contained in ambient")
    n = ambient.dim
    pivots = [next(j for j, x in enumerate(row) if x)
              for row in ambient.basis]
    eqs = [[row[p] for p in reversed(pivots)] for row in sub.basis]
    right = [n - 1 - q for q in _rref_rows(eqs)]
    positions = tuple(sorted(set(range(n)).difference(right)))
    if len(positions) != n - sub.dim:
        raise NotASubspace("ambient basis is not independent modulo sub")
    return QuotientChart(
        ambient, sub, positions, tuple(pivots[k] for k in positions),
        tuple((pivots[q], tuple(eq[n - 1 - k] for k in positions))
              for q, eq in zip(right, eqs)))
