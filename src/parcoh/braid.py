"""Braid words, their action on tuples, and the maps Phi and Psi.

Words act left to right (first letter first), matching path composition
"first alpha then beta" and the right action of linear maps on row
vectors: applying Phi(g, b) then Phi(g^b, b') multiplies the matrices in
that order, v -> v*M*M'.

The letter b_i at the tuple (..., a, b, ...) (a = g_i, b = g_(i+1))
moves the pair to (b, b^-1 a b), and b_i^-1 moves it to (a b a^-1, a).
The inverses of the entries travel with the tuple, (a^-1, b^-1) ->
(b^-1, b^-1 a^-1 b) and (a b^-1 a^-1, a^-1), so a walk inverts the r
entries once and no letter inverts a matrix.  Phi of a letter differs
from the identity only in block columns i and i+1, so a letter rewrites
just those two block columns of whatever rows it is given (T_k = block
column k):

    b_i:     T_i     <- T_(i+1)
             T_(i+1) <- T_i b + T_(i+1) (1 - b^-1 a b)
    b_i^-1:  T_i     <- T_i (b - 1) a^-1 + T_(i+1) a^-1
             T_(i+1) <- T_i

A walk forms the letters' products on the entries' row-major tuples
(four d x d products per letter) and makes matrices only of the two
factors it hands to _move_rows.  For d = 1 the entries commute, so
b^-1 a b = a and a b a^-1 = b: a letter of either sign swaps the pair
and the pair of inverses, and its factors are (b, 1 - a) for b_i, with
no product, and (b a^-1 - a^-1, a^-1) for b_i^-1, with one.  phi_on_H
moves the r*d identity rows.  The monodromy moves only the dim H + dim E
basis rows of W = H/E and multiplies each d-block of a row by chi for
Psi(g, chi), skipping Psi(g, 1), which is the identity.  A generator
with a word of L letters then costs O(L*(dim H + dim E)*d^2 + L*d^3)
field operations plus one chart read, where building and applying the
dense Phi cost O(L*(r*d)*d^2) + O((r*d)^3).
"""

import re

from .errors import (BraidSyntaxError, DoesNotPreserveE, IndexOutOfRange,
                     StrandMismatch)
from .linalg import Matrix, _row_times, vec_mat

_LETTER = re.compile(r"^b(\d+)(?:\^(-?\d+))?$")

# parse_braid refuses words longer than this, counted before free
# reduction, so a power like b1^(10^12) fails before it is expanded
MAX_LETTERS = 10000


class BraidWord:
    """A freely reduced word in the generators b1..b(strands-1)."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands, letters):
        self.strands = strands
        self.letters = tuple(letters)  # pairs (index, +1 or -1)

    def __eq__(self, other):
        if not isinstance(other, BraidWord):
            return NotImplemented
        return self.strands == other.strands and self.letters == other.letters

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        if self.strands != other.strands:
            raise StrandMismatch("cannot multiply braids on %d and %d strands"
                                 % (self.strands, other.strands))
        return BraidWord(self.strands,
                         _free_reduce(self.letters + other.letters))

    def inverse(self):
        return BraidWord(self.strands,
                         [(i, -e) for i, e in reversed(self.letters)])

    def __repr__(self):
        if not self.letters:
            return "<empty braid>"
        return " ".join("b%d" % i if e == 1 else "b%d^-1" % i
                        for i, e in self.letters)


def _free_reduce(letters):
    out = []
    for i, e in letters:
        if out and out[-1][0] == i and out[-1][1] == -e:
            out.pop()
        else:
            out.append((i, e))
    return out


def parse_braid(text, strands):
    """Parse a whitespace-separated word like "b3 b2^2 b3^-1".

    Raises BraidSyntaxError when the word, with powers expanded, has
    more than MAX_LETTERS letters.
    """
    letters = []
    for tok in text.split():
        m = _LETTER.match(tok)
        if not m:
            raise BraidSyntaxError("bad braid letter %r" % tok)
        try:
            idx = int(m.group(1))
            power = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError:  # more digits than int() accepts
            raise BraidSyntaxError("bad braid letter %r" % tok[:40])
        if not 1 <= idx <= strands - 1:
            raise IndexOutOfRange(
                "generator b%d out of range for %d strands" % (idx, strands))
        if len(letters) + abs(power) > MAX_LETTERS:
            raise BraidSyntaxError("braid word longer than %d letters"
                                   % MAX_LETTERS)
        sign = 1 if power >= 0 else -1
        letters.extend([(idx, sign)] * abs(power))
    return BraidWord(strands, _free_reduce(letters))


def _check_strands(g, beta):
    if beta.strands != g.r - 1:
        raise StrandMismatch("braid on %d strands cannot act on an r=%d tuple"
                             % (beta.strands, g.r))


def _walk(g, beta, invs=None):
    """Move g by beta, carrying the inverses invs of its entries along.

    invs defaults to the inverses of g's entries.  Returns g^beta and,
    per letter, (i, top, bottom, positive): the factors with which
    _move_rows rewrites block columns i and i+1 (i is 0-based).  The
    products are formed on the row-major entries, O(d^3) field
    operations each, and only the factors become matrices.  A letter
    costs four products, 4*d kernel calls, except at d = 1, where it
    swaps the pair and makes no kernel call for b_i and one for b_i^-1.
    """
    _check_strands(g, beta)
    if invs is None:
        invs = [m.inverse() for m in g.mats]
    F, d = g.field, g.dim
    zero, one = F.zero(), Matrix.identity(F, d).entries

    def times(x, y):
        out = []
        for k in range(0, d * d, d):
            out += _row_times(x[k:k + d], y, d, zero)
        return out

    mats = [m.entries for m in g.mats]
    invs = [m.entries for m in invs]
    steps = []
    for idx, exp in beta.letters:
        i = idx - 1
        a, b, ainv, binv = mats[i], mats[i + 1], invs[i], invs[i + 1]
        if d == 1:
            # scalars commute, so b^-1 a b = a and a b a^-1 = b: a letter
            # of either sign swaps the pair and the pair of inverses
            mats[i], mats[i + 1] = b, a
            invs[i], invs[i + 1] = binv, ainv
            if exp == 1:
                top, bottom = b, [one[0] - a[0]]
            else:
                top, bottom = [times(b, ainv)[0] - ainv[0]], ainv
        elif exp == 1:
            moved = times(times(binv, a), b)
            mats[i], mats[i + 1] = b, moved
            invs[i], invs[i + 1] = binv, times(times(binv, ainv), b)
            top = b
            bottom = [x - y for x, y in zip(one, moved)]
        else:
            b_ainv = times(b, ainv)
            mats[i], mats[i + 1] = times(a, b_ainv), a
            invs[i], invs[i + 1] = times(times(a, binv), ainv), ainv
            top = [x - y for x, y in zip(b_ainv, ainv)]
            bottom = ainv
        steps.append((i, Matrix(F, d, d, top), Matrix(F, d, d, bottom),
                      exp == 1))
    return type(g)(F, d, [Matrix(F, d, d, m) for m in mats]), steps


def _move_rows(rows, steps, d):
    """Apply the letters of a walk to the row lists rows, in place.

    mixed = T_i*top + T_(i+1)*bottom; a positive letter makes the pair
    (T_(i+1), mixed), an inverse letter (mixed, T_i).
    """
    for i, top, bottom, positive in steps:
        lo, hi = i * d, (i + 2) * d
        stacked = top.entries + bottom.entries
        zero = top.field.zero()
        for row in rows:
            pair = row[lo:hi]
            mixed = _row_times(pair, stacked, d, zero)
            row[lo:hi] = pair[d:] + mixed if positive else mixed + pair[:d]


def act_on_tuple(g, beta):
    """The right action g^beta, letters applied left to right."""
    return _walk(g, beta)[0]


class ChainMap:
    """A map on flattened V^r coordinates between two cocycle spaces: the
    tuples it starts and ends at and its matrix."""

    __slots__ = ("domain_tuple", "codomain_tuple", "matrix")

    def __init__(self, domain_tuple, codomain_tuple, matrix):
        self.domain_tuple = domain_tuple
        self.codomain_tuple = codomain_tuple
        self.matrix = matrix

    def __repr__(self):
        return "ChainMap(%d x %d)" % (self.matrix.rows, self.matrix.cols)


def phi_on_H(g, beta):
    """Phi(g, beta): H_g -> H_(g^beta) as an ambient ChainMap.

    The r*d identity rows are moved through the letters of beta (see
    the module docstring).
    """
    moved, steps = _walk(g, beta)
    f, n = g.field, g.r * g.dim
    zero, one = f.zero(), f.one()
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    _move_rows(rows, steps, g.dim)
    return ChainMap(g, moved,
                    Matrix(f, n, n, [x for row in rows for x in row]))


def _twist_rows(rows, chi, d):
    """Psi(g, chi) on the row lists rows, in place: each d-block times chi."""
    ent, zero = chi.entries, chi.field.zero()
    for row in rows:
        for lo in range(0, len(row), d):
            row[lo:lo + d] = _row_times(row[lo:lo + d], ent, d, zero)


def _preserved(rows, nh, K, E):
    """(h_ok, e_ok): whether rows[:nh] lie in H = {v : v*K = 0} and
    rows[nh:] in E, one row at a time, each scan stopping at its first
    row outside."""
    h_ok = not any(any(vec_mat(v, K)) for v in rows[:nh])
    e_ok = all(E.contains(v) for v in rows[nh:])
    return h_ok, e_ok


def _on_W(images, dom, cod):
    """The matrix on W of a map given by its images of dom.H.basis and
    then of dom.E.basis.

    Raises DoesNotPreserveE unless the H images lie in H (by the
    codomain's check matrix) and the E images in E.  The chart
    representatives are H basis rows, so their images are read at the
    positions the chart records.
    """
    h_ok, e_ok = _preserved(images, dom.H.dim, cod.K, cod.E)
    if not h_ok:
        raise DoesNotPreserveE("image of an H basis vector leaves H")
    if not e_ok:
        raise DoesNotPreserveE("image of an E basis vector leaves E")
    field = cod.tuple.field
    rows = [cod.chart._coords(images[k]) for k in dom.chart.positions]
    if not rows:
        return Matrix.zero(field, 0, cod.dim)
    return Matrix.from_rows(field, rows)
