"""Exact row-vector linear algebra: solving, kernels, subspaces, quotients."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (check_cases, rand_element, rand_h_elem, rand_invertible,
                     vec_scale)
from oracles import (kernel_left_oracle, mul_oracle, row_times_oracle,
                     solve_row_oracle, sub_mul_oracle)
from parcoh.cyclo import CycloField
from parcoh.errors import (FieldMismatch, NotASubspace, NotInvertible,
                           ShapeMismatch)
from parcoh.linalg import (Matrix, RowSolver, Subspace, _row_times, _sub_mul,
                           dot, kernel_left, quotient_chart, vec_add, vec_mat)
from parcoh.tuples import w_space


def _rand_matrix(field, rows, cols, rng, span=2):
    return Matrix.from_rows(field, [[rand_element(field, rng, span)
                                     for _ in range(cols)]
                                    for _ in range(rows)])


def test_matrix_ring_identities():
    rng = random.Random(201)
    F = CycloField(3)
    for _ in range(15):
        a = _rand_matrix(F, 3, 3, rng)
        b = _rand_matrix(F, 3, 3, rng)
        c = _rand_matrix(F, 3, 3, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a * b).transpose() == b.transpose() * a.transpose()
        assert (a * b).conj() == a.conj() * b.conj()
        assert a.conj_transpose().conj_transpose() == a


def test_inverse_round_trip():
    rng = random.Random(202)
    for n in (1, 3, 4):
        F = CycloField(n)
        for size in (1, 2, 3):
            m = rand_invertible(F, size, rng)
            ident = Matrix.identity(F, size)
            assert m * m.inverse() == ident
            assert m.inverse() * m == ident


def test_singular_matrix_detected():
    F = CycloField(3)
    rows = [[F.one(), F.zeta()], [F.one(), F.zeta()]]
    m = Matrix.from_rows(F, rows)
    assert not m.is_invertible()
    with pytest.raises(NotInvertible):
        m.inverse()
    wide = Matrix.from_rows(F, [[F.one(), F.zero()]])
    assert not wide.is_invertible()
    with pytest.raises(NotInvertible):
        wide.inverse()


def test_solve_row_finds_solutions():
    rng = random.Random(203)
    F = CycloField(4)
    for _ in range(20):
        a = _rand_matrix(F, 3, 3, rng)
        x = tuple(rand_element(F, rng) for _ in range(3))
        b = vec_mat(x, a)
        u = RowSolver(a).solve(b)
        assert u is not None
        assert vec_mat(u, a) == b


def test_solve_row_reports_inconsistency():
    F = CycloField(3)
    zero3 = Matrix.zero(F, 3, 3)
    b = (F.one(), F.zero(), F.zero())
    assert RowSolver(zero3).solve(b) is None


def test_kernel_left_annihilates_and_has_right_dimension():
    rng = random.Random(204)
    F = CycloField(3)
    for _ in range(10):
        a = _rand_matrix(F, 4, 3, rng, span=1)
        ker = kernel_left(a)
        for row in ker.basis:
            assert not any(vec_mat(row, a))
        # rank-nullity against an independent rank computation
        rank = Subspace.from_rows(F, 3, [a.row(i) for i in range(4)]).dim
        assert ker.dim + rank == 4
    assert kernel_left(Matrix.identity(F, 3)).dim == 0
    assert kernel_left(Matrix.zero(F, 3, 2)).dim == 3


def test_subspace_membership_and_reduce():
    rng = random.Random(205)
    F = CycloField(3)
    rows = [(F.one(), F.zero(), F.zeta()),
            (F.zero(), F.one(), F.one())]
    S = Subspace.from_rows(F, 3, rows)
    assert S.dim == 2
    combo = vec_add(vec_scale(rows[0], F.zeta()), rows[1])
    assert S.contains(combo)
    outside = (F.zero(), F.zero(), F.one())
    assert not S.contains(outside)
    for _ in range(5):
        v = tuple(rand_element(F, rng) for _ in range(3))
        red = S.reduce(v)
        # reduction changes v by an element of S only
        diff = tuple(x - y for x, y in zip(v, red))
        assert S.contains(diff)


def test_quotient_chart_splits_the_ambient_space():
    rng = random.Random(206)
    F = CycloField(4)
    sub = Subspace.from_rows(F, 4, [(F.one(), F.one(), F.zero(), F.zero())])
    ambient = Subspace.from_rows(F, 4, [
        (F.one(), F.one(), F.zero(), F.zero()),
        (F.zero(), F.one(), F.one(), F.zero()),
        (F.zero(), F.zero(), F.one(), F.one())])
    chart = quotient_chart(ambient, sub)
    assert len(chart.reps) == ambient.dim - sub.dim
    for k, rep in enumerate(chart.reps):
        coords = chart.coords(rep)
        want = [F.zero()] * len(chart.reps)
        want[k] = F.one()
        assert list(coords) == want
    for _ in range(8):
        coeffs = [rand_element(F, rng) for _ in rows_of(ambient)]
        v = combo_of(ambient, coeffs, F)
        coords = chart.coords(v)
        # subtracting the charted part must land in the subspace
        rebuilt = [F.zero()] * 4
        for c, rep in zip(coords, chart.reps):
            rebuilt = vec_add(tuple(rebuilt), vec_scale(rep, c))
        diff = tuple(x - y for x, y in zip(v, rebuilt))
        assert sub.contains(diff)


def rows_of(space):
    return list(space.basis)


def combo_of(space, coeffs, field):
    out = tuple(field.zero() for _ in range(space.ambient_dim))
    for c, row in zip(coeffs, space.basis):
        out = vec_add(out, vec_scale(row, c))
    return out


def test_dot_is_the_coordinate_pairing():
    F = CycloField(3)
    u = (F.one(), F.zeta())
    v = (F.zeta(), F.one())
    assert dot(u, v) == F.zeta() + F.zeta()


# ---------------------------------------------------------------------------
# properties of the one elimination kernel, over Q(zeta_3) and Q(zeta_5)

FIELDS = (CycloField(3), CycloField(5))
PROPERTY = settings(max_examples=40, deadline=None)
ELIMINATION_ORDERS = (1, 3, 4, 5, 12)
ELIMINATION = settings(max_examples=150, deadline=None)


@st.composite
def _elements(draw, field):
    # zero is drawn often, so dependent rows and singular matrices occur
    if draw(st.booleans()):
        return field.zero()
    return field.element([draw(st.integers(-2, 2))
                          for _ in range(field.degree)])


@st.composite
def _rows(draw, field, count, length):
    return [tuple(draw(_elements(field)) for _ in range(length))
            for _ in range(count)]


@st.composite
def _square(draw):
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 4))
    return Matrix.from_rows(F, draw(_rows(F, n, n)))


@st.composite
def _ambient_and_sub(draw):
    """A subspace of Q(zeta)^n and a subspace of it, from combinations."""
    F = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 5))
    ambient = Subspace.from_rows(F, n, draw(_rows(F, draw(st.integers(0, n)),
                                                  n)))
    combos = draw(_rows(F, draw(st.integers(0, ambient.dim + 1)),
                        ambient.dim))
    sub = Subspace.from_rows(F, n, [combo_of(ambient, c, F) for c in combos])
    return ambient, sub


@st.composite
def _any_matrix(draw):
    """A rows x cols matrix, 0 <= rows, cols <= 6, over Q(zeta_n) for n in
    ELIMINATION_ORDERS, with about half its entries zero; often a product
    through a smaller inner size, so of rank below both sides."""
    F = CycloField(draw(st.sampled_from(ELIMINATION_ORDERS)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    inner = draw(st.integers(0, 6))

    def block(r, c):
        return Matrix(F, r, c, [draw(_elements(F)) for _ in range(r * c)])
    if inner < min(rows, cols):
        return block(rows, inner) * block(inner, cols)
    return block(rows, cols)


@ELIMINATION
@given(_any_matrix())
def test_kernel_left_matches_the_two_pass_oracle(a):
    ker = kernel_left(a)
    assert ker == kernel_left_oracle(a)
    assert all(not any(vec_mat(x, a)) for x in ker.basis)


@ELIMINATION
@given(_any_matrix(), st.data())
def test_row_solver_matches_the_augmented_oracle(a, data):
    F = a.field
    solver = RowSolver(a)
    for _ in range(3):
        x = tuple(data.draw(_elements(F)) for _ in range(a.rows))
        noise = tuple(data.draw(_elements(F)) for _ in range(a.cols))
        # b in the row space of a, and b off it (when a is not onto)
        for b in (vec_mat(x, a), vec_add(vec_mat(x, a), noise)):
            want = solve_row_oracle(a, b)
            assert solver.solve(b) == want
            if want is not None:
                assert vec_mat(want, a) == b


@ELIMINATION
@given(_any_matrix())
def test_row_solver_kernels_span_both_kernels(a):
    # non-square and rank-deficient a have kernels on one or both sides
    solver = RowSolver(a)
    left, right = solver.left_kernel(), solver.right_kernel()
    want_left, want_right = kernel_left(a), kernel_left(a.transpose())
    assert (len(left), len(right)) == (want_left.dim, want_right.dim)
    assert Subspace.from_rows(a.field, a.rows, left) == want_left
    assert Subspace.from_rows(a.field, a.cols, right) == want_right


@PROPERTY
@given(st.data())
def test_product_entries_are_row_column_dots(data):
    # zero-heavy factors exercise the skips on both sides of the product
    F = data.draw(st.sampled_from(FIELDS))
    n, k, m = (data.draw(st.integers(lo, 4)) for lo in (0, 1, 0))
    a = Matrix.from_rows(F, data.draw(_rows(F, n, k))) if n \
        else Matrix.zero(F, 0, k)
    b = Matrix.from_rows(F, data.draw(_rows(F, k, m)))
    prod = a * b
    assert (prod.rows, prod.cols) == (n, m)
    cols = [tuple(b[t, j] for t in range(k)) for j in range(m)]
    for i in range(n):
        assert prod.row(i) == tuple(dot(a.row(i), c) for c in cols)
        assert vec_mat(a.row(i), b) == prod.row(i)


# ---------------------------------------------------------------------------
# the integer product-sum kernel under _row_times and _sub_mul

KERNEL_ORDERS = (1, 2, 3, 4, 5, 12, 20, 28)
# pairs of these are equal, coprime (2, 3; 4, 9) or share a factor (4, 6)
KERNEL_DENS = (1, 2, 3, 4, 6, 9)
KERNEL = settings(max_examples=300, deadline=None)


@st.composite
def _kernel_elements(draw, field):
    """Zero, c/den * z^k, or a dense element over den, den from
    KERNEL_DENS."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return field.zero()
    den = draw(st.sampled_from(KERNEL_DENS))
    if kind == 1:
        c = draw(st.integers(-3, 3).filter(bool))
        return field.from_rational(Fraction(c, den)) * \
            field.zeta(draw(st.integers(0, field.n - 1)))
    return field.element([Fraction(draw(st.integers(-3, 3)), den)
                          for _ in range(field.degree)])


def _assert_canonical(x, field):
    assert x.field is field
    assert type(x.num) is tuple and len(x.num) == field.degree
    assert all(type(c) is int for c in x.num)
    assert type(x.den) is int and x.den > 0
    assert gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


@KERNEL
@given(st.data())
def test_row_kernels_match_the_element_oracles(data):
    """_row_times and _sub_mul against element-by-element products and
    sums, with zero entries, zero rows of the matrix, zero vectors and
    denominators that are equal, coprime or share a factor."""
    F = CycloField(data.draw(st.sampled_from(KERNEL_ORDERS)))
    elements = _kernel_elements(F)
    rows, ncols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    zero = F.zero()
    entries = []
    for _ in range(rows):
        if data.draw(st.integers(0, 3)):
            entries.extend(data.draw(elements) for _ in range(ncols))
        else:
            entries.extend([zero] * ncols)
    vectors = [[data.draw(elements) for _ in range(rows)], [zero] * rows]
    for v in vectors:
        got = _row_times(v, entries, ncols, zero)
        assert got == row_times_oracle(v, entries, ncols, zero)
        for x in got:
            _assert_canonical(x, F)
    xs = [data.draw(elements) for _ in range(ncols)]
    c = data.draw(elements)
    for i in range(rows):
        ys = entries[i * ncols:(i + 1) * ncols]
        got = _sub_mul(xs, c, ys)
        assert got == sub_mul_oracle(xs, c, ys)
        for x in got:
            _assert_canonical(x, F)


@KERNEL
@given(st.data())
def test_dot_and_scalar_products_match_the_product_oracle(data):
    """dot(u, v) is the sum of the products u_k*v_k, and c*M and M*c are
    c times each entry, for an int, Fraction or element c, entry for
    entry against mul_oracle."""
    F = CycloField(data.draw(st.sampled_from(KERNEL_ORDERS)))
    elements = _kernel_elements(F)
    size = data.draw(st.integers(1, 5))
    u = [data.draw(elements) for _ in range(size)]
    v = [data.draw(elements) for _ in range(size)]
    want = F.zero()
    for a, b in zip(u, v):
        want = want + mul_oracle(a, b)
    got = dot(u, v)
    _assert_canonical(got, F)
    assert (got.num, got.den) == (want.num, want.den)
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    m = Matrix(F, rows, cols, [data.draw(elements)
                               for _ in range(rows * cols)])
    k = data.draw(st.integers(-4, 4))
    den = data.draw(st.sampled_from(KERNEL_DENS))
    scalars = [k, Fraction(k, den), data.draw(elements)]
    for c in scalars:
        e = F.from_rational(c) if isinstance(c, (int, Fraction)) else c
        want = [mul_oracle(e, x) for x in m.entries]
        for got in (m * c, c * m):
            assert (got.field, got.rows, got.cols) == (F, rows, cols)
            for x, w in zip(got.entries, want):
                _assert_canonical(x, F)
                assert (x.num, x.den) == (w.num, w.den)


def test_mixed_fields_raise_field_mismatch():
    """Q(zeta_3) and Q(zeta_4) both have degree 2, so without the kernel's
    field check each case would compute on the other field's numerators
    and return."""
    F3, F4 = CycloField(3), CycloField(4)
    a3 = Matrix.from_rows(F3, [[F3.zeta(), F3.one()], [F3.one(), F3.zeta(2)]])
    a4 = Matrix.from_rows(F4, [[F4.zeta(), F4.one()], [F4.one(), F4.zeta(3)]])
    v4 = a4.row(0)
    mixed = Matrix(F3, 2, 2, [F3.zeta(), F4.zeta(), F3.one(), F4.one()])
    cases = [
        lambda: vec_mat(v4, a3),
        lambda: a3 * a4,
        lambda: RowSolver(a3).solve(v4),
        lambda: Subspace.from_rows(F3, 2, [a3.row(0)]).contains(v4),
        lambda: kernel_left(mixed),
        lambda: dot(a3.row(0), v4),
        lambda: dot((F3.zero(), F3.zero()), v4),
        lambda: a3 * F4.zeta(),
        lambda: F4.zeta() * a3,
        lambda: Matrix.zero(F3, 2, 2) * F4.zeta(),
        lambda: F4.zero() * a3,
    ]
    for case in cases:
        with pytest.raises(FieldMismatch):
            case()


@PROPERTY
@given(_square())
def test_inverse_is_two_sided_or_raises(m):
    ident = Matrix.identity(m.field, m.rows)
    if m.is_invertible():
        inv = m.inverse()
        assert m * inv == ident
        assert inv * m == ident
    else:
        with pytest.raises(NotInvertible):
            m.inverse()


@PROPERTY
@given(_square(), st.data())
def test_dependent_row_makes_a_matrix_singular(m, data):
    if not m.rows:
        return
    rows = m.row_list()
    c = data.draw(_elements(m.field))
    rows[-1] = vec_scale(rows[0], c) if m.rows > 1 else (m.field.zero(),)
    singular = Matrix.from_rows(m.field, rows)
    assert singular.is_invertible() is False
    with pytest.raises(NotInvertible):
        singular.inverse()


def test_inverse_of_empty_and_one_by_one_matrices():
    F = CycloField(5)
    empty = Matrix(F, 0, 0, [])
    assert empty.is_invertible()
    assert empty.inverse() == empty
    a = F.element([1, 2, 0, -1])
    one = Matrix.from_rows(F, [[a]])
    assert one.inverse() == Matrix.from_rows(F, [[a.inverse()]])
    zero = Matrix.from_rows(F, [[F.zero()]])
    assert zero.is_invertible() is False
    with pytest.raises(NotInvertible):
        zero.inverse()


def _assert_chart_coords(ambient, sub, vectors):
    """coords agree with solving x*(reps + sub) = v for the reps part."""
    chart = quotient_chart(ambient, sub)
    k = len(chart.reps)
    stacked = list(chart.reps) + list(sub.basis)
    for v in vectors:
        want = ()
        if stacked:
            want = solve_row_oracle(
                Matrix.from_rows(ambient.field, stacked), v)[:k]
        assert chart.coords(v) == want


def _assert_chart_reps(ambient, sub):
    """The reps are the basis rows that grow the span of sub and the rows
    kept before them."""
    F, n = ambient.field, ambient.ambient_dim
    kept, want = list(sub.basis), []
    for row in ambient.basis:
        grown = Subspace.from_rows(F, n, kept + [row]).dim
        if grown > Subspace.from_rows(F, n, kept).dim:
            kept.append(row)
            want.append(row)
    chart = quotient_chart(ambient, sub)
    assert chart.reps == tuple(want)
    assert chart.dim == ambient.dim - sub.dim


@PROPERTY
@given(_ambient_and_sub(), st.data())
def test_chart_coords_match_solving_the_stacked_system(spaces, data):
    ambient, sub = spaces
    _assert_chart_coords(ambient, sub, [
        combo_of(ambient, coeffs, ambient.field)
        for coeffs in data.draw(_rows(ambient.field, 3, ambient.dim))])


@PROPERTY
@given(_ambient_and_sub())
def test_chart_reps_are_where_the_span_grows(spaces):
    _assert_chart_reps(*spaces)


def test_chart_of_w_matches_the_oracles_on_tuples():
    """The W charts of the check cases, among them tuples with dim E >= 2
    whose check matrix has kernel columns (k_i > 0)."""
    rng = random.Random(1207)
    wide = 0
    for g in check_cases():
        ws = w_space(g)
        _assert_chart_reps(ws.H, ws.E)
        _assert_chart_coords(ws.H, ws.E,
                             [rand_h_elem(ws.H, rng) for _ in range(3)])
        wide += ws.E.dim >= 2 and ws.K.cols > g.dim
    assert wide >= 2


def test_chart_edge_cases():
    F = CycloField(3)
    z, o = F.zero(), F.one()
    ambient = Subspace.from_rows(F, 3, [(o, F.zeta(), z), (z, o, o)])
    zero_sub = Subspace(F, 3, ())
    chart = quotient_chart(ambient, zero_sub)
    assert chart.reps == ambient.basis
    assert chart.coords(ambient.basis[1]) == (z, o)
    full = quotient_chart(ambient, ambient)
    assert full.dim == 0
    assert full.coords(ambient.basis[0]) == ()
    outside = (z, z, o)
    for c in (chart, full):
        with pytest.raises(NotASubspace):
            c.coords(outside)
    with pytest.raises(NotASubspace):
        quotient_chart(zero_sub, ambient)


def test_shape_mismatches_raise():
    F = CycloField(3)
    o = F.one()
    a = Matrix.identity(F, 2)
    b = Matrix.zero(F, 3, 2)
    cases = [
        lambda: dot((o, o), (o,)),
        lambda: dot((), ()),
        lambda: vec_mat((o,), a),
        lambda: Matrix(F, 2, 2, [o] * 3),
        lambda: Matrix.from_rows(F, [[o, o], [o]]),
        lambda: a + b,
        lambda: a - b,
        lambda: a * b,
        lambda: b.trace(),
        lambda: RowSolver(a).solve((o,)),
    ]
    for case in cases:
        with pytest.raises(ShapeMismatch):
            case()
