"""Tuple validation and the cocycle spaces H, E, W."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (check_cases, rand_h_elem, rand_tuple, sl2_tuple,
                     unit_scalar_tuple)
from parcoh.braid import BraidWord, act_on_tuple
from oracles import h_space_oracle, solve_row_oracle
from parcoh.cyclo import CycloField
from parcoh import linalg
from parcoh.errors import (NotInvertible, ProductNotOne, TooFewPoints,
                           TupleError)
from parcoh.linalg import Matrix, Subspace, vec_add, vec_mat
from parcoh.tuples import (MatTuple, _shared_suffix_products,
                           common_fixed_space, dual_tuple, e_space, h_check,
                           h_space, validate_tuple, w_space)


def _scalar(field, x):
    return Matrix.scalar(field, 1, x)


def test_validate_accepts_good_tuple():
    F = CycloField(3)
    z = F.zeta()
    g = validate_tuple([_scalar(F, z)] * 3)  # z^3 = 1
    assert g.r == 3 and g.dim == 1


def test_validate_rejects_bad_product():
    F = CycloField(3)
    z = F.zeta()
    with pytest.raises(ProductNotOne):
        validate_tuple([_scalar(F, z), _scalar(F, z), _scalar(F, z * z)])


def test_validate_rejects_short_tuples():
    F = CycloField(3)
    z = F.zeta()
    with pytest.raises(TooFewPoints):
        validate_tuple([_scalar(F, z), _scalar(F, z * z)])


def test_validate_rejects_singular_entry():
    F = CycloField(3)
    bad = Matrix.zero(F, 1, 1)
    with pytest.raises(TupleError):
        validate_tuple([bad, _scalar(F, F.one()), _scalar(F, F.one())])


def test_validate_eliminates_entries_only_after_a_failed_check(monkeypatch):
    """A product equal to 1 makes every entry invertible, so a valid tuple
    is built without an elimination; a failed check still names the first
    singular entry."""
    cases = [list(g.mats) for g in check_cases()]
    calls = []
    rref = linalg._rref_rows
    monkeypatch.setattr(linalg, "_rref_rows",
                        lambda *args: calls.append(1) or rref(*args))
    F = CycloField(3)
    validate_tuple([_scalar(F, F.zeta())] * 3)
    for mats in cases:
        validate_tuple(mats)
    assert calls == []
    one, bad = _scalar(F, F.one()), Matrix.zero(F, 1, 1)
    with pytest.raises(NotInvertible, match="^matrix 2 is singular$"):
        validate_tuple([one, bad, one])
    with pytest.raises(NotInvertible, match="^matrix 1 is singular$"):
        validate_tuple([bad, Matrix.identity(F, 2), one])
    with pytest.raises(ProductNotOne):
        validate_tuple([one, _scalar(F, F.zeta()), one])
    assert calls


def test_cocycle_space_dimensions_for_scalar_tuples():
    rng = random.Random(301)
    for _ in range(30):
        F = CycloField(rng.choice([3, 4, 5, 8, 12]))
        r = rng.randint(3, 7)
        g, _ = unit_scalar_tuple(F, r, rng)
        assert h_space(g).dim == r - 1
        assert e_space(g).dim == 1
        assert w_space(g).dim == r - 2


def test_h_space_elements_satisfy_both_conditions():
    rng = random.Random(302)
    F = CycloField(3)
    for _ in range(10):
        g = rand_tuple(F, 4, 2, rng)
        H = h_space(g)
        d, r = g.dim, g.r
        ident = Matrix.identity(F, d)
        for _ in range(3):
            v = rand_h_elem(H, rng)
            blocks = [tuple(v[i * d:(i + 1) * d]) for i in range(r)]
            # each block lies in the image of g_i - 1
            for i, b in enumerate(blocks):
                assert solve_row_oracle(g.mats[i] - ident, b) is not None
            # the twisted sum telescopes to zero
            total = tuple(F.zero() for _ in range(d))
            for i in range(r):
                suffix = ident
                for j in range(i + 1, r):
                    suffix = suffix * g.mats[j]
                total = tuple(x + y for x, y in
                              zip(total, vec_mat(blocks[i], suffix)))
            assert all(not x for x in total)


def test_e_space_is_the_image_of_the_coboundary():
    rng = random.Random(303)
    F = CycloField(4)
    g = rand_tuple(F, 4, 2, rng)
    E = e_space(g)
    H = h_space(g)
    ident = Matrix.identity(F, 2)
    # the coboundary of every ambient vector lands in E (and in H)
    for _ in range(5):
        from helpers import rand_element
        v = tuple(rand_element(F, rng) for _ in range(2))
        flat = []
        for m in g.mats:
            flat.extend(vec_mat(v, m - ident))
        assert E.contains(tuple(flat))
        assert H.contains(tuple(flat))
    assert H.contains_subspace(E)


def test_dual_tuple_is_an_involution_with_product_one():
    rng = random.Random(304)
    F = CycloField(3)
    for _ in range(8):
        g = rand_tuple(F, rng.randint(3, 5), rng.randint(1, 3), rng)
        gs = dual_tuple(g)
        validate_tuple(list(gs.mats))
        for a, b in zip(g.mats, gs.mats):
            assert b == a.inverse().transpose()
        back = dual_tuple(gs)
        assert all(x == y for x, y in zip(back.mats, g.mats))


def test_conjugate_entries_is_entrywise():
    F = CycloField(3)
    z = F.zeta()
    g = MatTuple(F, 1, [_scalar(F, z)] * 3)
    gbar = g.conjugate_entries()
    assert gbar.mats[0][0, 0] == z.conjugate()
    again = gbar.conjugate_entries()
    assert all(x == y for x, y in zip(again.mats, g.mats))


def test_common_fixed_space():
    F = CycloField(3)
    z = F.zeta()
    g, _ = unit_scalar_tuple(F, 4, random.Random(305))
    assert common_fixed_space(g).dim == 0
    # lower unitriangular blocks all fix the first coordinate vector
    one, zero = F.one(), F.zero()
    a = Matrix.from_rows(F, [[one, zero], [z, one]])
    b = Matrix.from_rows(F, [[one, zero], [one, one]])
    c = (a * b).inverse()
    g2 = MatTuple(F, 2, [a, b, c])
    fixed = common_fixed_space(g2)
    assert fixed.dim == 1
    assert fixed.contains((one, zero))


def test_suffix_products():
    # suffix_products()[i-1] is g_(i+1)*...*g_r, the last one the identity
    rng = random.Random(306)
    F = CycloField(3)
    g = rand_tuple(F, 4, 2, rng)
    suff = g.suffix_products()
    ident = Matrix.identity(F, 2)
    assert len(suff) == g.r
    assert suff[-1] == ident
    for i in range(g.r):
        expect = ident
        for j in range(i + 1, g.r):
            expect = expect * g.mats[j]
        assert suff[i] == expect


def test_shared_suffix_products_match_a_fresh_product(monkeypatch):
    """For the tuple moved by one letter, two products; for a tuple that
    breaks g_i*g_(i+1) or changes any other entry, still its own suffix
    products."""
    products = []
    real = Matrix.__mul__

    def counted(a, b):
        products.append(1)
        return real(a, b)

    for g in check_cases():
        suff = g.suffix_products()
        for i in range(1, g.r - 1):
            for e in (1, -1):
                tup = act_on_tuple(g, BraidWord(g.r - 1, [(i, e)]))
                monkeypatch.setattr(Matrix, "__mul__", counted)
                del products[:]
                shared = _shared_suffix_products(tup, g, suff)
                monkeypatch.setattr(Matrix, "__mul__", real)
                assert shared == tup.suffix_products()
                assert len(products) <= 2
                for j in (i - 1, i, 0, g.r - 1):
                    mats = list(tup.mats)
                    mats[j] = mats[j] + mats[j]
                    wrong = MatTuple(g.field, g.dim, mats)
                    assert _shared_suffix_products(wrong, g, suff) == \
                        wrong.suffix_products()


# ---------------------------------------------------------------------------
# H as the left kernel of the check matrix K_g


def test_h_space_matches_the_block_image_oracle():
    cases = check_cases()
    kernel_columns = 0
    for g in cases:
        H = h_space(g)
        assert H == h_space_oracle(g), g
        K = h_check(g)
        assert K.rows == g.r * g.dim
        kernel_columns += K.cols - g.dim
        # K decides membership of the H basis and of every unit vector
        zero, one = g.field.zero(), g.field.one()
        for v in H.basis:
            assert not any(vec_mat(v, K))
        for j in range(K.rows):
            e = tuple(one if i == j else zero for i in range(K.rows))
            assert any(vec_mat(e, K)) == (not H.contains(e))
    assert kernel_columns > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_check_matrix_decides_h_membership(data):
    ws = w_space(data.draw(st.sampled_from(check_cases())))
    F, n = ws.tuple.field, ws.tuple.r * ws.tuple.dim
    v = tuple(F.zero() for _ in range(n))
    for row in ws.H.basis:
        c = data.draw(st.integers(-3, 3))
        v = vec_add(v, tuple(x * F.from_rational(c) for x in row))
    if data.draw(st.booleans(), label="leave H"):
        noise = data.draw(st.lists(st.integers(-2, 2), min_size=n,
                                   max_size=n))
        v = vec_add(v, tuple(F.from_rational(c) for c in noise))
    assert any(vec_mat(v, ws.K)) == (not ws.H.contains(v))


# ---------------------------------------------------------------------------
# Euler characteristic of parabolic cohomology


def _assert_euler_characteristic(g):
    """dim W = sum_i rk(g_i - 1) - 2d + dim H^0(g) + dim H^0(g*), with
    H^0(g*) standing for H^2(g) by duality."""
    ident = Matrix.identity(g.field, g.dim)
    ranks = sum(Subspace.from_rows(g.field, g.dim, (m - ident).row_list()).dim
                for m in g.mats)
    want = (ranks - 2 * g.dim + common_fixed_space(g).dim
            + common_fixed_space(dual_tuple(g)).dim)
    assert w_space(g).dim == want, g


def test_euler_characteristic_on_the_check_cases():
    for g in check_cases():
        _assert_euler_characteristic(g)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 4, 5, 6)), st.integers(3, 5), st.integers(1, 2),
       st.integers(0, 2 ** 32 - 1))
def test_euler_characteristic_on_random_tuples(n, r, d, seed):
    _assert_euler_characteristic(
        rand_tuple(CycloField(n), r, d, random.Random(seed)))
