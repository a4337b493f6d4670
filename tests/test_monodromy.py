"""Monodromy representations assembled from braid words and twist matrices."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_tuple, unit_scalar_tuple
from oracles import compose, induced_on_W, phi_dense_oracle, psi
from parcoh import monodromy, picard
from parcoh.braid import BraidWord, ChainMap, parse_braid, phi_on_H
from parcoh.cyclo import CycloField
from parcoh.errors import IncompatibleSpec, UnknownGenerator
from parcoh.linalg import Matrix, kernel_left
from parcoh.monodromy import (VariationSpec, check_compatibility, eta,
                              monodromy_generators)
from parcoh.tuples import MatTuple


def test_picard_variation_is_compatible():
    spec = picard.variation()
    for name, ok, bad in check_compatibility(spec):
        assert ok, "%s moves the tuple (entry %s)" % (name, bad)


def test_compatibility_failure_is_reported_with_position():
    F = CycloField(3)
    one, zero, z = F.one(), F.zero(), F.zeta()
    a = Matrix.from_rows(F, [[one, one], [zero, one]])
    b = Matrix.from_rows(F, [[one, zero], [z, one]])
    c = (a * b).inverse()
    g = VariationSpec(
        MatTuple(F, 2, [a, b, c]),
        [("gamma", parse_braid("b1", 2), Matrix.identity(F, 2))])
    report = check_compatibility(g)
    assert report == [("gamma", False, 1)]
    with pytest.raises(IncompatibleSpec):
        monodromy_generators(g)


def test_every_incompatible_generator_is_named_in_spec_order(monkeypatch):
    F = CycloField(3)
    one, zero, z = F.one(), F.zero(), F.zeta()
    a = Matrix.from_rows(F, [[one, one], [zero, one]])
    b = Matrix.from_rows(F, [[one, zero], [z, one]])
    c = (a * b).inverse()
    ident = Matrix.identity(F, 2)
    g = MatTuple(F, 2, [a, b, c])
    # the full twist b1^2 conjugates g_1, g_2 by g_3^-1 = g_1 g_2, so its
    # chi is g_3; the identity and g_3^-1 are wrong twists for it
    twist = parse_braid("b1^2", 2)
    assert check_compatibility(VariationSpec(g, [("t", twist, ident)])) == \
        [("t", False, 1)]
    spec = VariationSpec(g, [
        ("fixed", parse_braid("", 2), ident),
        ("later", parse_braid("b1^-1", 2), ident),
        ("twist", twist, c),
        ("still", parse_braid("b1 b1^-1", 2), ident),
        ("wrongchi", twist, c.inverse()),
        ("earlier", parse_braid("b1", 2), ident)])
    report = check_compatibility(spec)
    assert [ok for _, ok, _ in report] == \
        [True, False, True, True, False, False]
    bad = [name for name, ok, _ in report if not ok]

    def no_w_space(g):
        raise AssertionError("W built for an incompatible spec")

    monkeypatch.setattr(monodromy, "w_space", no_w_space)
    with pytest.raises(IncompatibleSpec) as err:
        monodromy_generators(spec)
    assert str(err.value) == \
        "compatibility fails for: later, wrongchi, earlier"
    assert str(err.value) == "compatibility fails for: " + ", ".join(bad)


def _full_twist(strands, exp):
    """(b1 b2 ... b_(s-1))^s, or its inverse for exp = -1."""
    word = BraidWord(strands, [(i, 1) for i in range(1, strands)] * strands)
    return word if exp == 1 else word.inverse()


def test_monodromy_with_a_nonidentity_twist():
    """The full twist on g_1..g_(r-1) conjugates them by P = g_1...g_(r-1),
    g_i -> P^-1 g_i P, and P^-1 = g_r, so its chi is g_r, not 1."""
    rng = random.Random(502)
    F = CycloField(3)
    g = rand_tuple(F, 4, 2, rng)
    last = g.mats[-1]
    assert last != Matrix.identity(F, 2)
    gens = [("twist", _full_twist(g.r - 1, 1), last),
            ("untwist", _full_twist(g.r - 1, -1), last.inverse())]
    assert all(ok for _, ok, _ in check_compatibility(VariationSpec(g, gens)))
    rep = monodromy_generators(VariationSpec(g, gens))
    ws = rep.wspace
    assert ws.dim > 0
    for (_, m), (_, beta, chi) in zip(rep.images, gens):
        assert m == induced_on_W(compose(phi_on_H(g, beta), psi(g, chi)),
                                 ws, ws)
        dense, mats = phi_dense_oracle(g, beta)
        oracle = ChainMap(g, MatTuple(F, 2, mats), dense)
        assert m == induced_on_W(compose(oracle, psi(g, chi)), ws, ws)
    twist, untwist = rep.image_by_name("twist"), rep.image_by_name("untwist")
    assert twist * untwist == Matrix.identity(F, ws.dim)


def _dense_monodromy(g, beta, chi, ws):
    """The map on W from the dense Phi oracle composed with the dense Psi."""
    dense, mats = phi_dense_oracle(g, beta)
    chain = ChainMap(g, MatTuple(g.field, g.dim, mats), dense)
    return induced_on_W(compose(chain, psi(g, chi)), ws, ws)


def _pure_braid(strands, i, j):
    """A_ij = c b_i^2 c^-1 with c = b_(j-1)...b_(i+1), 1 <= i < j <= strands."""
    c = BraidWord(strands, [(k, 1) for k in range(j - 1, i, -1)])
    return c * BraidWord(strands, [(i, 1), (i, 1)]) * c.inverse()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rank_one_pure_braid_products_match_the_dense_oracle(data):
    """Products of A_ij and their inverses fix a rank-one tuple, chi = 1."""
    n = data.draw(st.sampled_from([1, 3, 4, 6]), label="n")
    r = data.draw(st.integers(3, 6), label="r")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    F = CycloField(n)
    g = rand_tuple(F, r, 1, rng, span=2)
    s = r - 1
    words = []
    for _ in range(data.draw(st.integers(1, 3), label="generators")):
        beta = BraidWord(s, [])
        for _ in range(data.draw(st.integers(0, 3), label="factors")):
            i = data.draw(st.integers(1, s - 1), label="i")
            j = data.draw(st.integers(i + 1, s), label="j")
            step = _pure_braid(s, i, j)
            if data.draw(st.booleans(), label="inverse"):
                step = step.inverse()
            beta = beta * step
        words.append(beta)
    one = Matrix.identity(F, 1)
    spec = VariationSpec(g, [("w%d" % k, beta, one)
                             for k, beta in enumerate(words)])
    rep = monodromy_generators(spec)
    for (_, m), beta in zip(rep.images, words):
        assert m == _dense_monodromy(g, beta, one, rep.wspace)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_full_twists_with_nonidentity_chi_match_the_dense_oracle(data):
    """d = 2 and 3: the full twist and its inverse, chi = g_r and g_r^-1."""
    d = data.draw(st.sampled_from([2, 3]), label="d")
    r = data.draw(st.integers(3, 4), label="r")
    F = CycloField(data.draw(st.sampled_from([3, 4]), label="n"))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    g = rand_tuple(F, r, d, rng)
    last = g.mats[-1]
    gens = [("twist", _full_twist(r - 1, 1), last),
            ("untwist", _full_twist(r - 1, -1), last.inverse())]
    rep = monodromy_generators(VariationSpec(g, gens))
    for (_, m), (_, beta, chi) in zip(rep.images, gens):
        assert m == _dense_monodromy(g, beta, chi, rep.wspace)


def _rank_one_tuples(F, r, rng):
    """A tuple of roots of unity and one of other scalars, no entry 1."""
    yield unit_scalar_tuple(F, r, rng)[0]
    while True:
        g = rand_tuple(F, r, 1, rng, span=2)
        if all(m[0, 0] != 1 for m in g.mats):
            yield g
            return


@pytest.mark.parametrize("n", [3, 4, 5, 6, 12])
def test_rank_one_pure_braids_act_as_reflections(n):
    """On a rank-one tuple with no entry 1, A_ij acts on W as a
    pseudo-reflection of determinant g_i*g_j (Deligne-Mostow, 1986):
    rank(eta - 1) <= 1, so det eta = 1 + tr(eta - 1), and
    tr(eta) - (dim W - 1) = g_i*g_j."""
    F = CycloField(n)
    rng = random.Random(1700 + n)
    one = Matrix.identity(F, 1)
    for r in range(4, 8):
        for g in _rank_one_tuples(F, r, rng):
            s = r - 1
            gens = [((i, j), _pure_braid(s, i, j), one)
                    for i in range(1, s) for j in range(i + 1, s + 1)]
            rep = monodromy_generators(VariationSpec(g, gens))
            w = rep.wspace.dim
            assert w == r - 2
            ident = Matrix.identity(F, w)
            for (i, j), m in rep.images:
                assert w - kernel_left(m - ident).dim <= 1, (n, r, i, j)
                assert m.trace() - (w - 1) == \
                    g.mats[i - 1][0, 0] * g.mats[j - 1][0, 0], (n, r, i, j)


def test_monodromy_inverts_each_tuple_entry_once(monkeypatch):
    """No letter inverts a matrix: the r entries of g are inverted once."""
    spec = picard.variation()
    calls = []
    inverse = Matrix.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Matrix, "inverse", counted)
    monodromy_generators(spec)
    assert spec.tuple.r == 5
    assert len(calls) == 5


def test_identity_twists_never_conjugate_the_tuple(monkeypatch):
    spec = picard.variation()
    want = monodromy_generators(spec).images

    def no_conjugation(self, h):
        raise AssertionError("conjugated by an identity twist")

    monkeypatch.setattr(MatTuple, "conjugated", no_conjugation)
    assert monodromy_generators(spec).images == want


def test_picard_generators_act_invertibly_on_W():
    rep = monodromy_generators(picard.variation())
    assert rep.wspace.dim == 3
    for name, m in rep.images:
        assert m.rows == 3 and m.cols == 3
        assert m.is_invertible()
    with pytest.raises(UnknownGenerator):
        rep.image_by_name("nonsense")


def test_eta_multiplies_in_path_order():
    spec = picard.variation()
    rep = monodromy_generators(spec)
    m1 = rep.image_by_name("gamma1")
    m2 = rep.image_by_name("gamma2")
    assert eta(spec, "gamma1 gamma2") == m1 * m2
    assert eta(spec, "gamma2 gamma1") == m2 * m1
    assert eta(spec, "gamma1^-1") == m1.inverse()
    assert eta(spec, "gamma1 gamma1^-1") == Matrix.identity(m1.field, 3)
    assert eta(spec, "") == Matrix.identity(m1.field, 3)
    assert eta(spec, "gamma2^2") == m2 * m2


def test_scalar_twist_scales_the_representation():
    """With chi = c*identity the W image picks up the factor c blockwise."""
    base = picard.variation()
    g = base.tuple
    F = g.field
    c = F.from_rational(2)
    twist = Matrix.scalar(F, 1, c)
    spec = VariationSpec(g, [(name, beta, twist)
                             for name, beta, _ in base.generators])
    plain = monodromy_generators(base)
    scaled = monodromy_generators(spec)
    for (name, m0), (_, m1) in zip(plain.images, scaled.images):
        assert m1 == m0 * Matrix.scalar(F, 3, c)


def test_monodromy_of_random_tuple_with_stabilizing_word():
    """Pure braid words preserve scalar tuples, so generator squares give reps."""
    rng = random.Random(501)
    for _ in range(10):
        F = CycloField(rng.choice([3, 4, 5]))
        g, _ = unit_scalar_tuple(F, rng.randint(4, 6), rng)
        i = rng.randrange(1, g.r - 1)
        beta = BraidWord(g.r - 1, [(i, 1), (i, 1)])
        spec = VariationSpec(g, [("t", beta, Matrix.identity(F, 1))])
        rep = monodromy_generators(spec)
        m = rep.image_by_name("t")
        assert m.is_invertible()
        assert m.rows == g.r - 2
