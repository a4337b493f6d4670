"""Cup pairing, Hermitian Gram matrices, and exact signatures."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (check_cases, plus_trivial_block, rand_combo,
                     rand_element, rand_h_elem, rand_invertible, rand_tuple,
                     sl2_tuple, unit_scalar_tuple, vec_scale)
from oracles import (cup_chain_oracle, galois_oracle, numeric_signature,
                     signature_oracle)
from parcoh import duality, linalg, picard, tuples
from parcoh.cyclo import CycloField, parse_element
from parcoh.duality import (SesquiData, _dual_check, _lift, cup_pairing,
                            gram_on_W, predicted_signature, signature)
from parcoh.errors import (FormNotInvariant, NonzeroH0, NotHermitian,
                           NotParabolic, TupleMismatch)
from parcoh.linalg import (Matrix, kernel_left, vec_add, vec_conj, vec_mat,
                           vec_sub)
from parcoh.tuples import (MatTuple, _entry_solver, dual_tuple, e_space,
                           h_check, h_space, w_space)


def _lift_block(m, v):
    """A v' with v'*(m - 1) = v, from the RowSolver of m - 1 that w_space
    keeps for each entry m."""
    return _lift(_entry_solver(m), v)


def test_lift_parabolic_solves_and_rejects():
    """A block in Im(g_1 - 1) lifts through the solver of g_1 - 1, and a
    block outside it raises NotParabolic."""
    F = CycloField(3)
    z = F.zeta()
    g1 = Matrix.scalar(F, 1, z)
    v = (z - F.one(),)
    u = _lift_block(g1, v)
    assert vec_mat(u, g1 - Matrix.identity(F, 1)) == v
    with pytest.raises(NotParabolic):
        _lift_block(Matrix.identity(F, 1), (F.one(),))


def test_cup_pairing_requires_the_dual_tuple():
    rng = random.Random(601)
    F = CycloField(3)
    g = rand_tuple(F, 3, 2, rng)
    H = h_space(g)
    v = rand_h_elem(H, rng)
    with pytest.raises(TupleMismatch):
        cup_pairing(g, g, v, v)
    gs = dual_tuple(g)
    vs = rand_h_elem(h_space(gs), rng)
    cup_pairing(gs, g, vs, v)
    # wrong in one matrix only: the last one, swapped for its transpose
    mats = list(gs.mats)
    assert mats[-1] != mats[-1].transpose()
    mats[-1] = mats[-1].transpose()
    with pytest.raises(TupleMismatch):
        cup_pairing(MatTuple(F, 2, mats), g, vs, v)
    # a shorter tuple and a tuple over another field are not the dual
    with pytest.raises(TupleMismatch):
        cup_pairing(MatTuple(F, 2, gs.mats[:-1]), g, vs, v)
    with pytest.raises(TupleMismatch):
        cup_pairing(gs.coerce(CycloField(6)), g, vs, v)


def test_cup_agrees_with_chain_oracle():
    rng = random.Random(602)
    checked = 0
    while checked < 40:
        F = CycloField(rng.choice([1, 3, 4]))
        g = rand_tuple(F, rng.randint(3, 5), rng.randint(1, 3), rng)
        gs = dual_tuple(g)
        H, Hs = h_space(g), h_space(gs)
        if H.dim == 0 or Hs.dim == 0:
            continue
        phi = rand_h_elem(Hs, rng)
        psi = rand_h_elem(H, rng)
        assert cup_pairing(gs, g, phi, psi) == cup_chain_oracle(gs, g, phi, psi)
        checked += 1


def test_cup_is_independent_of_the_lifts():
    rng = random.Random(603)
    checked = 0
    while checked < 25:
        F = CycloField(rng.choice([1, 3]))
        g = rand_tuple(F, rng.randint(3, 4), rng.randint(1, 3), rng)
        gs = dual_tuple(g)
        H, Hs = h_space(g), h_space(gs)
        if H.dim == 0 or Hs.dim == 0:
            continue
        phi = rand_h_elem(Hs, rng)
        psi = rand_h_elem(H, rng)
        base = cup_pairing(gs, g, phi, psi)
        d, r = g.dim, g.r
        ident = Matrix.identity(F, d)
        blocks = [tuple(psi[i * d:(i + 1) * d]) for i in range(r)]
        lifts = []
        for i in range(r):
            u = _lift_block(g.mats[i], blocks[i])
            ker = kernel_left(g.mats[i] - ident)
            if ker.dim:
                u = vec_add(u, rand_combo(list(ker.basis), F, rng))
            lifts.append(u)
        assert cup_pairing(gs, g, phi, psi, lifts=lifts) == base
        checked += 1


def test_cup_rejects_wrong_lifts():
    rng = random.Random(604)
    F = CycloField(3)
    while True:
        g = rand_tuple(F, 3, 2, rng)
        gs = dual_tuple(g)
        H, Hs = h_space(g), h_space(gs)
        if H.dim and Hs.dim:
            break
    phi = rand_h_elem(Hs, rng)
    psi = rand_h_elem(H, rng)
    d = g.dim
    blocks = [tuple(psi[i * d:(i + 1) * d]) for i in range(g.r)]
    lifts = [_lift_block(g.mats[i], blocks[i]) for i in range(g.r)]
    lifts[0] = vec_add(lifts[0], (F.one(), F.one()))
    ident = Matrix.identity(F, d)
    if vec_mat(lifts[0], g.mats[0] - ident) != blocks[0]:
        with pytest.raises(NotParabolic):
            cup_pairing(gs, g, phi, psi, lifts=lifts)


def test_cup_descends_to_W():
    """Shifting either argument by a coboundary leaves the value unchanged."""
    rng = random.Random(605)
    checked = 0
    while checked < 25:
        F = CycloField(rng.choice([1, 3, 4]))
        g = rand_tuple(F, rng.randint(3, 4), rng.randint(1, 2), rng)
        gs = dual_tuple(g)
        H, Hs = h_space(g), h_space(gs)
        E, Es = e_space(g), e_space(gs)
        if H.dim == 0 or Hs.dim == 0:
            continue
        phi = rand_h_elem(Hs, rng)
        psi = rand_h_elem(H, rng)
        base = cup_pairing(gs, g, phi, psi)
        if E.dim:
            shift = rand_combo(list(E.basis), F, rng)
            assert cup_pairing(gs, g, phi, vec_add(psi, shift)) == base
        if Es.dim:
            shift = rand_combo(list(Es.basis), F, rng)
            assert cup_pairing(gs, g, vec_add(phi, shift), psi) == base
        checked += 1


def test_cup_is_antisymmetric():
    rng = random.Random(606)
    checked = 0
    while checked < 20:
        F = CycloField(rng.choice([1, 3]))
        g = rand_tuple(F, rng.randint(3, 4), rng.randint(1, 2), rng)
        gs = dual_tuple(g)
        H, Hs = h_space(g), h_space(gs)
        if H.dim == 0 or Hs.dim == 0:
            continue
        phi = rand_h_elem(Hs, rng)
        psi = rand_h_elem(H, rng)
        assert cup_pairing(gs, g, phi, psi) == -cup_pairing(g, gs, psi, phi)
        checked += 1


def test_cup_is_bilinear():
    rng = random.Random(607)
    F = CycloField(3)
    while True:
        g = rand_tuple(F, 4, 2, rng)
        gs = dual_tuple(g)
        H, Hs = h_space(g), h_space(gs)
        if H.dim and Hs.dim:
            break
    a = rand_h_elem(Hs, rng)
    b = rand_h_elem(Hs, rng)
    x = rand_h_elem(H, rng)
    y = rand_h_elem(H, rng)
    c = rand_element(F, rng)
    assert cup_pairing(gs, g, vec_add(a, b), x) == \
        cup_pairing(gs, g, a, x) + cup_pairing(gs, g, b, x)
    assert cup_pairing(gs, g, a, vec_add(x, y)) == \
        cup_pairing(gs, g, a, x) + cup_pairing(gs, g, a, y)
    assert cup_pairing(gs, g, vec_scale(a, c), x) == \
        c * cup_pairing(gs, g, a, x)
    assert cup_pairing(gs, g, a, vec_scale(x, c)) == \
        c * cup_pairing(gs, g, a, x)


def _kappa(v, J, d, hermitian):
    """v -> conj(v)*J^T (hermitian) or v*J^T (bilinear), block by block."""
    out = []
    for i in range(0, len(v), d):
        b = tuple(v[i:i + d])
        out.extend(vec_mat(vec_conj(b) if hermitian else b, J.transpose()))
    return tuple(out)


def _assert_gram_matches_oracle(g, form):
    res = gram_on_W(g, form)
    hermitian = form.kind == "hermitian"
    J = form.J
    if hermitian:
        big = CycloField(lcm(g.field.n, 4))
        g, J = g.coerce(big), J.coerce(big)
        scale = -big.zeta(big.n // 4)
    else:
        scale = g.field.one()
    gs = dual_tuple(g)
    reps = res.wspace.chart.reps
    assert res.G.rows == res.G.cols == len(reps)
    for k, rep_k in enumerate(reps):
        phi = _kappa(rep_k, J, g.dim, hermitian)
        for l, rep_l in enumerate(reps):
            assert res.G[k, l] == scale * cup_chain_oracle(gs, g, phi, rep_l)


def test_gram_entries_match_the_chain_oracle():
    rng = random.Random(617)
    for n in (3, 5, 12):
        F = CycloField(n)
        for _ in range(3):
            g, _ = unit_scalar_tuple(F, rng.randint(4, 6), rng)
            J = Matrix.scalar(F, 1, F.from_rational(rng.randint(1, 3)))
            _assert_gram_matches_oracle(g, SesquiData("hermitian", J))
    F = CycloField(3)
    J = Matrix.from_rows(F, [[F.zero(), F.one()], [-F.one(), F.zero()]])
    for _ in range(3):
        g = sl2_tuple(F, rng.randint(3, 4), rng)
        _assert_gram_matches_oracle(g, SesquiData("bilinear-alternating", J))


_UNDER_O = """
from fractions import Fraction
from parcoh import cyclo
from parcoh.cyclo import CycloElem, CycloField
from parcoh.duality import (SesquiData, gram_on_W, predicted_signature,
                            signature)
from parcoh.errors import (FieldInvariantError, FormNotInvariant,
                           NotRootOfUnity, ShapeMismatch)
from parcoh.linalg import Matrix, vec_mat
from parcoh.picard import first_matrix_diff
from parcoh.tuples import MatTuple, h_check

class Unchecked(SesquiData):
    __slots__ = ()

    def check(self, g):
        pass

assert not __debug__
F = CycloField(3)
one = Matrix.identity(F, 1)
try:
    SesquiData("bogus", one)
except FormNotInvariant:
    print("kind")
z = Matrix.scalar(F, 1, F.zeta())
try:
    predicted_signature(MatTuple(F, 1, [z, z, z]), [[1], [1]])
except NotRootOfUnity:
    print("exponents")
bad = MatTuple(F, 1, [Matrix.scalar(F, 1, F.from_rational(q))
                      for q in (2, 3, Fraction(1, 6))])
try:
    gram_on_W(bad, Unchecked("hermitian", one))
except FormNotInvariant:
    print("kappa")
try:  # numerator Phi_3 itself: not coprime to the modulus
    CycloElem(F, (1, 1, 1), 1).inverse()
except FieldInvariantError:
    print("coprime")
cyclo._CYCLOTOMIC[5] = (2, 1, 1, 1, 1)  # wrong Phi_5, right degree
try:
    CycloField(10)
except FieldInvariantError:
    print("division")
cyclo._CYCLOTOMIC[9] = (1, 1)  # a Phi_9 of degree 1, not phi(9) = 6
try:
    CycloField(9)
except FieldInvariantError:
    print("degree")
K = h_check(MatTuple(F, 1, [z, z, z]))  # 3 x 1
try:  # without the length check this multiplies by the first 2 rows
    vec_mat((F.one(), F.one()), K)
except ShapeMismatch:
    print("short")
try:
    K * K
except ShapeMismatch:
    print("product")
try:
    first_matrix_diff(K, one)
except ShapeMismatch:
    print("shape")
CycloElem.sign = lambda self: 0  # a sign routine that breaks its contract
try:
    signature(one)
except FieldInvariantError:
    print("pivot")
"""


def test_invariants_survive_python_O():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["kind", "exponents", "kappa", "coprime",
                                  "division", "degree", "short", "product",
                                  "shape", "pivot"]


def test_cycle_to_cocycle_lands_in_H():
    """The blocks v_i = w_i - w_(i-1)*g_i of a chain (w_0 means w_r)
    satisfy the cocycle relation, so the suffix-product columns of K_g
    vanish on them; membership in the blockwise images depends on the
    chain, so only the relation is checked."""
    rng = random.Random(608)
    for _ in range(10):
        F = CycloField(3)
        g = rand_tuple(F, 4, 2, rng)
        w_list = [tuple(rand_element(F, rng) for _ in range(2))
                  for _ in range(g.r)]
        d, r = g.dim, g.r
        blocks = [vec_sub(w_list[i], vec_mat(w_list[i - 1], g.mats[i]))
                  for i in range(r)]
        suff = g.suffix_products()
        total = tuple(F.zero() for _ in range(d))
        for i in range(r):
            total = vec_add(total, vec_mat(blocks[i], suff[i]))
        assert all(not x for x in total)
        v = tuple(x for b in blocks for x in b)
        assert not any(vec_mat(v, h_check(g))[-d:])


def test_sesqui_check_accepts_and_rejects():
    F = CycloField(3)
    g, _ = unit_scalar_tuple(F, 4, random.Random(609))
    SesquiData("hermitian", Matrix.identity(F, 1)).check(g)
    # a non-unitary scalar entry breaks hermitian invariance
    two = Matrix.scalar(F, 1, F.from_rational(2))
    half = Matrix.scalar(F, 1, F.from_rational(Fraction(1, 2)))
    bad = MatTuple(F, 1, [two, two, half, half])
    with pytest.raises(FormNotInvariant):
        SesquiData("hermitian", Matrix.identity(F, 1)).check(bad)
    with pytest.raises(FormNotInvariant):
        SesquiData("bilinear-alternating", Matrix.identity(F, 1)).check(g)


def test_hermitian_gram_is_conjugate_symmetric():
    rng = random.Random(610)
    for _ in range(8):
        F = CycloField(rng.choice([3, 4, 8, 12]))
        g, _ = unit_scalar_tuple(F, rng.randint(4, 6), rng)
        res = gram_on_W(g, SesquiData("hermitian", Matrix.identity(F, 1)))
        assert res.kind == "hermitian"
        assert res.G == res.G.conj_transpose()


def test_kind_swap_symmetric_J_gives_alternating_gram():
    # entries -1 preserve the symmetric form x*y; r even keeps the product 1
    F = CycloField(4)
    minus = Matrix.scalar(F, 1, -F.one())
    g = MatTuple(F, 1, [minus] * 4)
    res = gram_on_W(g, SesquiData("bilinear-symmetric", Matrix.identity(F, 1)))
    assert res.kind == "bilinear-alternating"
    assert res.G == -res.G.transpose()
    assert all(not res.G[i, i] for i in range(res.G.rows))


def test_kind_swap_alternating_J_gives_symmetric_gram():
    rng = random.Random(611)
    F = CycloField(3)
    J = Matrix.from_rows(F, [[F.zero(), F.one()], [-F.one(), F.zero()]])
    for _ in range(5):
        g = sl2_tuple(F, rng.randint(3, 4), rng)
        form = SesquiData("bilinear-alternating", J)
        form.check(g)  # determinant-one entries preserve it
        res = gram_on_W(g, form)
        assert res.kind == "bilinear-symmetric"
        assert res.G == res.G.transpose()


def test_gram_invariance_under_monodromy():
    """conj(M) * G * M^T = G for the representation the form came from."""
    from parcoh import picard
    from parcoh.monodromy import monodromy_generators
    res = gram_on_W(picard.picard_tuple(), picard.hermitian_form())
    G = res.G
    big = G.field
    rep = monodromy_generators(picard.variation())
    for name, m in rep.images:
        mb = m.coerce(big)
        assert mb.conj() * G * mb.transpose() == G, name


def test_signature_of_known_diagonals():
    F = CycloField(4)
    two = F.from_rational(2)
    zero = F.zero()
    G = Matrix.from_rows(F, [[two, zero, zero],
                             [zero, -two - two, zero],
                             [zero, zero, zero]])
    sig = signature(G)
    assert sig.as_pair() == (1, 1)
    assert sig.nullity == 1


def test_signature_zero_diagonal_repair():
    F = CycloField(4)
    one, zero = F.one(), F.zero()
    hyper = Matrix.from_rows(F, [[zero, one], [one, zero]])
    assert signature(hyper).as_pair() == (1, 1)
    i = F.zeta()
    skew = Matrix.from_rows(F, [[zero, i], [-i, zero]])
    assert skew == skew.conj_transpose()
    assert signature(skew).as_pair() == (1, 1)


def test_signature_rejects_non_hermitian():
    F = CycloField(4)
    one, zero, i = F.one(), F.zero(), F.zeta()
    bad = [
        [[zero, one], [-one, zero]],
        # one mirror entry off: G[2][0] is not conj(G[0][2])
        [[one, zero, i], [zero, -one, zero], [i, zero, one]],
        # a non-real diagonal entry
        [[one, zero], [zero, one + i]],
        # not square
        [[one, zero, zero], [zero, one, zero]],
    ]
    for rows in bad:
        with pytest.raises(NotHermitian):
            signature(Matrix.from_rows(F, rows))


def _conj(x):
    return galois_oracle(x, x.field, -1)


@st.composite
def hermitian_matrices(draw):
    """A Hermitian m x m matrix, m = 0..7, over Q(zeta_n) for n in 3, 4,
    5, 12, 20: an h x h core H (all its diagonal entries zero when
    zero_diag, so the signature must repair it by a transvection) whose
    indices are repeated to fill m, so G has at least m - h repeated rows
    and nullity >= m - h, then symmetrically permuted.  Returns (G, h)."""
    F = CycloField(draw(st.sampled_from((3, 4, 5, 12, 20))))
    m = draw(st.integers(0, 7))
    h = draw(st.integers(min(m, 1), m))
    zero_diag = draw(st.booleans(), label="zero_diag")
    coeff = st.integers(-3, 3)
    entry = st.one_of(
        st.just(F.zero()),
        st.lists(coeff, min_size=F.degree, max_size=F.degree).map(F.element))
    H = [[None] * h for _ in range(h)]
    for a in range(h):
        if zero_diag:
            H[a][a] = F.zero()
        else:
            x = draw(entry)
            H[a][a] = x + _conj(x) + F.from_rational(draw(coeff))
        for b in range(a + 1, h):
            H[a][b] = draw(entry)
            H[b][a] = _conj(H[a][b])
    index = list(range(h)) + [draw(st.integers(0, h - 1))
                              for _ in range(m - h)]
    perm = draw(st.permutations(range(m)))
    index = [index[k] for k in perm]
    G = Matrix.from_rows(F, [[H[a][b] for b in index] for a in index])
    return G, h


@settings(max_examples=150, deadline=None)
@given(hermitian_matrices())
def test_signature_matches_the_oracles(case):
    G, h = case
    sig = signature(G)
    got = (sig.p, sig.q, sig.nullity)
    assert got == signature_oracle(G)
    assert sig.p + sig.q + sig.nullity == G.rows
    assert sig.nullity >= G.rows - h
    if G.rows <= 4:
        assert got == numeric_signature(G)


def test_signature_is_a_congruence_invariant():
    rng = random.Random(612)
    for _ in range(10):
        F = CycloField(rng.choice([4, 12]))
        g, _ = unit_scalar_tuple(F, rng.randint(4, 6), rng)
        res = gram_on_W(g, SesquiData("hermitian", Matrix.identity(F, 1)))
        G = res.G
        sig = signature(G)
        P = rand_invertible(G.field, G.rows, rng, span=1)
        moved = P.conj() * G * P.transpose()
        sig2 = signature(moved)
        assert sig2.as_pair() == sig.as_pair()
        assert sig2.nullity == sig.nullity


def test_signature_matches_numerical_eigenvalues():
    rng = random.Random(613)
    for _ in range(10):
        F = CycloField(rng.choice([3, 4, 5, 8, 12]))
        g, _ = unit_scalar_tuple(F, rng.randint(4, 6), rng)
        res = gram_on_W(g, SesquiData("hermitian", Matrix.identity(F, 1)))
        sig = signature(res.G)
        assert numeric_signature(res.G) == (sig.p, sig.q, sig.nullity)


def test_predicted_signature_reads_off_rank_one_exponents():
    rng = random.Random(614)
    for _ in range(15):
        F = CycloField(rng.choice([3, 4, 5, 6, 8, 12]))
        g, exps = unit_scalar_tuple(F, rng.randint(4, 7), rng)
        p, q = predicted_signature(g)
        assert p + q == g.r - 2
        # explicit formula: p = sum(mu) - 1, q = sum(1 - mu) - 1
        assert p == sum(Fraction(e, F.n) for e in exps) - 1
        assert q == sum(Fraction(F.n - e, F.n) for e in exps) - 1


def test_predicted_signature_accepts_supplied_exponents():
    g = _toy_diagonal_tuple()
    pred = predicted_signature(g, eigen_exponents=[[1, 2], [1, 2], [1, 2]])
    assert pred[0] + pred[1] == 2 * (3 - 2)


def _toy_diagonal_tuple():
    """Diagonal 2x2 entries diag(z, z^2) over Q(zeta_3), three points."""
    F = CycloField(3)
    z = F.zeta()
    m = Matrix.from_rows(F, [[z, F.zero()], [F.zero(), z * z]])
    return MatTuple(F, 2, [m, m, m])


def test_predicted_signature_rejects_nonzero_h0():
    F = CycloField(3)
    one, zero, z = F.one(), F.zero(), F.zeta()
    a = Matrix.from_rows(F, [[one, zero], [z, one]])
    b = Matrix.from_rows(F, [[one, zero], [one, one]])
    c = (a * b).inverse()
    with pytest.raises(NonzeroH0):
        predicted_signature(MatTuple(F, 2, [a, b, c]))


def test_signature_formula_holds_for_exact_grams():
    rng = random.Random(615)
    for _ in range(12):
        F = CycloField(rng.choice([3, 4, 6, 8, 12]))
        g, _ = unit_scalar_tuple(F, rng.randint(4, 6), rng)
        res = gram_on_W(g, SesquiData("hermitian", Matrix.identity(F, 1)))
        sig = signature(res.G)
        assert sig.nullity == 0
        assert sig.as_pair() == predicted_signature(g)


def test_signature_formula_in_a_degree_six_field():
    # n = 7 forces the hermitian computation into Q(zeta_28) of degree 12
    rng = random.Random(616)
    F = CycloField(7)
    for _ in range(3):
        g, _ = unit_scalar_tuple(F, rng.randint(3, 5), rng)
        res = gram_on_W(g, SesquiData("hermitian", Matrix.identity(F, 1)))
        sig = signature(res.G)
        assert sig.nullity == 0
        assert sig.as_pair() == predicted_signature(g)


def test_dual_check_is_read_off_the_solvers_of_g():
    # check_cases has entries with k_i > 0 (g_i = 1, g + 1 and shears);
    # for a shear the left and the right kernel of g_i - 1 differ
    kernels = 0
    for g in check_cases():
        ws = w_space(g)
        gs = dual_tuple(g)
        assert kernel_left(_dual_check(ws, gs)) == h_space(gs), g
        kernels += sum(len(s.left_kernel()) for s in ws.solvers)
    assert kernels > 0


def _gram_cases():
    rng = random.Random(618)
    F = CycloField(3)
    alt = Matrix.from_rows(F, [[F.zero(), F.one()], [-F.one(), F.zero()]])
    g, _ = unit_scalar_tuple(CycloField(5), 5, rng)
    return [(picard.picard_tuple(), picard.hermitian_form()),
            (sl2_tuple(F, 4, rng), SesquiData("bilinear-alternating", alt)),
            (plus_trivial_block(g),
             SesquiData("hermitian", Matrix.identity(g.field, 2)))]


@pytest.mark.parametrize("case", range(3))
def test_gram_eliminates_each_entry_once(monkeypatch, case):
    """One RowSolver per g_i - 1 and one kernel_left, for H, per Gram."""
    g, form = _gram_cases()[case]
    counts = {"RowSolver": 0, "kernel_left": 0}
    real_init, real_kernel = linalg.RowSolver.__init__, linalg.kernel_left

    def init(self, a):
        counts["RowSolver"] += 1
        real_init(self, a)

    def kernel(a):
        counts["kernel_left"] += 1
        return real_kernel(a)

    monkeypatch.setattr(linalg.RowSolver, "__init__", init)
    for mod in (linalg, tuples, duality):
        monkeypatch.setattr(mod, "kernel_left", kernel)
    gram_on_W(g, form)
    assert counts == {"RowSolver": g.r, "kernel_left": 1}
