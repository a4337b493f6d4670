"""The built-in rank-three golden configuration and its published data.

The five generator matrices are stated for one character of the family;
the printed basis matrix B and the Gram matrix belong to the complex
conjugate character.  Both tuples ship as module functions, and the
golden report threads the documented conjugations through exactly.
"""

from fractions import Fraction

from parcoh import picard
from parcoh.cyclo import CycloField, format_element
from parcoh.duality import gram_on_W, predicted_signature, signature
from parcoh.linalg import Matrix
from parcoh.monodromy import check_compatibility, monodromy_generators
from parcoh.tuples import w_space


def test_tuple_shapes():
    g = picard.picard_tuple()
    assert g.r == 5 and g.dim == 1
    assert g.field.n == 3
    z = g.field.zeta()
    assert [m[0, 0] for m in g.mats] == [z, z, z, z, z * z]
    gbar = picard.conjugate_tuple()
    assert [m[0, 0] for m in gbar.mats] == \
        [z * z, z * z, z * z, z * z, z]


def test_rank_is_three():
    assert w_space(picard.picard_tuple()).dim == 3
    assert w_space(picard.conjugate_tuple()).dim == 3


def test_braid_words_preserve_the_tuple():
    spec = picard.variation()
    for name, ok, bad in check_compatibility(spec):
        assert ok, name


def test_five_matrices_match_after_conjugation():
    got = picard.computed_matrices_published_basis()
    want = picard.published_matrices()
    for name, a, b in zip(picard.GENERATOR_NAMES, got, want):
        diff = picard.first_matrix_diff(a, b)
        assert diff is None, "%s differs at %s" % (name, diff)


def test_published_matrices_have_finite_projective_orders():
    """Each generator is a complex reflection: (M - 1) has rank one."""
    from parcoh.linalg import kernel_left
    F = CycloField(3)
    ident = Matrix.identity(F, 3)
    for m in picard.published_matrices():
        assert kernel_left(m - ident).dim == 2


def test_gram_matches_published_value():
    got = picard.computed_gram_published_basis()
    want = picard.published_gram()
    assert got == want


def test_published_gram_entry():
    G = picard.published_gram()
    F12 = G.field
    assert F12.n == 12
    a = G[0, 0]
    assert format_element(a) == "-1/3*z^3 + 2/3*z"
    assert a.is_real() and a.sign() == 1
    # a = i/3 * (conj(omega) - omega) with omega the cube root in Q(zeta_12)
    i = F12.zeta(3)
    omega = F12.zeta(4)
    assert a == i * (omega * omega - omega) * F12.from_rational(Fraction(1, 3))
    # equivalently (zeta + zeta^11)/3 = 2*cos(pi/6)/3 = 1/sqrt(3)
    third = F12.from_rational(Fraction(1, 3))
    assert a == (F12.zeta(1) + F12.zeta(11)) * third
    zero = F12.zero()
    rows = [[a, zero, zero], [zero, zero, a], [zero, a, zero]]
    assert G == Matrix.from_rows(F12, rows)


def _det3(m):
    def minor(i0, i1, j0, j1):
        return m[i0, j0] * m[i1, j1] - m[i0, j1] * m[i1, j0]
    return m[0, 0] * minor(1, 2, 1, 2) - m[0, 1] * minor(1, 2, 0, 2) \
        + m[0, 2] * minor(1, 2, 0, 1)


def test_gamma4_trace_and_determinant():
    """The b2^2 loop acts with trace 2 + omega^2 and determinant omega^2."""
    rep = monodromy_generators(picard.variation())
    m = rep.image_by_name("gamma4")
    F = m.field
    z = F.zeta()
    omega_sq = z * z
    assert m.trace() == F.from_rational(2) + omega_sq
    assert _det3(m) == omega_sq
    # same invariants for the published form of the matrix, which is
    # diagonal (omega^2, 1, 1)
    pub = picard.published_matrices()[3]
    assert pub.trace() == F.from_rational(2) + omega_sq
    assert _det3(pub) == omega_sq
    # pub is conjugate to diag(omega^2, 1, 1): same trace, determinant, and
    # rank of (M - 1), which pins the conjugacy class of a complex reflection
    ident = Matrix.identity(F, 3)
    from parcoh.linalg import kernel_left
    assert kernel_left(pub - ident).dim == 2


def test_signatures_for_both_characters():
    sigs = picard.golden_signatures()
    assert sigs["picard"]["exact"] == (1, 2)
    assert sigs["picard"]["predicted"] == (1, 2)
    assert sigs["conjugate"]["exact"] == (2, 1)
    assert sigs["conjugate"]["predicted"] == (2, 1)
    assert signature(picard.published_gram()).as_pair() == (2, 1)


def test_signature_formula_directly():
    assert predicted_signature(picard.picard_tuple()) == (1, 2)
    assert predicted_signature(picard.conjugate_tuple()) == (2, 1)


def test_published_gram_is_invariant_both_ways():
    """The printed Gram is real, so both invariance identities hold."""
    G = picard.published_gram()
    big = G.field
    assert G.conj() == G
    for m in picard.published_matrices():
        mb = m.coerce(big)
        assert mb * G * mb.conj_transpose() == G
        assert mb.conj() * G * mb.transpose() == G


def test_basis_matrix_is_invertible_and_conjugator_matches():
    B = picard.basis_matrix_B()
    assert B.is_invertible()
    C = picard.golden_conjugator()
    assert C == B.conj()


def test_published_gram_transforms_from_the_conjugate_tuple():
    B = picard.basis_matrix_B()
    res = gram_on_W(picard.conjugate_tuple(), picard.hermitian_form())
    big = res.G.field
    Bb = B.coerce(big)
    assert Bb.conj() * res.G * Bb.transpose() == picard.published_gram()


def test_golden_report_is_clean():
    ok, checks = picard.golden_report()
    assert ok
    assert len(checks) == 8
    for label, passed, detail in checks:
        assert passed, "%s: %s" % (label, detail)


def test_golden_report_names_the_first_wrong_entry(monkeypatch):
    """A changed published matrix and Gram each fail with one diff line."""
    mats = list(picard.published_matrices())
    m = mats[1]
    mats[1] = Matrix(m.field, 3, 3,
                     m.entries[:5] + (m[1, 2] + 1,) + m.entries[6:])
    G = picard.published_gram()
    wrong_gram = Matrix(G.field, 3, 3, (G[0, 0] * 2,) + G.entries[1:])
    monkeypatch.setattr(picard, "published_matrices", lambda: tuple(mats))
    monkeypatch.setattr(picard, "published_gram", lambda: wrong_gram)
    ok, checks = picard.golden_report()
    assert not ok
    failed = [(label, detail) for label, passed, detail in checks
              if not passed]
    assert failed == [
        ("matrix gamma2", "entry (2,3): got %s, expected %s"
         % (m[1, 2], m[1, 2] + 1)),
        ("hermitian gram", "entry (1,1): got %s, expected %s"
         % (G[0, 0], G[0, 0] * 2))]


def test_class_basis_matrices_are_conjugate_to_published():
    """Traces and reflection ranks agree between the two printed bases."""
    from parcoh.linalg import kernel_left
    rep = monodromy_generators(picard.variation())
    F = CycloField(3)
    ident = Matrix.identity(F, 3)
    for name, want in zip(picard.GENERATOR_NAMES,
                          picard.published_matrices()):
        got = rep.image_by_name(name)
        assert got.trace() == want.trace(), name
        assert kernel_left(got - ident).dim == 2, name
