"""Built-in golden system: the rank-three monodromy of the Picard-Euler
family y^3 = x(x-1)(x-s)(x-t).

The local system is rank one over Q(zeta_3) on a sphere with five
punctures, tuple g = (w, w, w, w, w^2) with w = zeta_3.  Five pure
braids generate the image of the braiding map; the twist character is
trivial.  The monodromy on the three-dimensional W_g, written in the
deterministic chart basis (which coincides with the classical choice of
class representatives (1,0,0,0,-w^2), (0,1,0,0,-w), (0,0,1,0,-1)), is
compared against five published matrices.

Two conventions are frozen here after exhaustive empirical search, both
traceable to the same w <-> w^2 character ambiguity (the classical
source states the signature is "(1,2) or (2,1), depending on the choice
of the character"):

* matrices: published = C * M_chart * C^-1 with C = conj(B), the
  entrywise conjugate of the published basis matrix B.  The printed B
  itself matches under no convention; its entries belong to the
  conjugate character choice.

* Hermitian Gram: the printed matrix a*[[1,0,0],[0,0,1],[0,1,0]] with
  a = (i/3)(w^2 - w) is the form of the CONJUGATE tuple
  gbar = (w^2, w^2, w^2, w^2, w) written via the printed B:
  published == conj(B) * gram_on_W(gbar) * B^T exactly (the form is
  conjugate-linear in its first argument, so a base change P acts as
  conj(P)*G*P^T).  Equivalently it equals -conj(C)*gram_on_W(g)*C^T.
  Exact signatures match the eigenvalue-exponent formula on both sides:
  gram(g) has signature (1,2), gram(gbar) has signature (2,1).
"""

from fractions import Fraction

from .braid import parse_braid
from .cyclo import CycloField
from .duality import SesquiData, gram_on_W, predicted_signature, signature
from .errors import ShapeMismatch
from .linalg import Matrix
from .monodromy import VariationSpec, monodromy_generators
from .tuples import validate_tuple

BRAID_WORDS = ("b3^2", "b3 b2^2 b3^-1", "b3 b2 b1^2 b2^-1 b3^-1",
               "b2^2", "b2 b1^2 b2^-1")
GENERATOR_NAMES = ("gamma1", "gamma2", "gamma3", "gamma4", "gamma5")


def field():
    return CycloField(3)


def _scalar(x):
    return Matrix.from_rows(x.field, [[x]])


def picard_tuple():
    F = field()
    w = F.zeta(1)
    return validate_tuple([_scalar(w)] * 4 + [_scalar(w * w)])


def conjugate_tuple():
    F = field()
    w = F.zeta(1)
    return validate_tuple([_scalar(w * w)] * 4 + [_scalar(w)])


def variation(g=None):
    """The golden VariationSpec (trivial twists, the five pure braids)."""
    if g is None:
        g = picard_tuple()
    chi = Matrix.identity(g.field, 1)
    gens = [(name, parse_braid(word, g.r - 1), chi)
            for name, word in zip(GENERATOR_NAMES, BRAID_WORDS)]
    return VariationSpec(g, gens)


def hermitian_form():
    return SesquiData("hermitian", Matrix.identity(field(), 1))


def basis_matrix_B():
    """The published base-change matrix B, verbatim."""
    F = field()
    w, one, zero = F.zeta(1), F.one(), F.zero()
    return Matrix.from_rows(F, [
        [zero, -w - one, -w],
        [w + one, w + one, w + one],
        [one, zero, zero],
    ])


def golden_conjugator():
    """The conjugator that actually reproduces the published matrices."""
    return basis_matrix_B().conj()


def published_matrices():
    F = field()
    w, one, zero = F.zeta(1), F.one(), F.zero()
    w2 = w * w
    two = one + one
    return (
        Matrix.from_rows(F, [[w2, zero, one - w],
                             [w - w2, one, w2 - one],
                             [zero, zero, one]]),
        Matrix.from_rows(F, [[w2, zero, one - w2],
                             [one - w2, one, w2 - one],
                             [zero, zero, one]]),
        Matrix.from_rows(F, [[one, zero, zero],
                             [zero, w, w2 - one],
                             [zero, w2 - one, -two * w]]),
        Matrix.from_rows(F, [[w2, zero, zero],
                             [zero, one, zero],
                             [zero, zero, one]]),
        Matrix.from_rows(F, [[w2, w - w2, zero],
                             [zero, one, zero],
                             [one - w, w2 - one, one]]),
    )


def published_gram():
    """a*[[1,0,0],[0,0,1],[0,1,0]] over Q(zeta_12), a = (i/3)(w^2-w)."""
    F12 = CycloField(12)
    i = F12.zeta(3)
    w = F12.zeta(4)
    a = i * (w * w - w) * F12.from_rational(Fraction(1, 3))
    zero = F12.zero()
    return Matrix.from_rows(F12, [[a, zero, zero],
                                  [zero, zero, a],
                                  [zero, a, zero]])


def computed_matrices_published_basis():
    """The five monodromy matrices, conjugated into the published basis."""
    rep = monodromy_generators(variation())
    C = golden_conjugator()
    Cinv = C.inverse()
    return tuple(C * m * Cinv for _, m in rep.images)


def _in_published_basis(res):
    """The conjugate tuple's Gram result, base-changed by the printed B."""
    B = basis_matrix_B().coerce(res.G.field)
    return B.conj() * res.G * B.transpose()


def computed_gram_published_basis():
    """gram_on_W on the conjugate tuple, base-changed by the printed B."""
    return _in_published_basis(gram_on_W(conjugate_tuple(), hermitian_form()))


def _hermitian_grams():
    """label -> (tuple, its hermitian gram_on_W) for both characters."""
    return {label: (g, gram_on_W(g, hermitian_form()))
            for label, g in (("picard", picard_tuple()),
                             ("conjugate", conjugate_tuple()))}


def _signatures(grams):
    return {label: {"exact": signature(res).as_pair(),
                    "predicted": predicted_signature(g)}
            for label, (g, res) in grams.items()}


def golden_signatures():
    """Exact and predicted signatures for both character choices."""
    return _signatures(_hermitian_grams())


def golden_values():
    """(matrices, gram, signatures): what computed_matrices_published_basis,
    computed_gram_published_basis and golden_signatures return, with the
    conjugate tuple's Gram built once for the last two."""
    grams = _hermitian_grams()
    return (computed_matrices_published_basis(),
            _in_published_basis(grams["conjugate"][1]), _signatures(grams))


def first_matrix_diff(got, want):
    """None if equal, else (row, col, got_entry, want_entry), 1-based."""
    if (got.rows, got.cols) != (want.rows, want.cols):
        raise ShapeMismatch("%d x %d matrix against a %d x %d golden value"
                            % (got.rows, got.cols, want.rows, want.cols))
    for i in range(got.rows):
        for j in range(got.cols):
            if got[i, j] != want[i, j]:
                return (i + 1, j + 1, got[i, j], want[i, j])
    return None


def _matrix_check(label, got, want):
    """(label, ok, detail) for one computed matrix against its golden value."""
    diff = first_matrix_diff(got, want)
    if diff is None:
        return (label, True, None)
    return (label, False, "entry (%d,%d): got %s, expected %s" % diff)


def golden_report():
    """Compare everything against the embedded golden values.

    Returns (ok, checks) where checks is a list of (label, ok, detail);
    detail is None on success and a human-readable string on mismatch.
    """
    return _report(golden_values())


def _report(values):
    """golden_report for the golden_values() already computed."""
    matrices, gram, sigs = values
    checks = []

    for name, got, want in zip(GENERATOR_NAMES, matrices,
                               published_matrices()):
        checks.append(_matrix_check("matrix %s" % name, got, want))
    checks.append(_matrix_check("hermitian gram", gram, published_gram()))

    for label, want in (("picard", (1, 2)), ("conjugate", (2, 1))):
        got_exact = sigs[label]["exact"]
        got_pred = sigs[label]["predicted"]
        ok = got_exact == want and got_pred == want
        detail = None if ok else ("exact %s, predicted %s, expected %s"
                                  % (got_exact, got_pred, want))
        checks.append(("signature (%s character)" % label, ok, detail))

    return all(ok for _, ok, _ in checks), checks
