"""Monodromy representation on W_g from braid words and twist matrices.

A variation is the tuple g plus, for each base generator gamma, a braid
word phi(gamma) and an invertible matrix chi(gamma) subject to the
compatibility condition g^(phi(gamma)) = (chi gamma... chi^-1), i.e. the
braid moves the tuple exactly as conjugation by chi(gamma) undoes.  The
monodromy matrix is the W-quotient of Phi(g, phi(gamma)) followed by
Psi(g, chi(gamma)); it is computed by moving only the H and E basis rows
through the word and twisting them blockwise by chi, never as an
ambient (r*d) x (r*d) matrix.
"""

from .braid import _move_rows, _on_W, _twist_rows, _walk
from .errors import IncompatibleSpec, UnknownGenerator
from .linalg import Matrix
from .tuples import w_space


class VariationSpec:
    __slots__ = ("tuple", "generators")

    def __init__(self, g, generators):
        self.tuple = g
        self.generators = tuple(generators)  # (name, BraidWord, Matrix)


class MonodromyRep:
    __slots__ = ("wspace", "images")

    def __init__(self, wspace, images):
        self.wspace = wspace
        self.images = tuple(images)  # (name, Matrix on W)

    def image_by_name(self, name):
        for gname, m in self.images:
            if gname == name:
                return m
        raise UnknownGenerator("no generator named %r" % name)


def _first_mismatch(moved, conj):
    """First 1-based index where moved (g^beta) and conj (chi g chi^-1)
    differ, or None when the generator is compatible."""
    for i, (a, b) in enumerate(zip(moved.mats, conj.mats)):
        if a != b:
            return i + 1
    return None


def _walks(spec, invs=None):
    """Per generator (name, twist, steps of its walk, first mismatch).

    twist is chi, or None when chi = 1: then Psi(g, chi) is the identity
    and chi g chi^-1 is g itself.  invs, the inverses of the entries of
    g, default to inverting them once for all words.
    """
    g = spec.tuple
    if invs is None:
        invs = [m.inverse() for m in g.mats]
    one = Matrix.identity(g.field, g.dim)
    out = []
    for name, beta, chi in spec.generators:
        moved, steps = _walk(g, beta, invs)
        twist = None if chi == one else chi
        conj = g if twist is None else g.conjugated(twist)
        out.append((name, twist, steps, _first_mismatch(moved, conj)))
    return out


def check_compatibility(spec):
    """Per-generator report: (name, ok, first failing tuple index or None)."""
    return [(name, bad is None, bad) for name, _, _, bad in _walks(spec)]


def _generators(spec, walks):
    """monodromy_generators(spec) from walks = _walks(spec)."""
    bad = [name for name, _, _, mismatch in walks if mismatch is not None]
    if bad:
        raise IncompatibleSpec("compatibility fails for: %s" % ", ".join(bad))
    d = spec.tuple.dim
    ws = w_space(spec.tuple)
    images = []
    for name, twist, steps, _ in walks:
        rows = [list(v) for v in ws.H.basis + ws.E.basis]
        _move_rows(rows, steps, d)
        if twist is not None:
            _twist_rows(rows, twist, d)
        images.append((name, _on_W(rows, ws, ws)))
    return MonodromyRep(ws, images)


def monodromy_generators(spec):
    """The monodromy matrices of all named generators on W_g.

    Every incompatible name is reported, in spec order, before W is
    built.  Then the H and E basis rows are moved through each word,
    twisted by chi unless chi = 1, and read in the W chart.
    """
    return _generators(spec, _walks(spec))


def eta(spec, word):
    """Monodromy of a word over generator names, e.g. "g1 g2^-1 g1".

    Matrices compose in path order: the first name's matrix multiplies
    first (row vectors act from the left).
    """
    rep = monodromy_generators(spec)
    total = None
    for tok in word.split():
        name, power = tok, 1
        if "^" in tok:
            name, p = tok.split("^", 1)
            try:
                power = int(p)
            except ValueError:
                raise UnknownGenerator("bad power in token %r" % tok)
        m = rep.image_by_name(name)
        if power < 0:
            m = m.inverse()
            power = -power
        for _ in range(power):
            total = m if total is None else total * m
    if total is None:
        return Matrix.identity(spec.tuple.field, rep.wspace.dim)
    return total
