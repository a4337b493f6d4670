"""Monodromy representation on W_g from braid words and twist matrices.

A variation is the tuple g plus, for each base generator gamma, a braid
word phi(gamma) and an invertible matrix chi(gamma) subject to the
compatibility condition g^(phi(gamma)) = (chi gamma... chi^-1), i.e. the
braid moves the tuple exactly as conjugation by chi(gamma) undoes.  The
monodromy matrix is the W-quotient of Phi(g, phi(gamma)) followed by
Psi(g, chi(gamma)).
"""

from .braid import act_on_tuple, induced_on_W, phi_on_H, psi
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


def check_compatibility(spec):
    """Per-generator report: (name, ok, first failing tuple index or None)."""
    g = spec.tuple
    report = []
    for name, beta, chi in spec.generators:
        bad = _first_mismatch(act_on_tuple(g, beta), g.conjugated(chi))
        report.append((name, bad is None, bad))
    return report


def monodromy_generators(spec):
    """The monodromy matrices of all named generators on W_g.

    Phi and Psi are built once per generator; a generator is compatible
    when the braid moves g to the tuple that Psi starts from.  Every
    incompatible name is reported, in spec order, before W is built.
    """
    g = spec.tuple
    maps, bad = [], []
    for name, beta, chi in spec.generators:
        ph, ps = phi_on_H(g, beta), psi(g, chi)
        if _first_mismatch(ph.codomain_tuple, ps.domain_tuple) is not None:
            bad.append(name)
        else:
            maps.append((name, ph.compose(ps)))
    if bad:
        raise IncompatibleSpec("compatibility fails for: %s" % ", ".join(bad))
    ws = w_space(g)
    return MonodromyRep(ws, [(name, induced_on_W(m, ws, ws))
                             for name, m in maps])


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
