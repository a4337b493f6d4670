"""Seeded random generators shared across the test suite.

Every generator takes an explicit random.Random so a failing case can be
replayed from the seed printed by the calling test; check_cases is a
fixed, seeded set of tuples whose entries g_i - 1 have kernels or not.
"""

import random
from fractions import Fraction
from functools import lru_cache

from parcoh.braid import BraidWord
from parcoh.cyclo import CycloField
from parcoh.linalg import Matrix, vec_add
from parcoh.tuples import MatTuple


def vec_scale(u, c):
    return tuple(a * c for a in u)


def block_diag(field, blocks):
    """The block-diagonal matrix with the given blocks, in order."""
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    ent = [field.zero()] * (n * m)
    i0 = j0 = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                ent[(i0 + i) * m + (j0 + j)] = b[i, j]
        i0 += b.rows
        j0 += b.cols
    return Matrix(field, n, m, ent)


def rand_element(field, rng, span=2):
    """Random field element with small integer coordinates."""
    x = field.zero()
    for k in range(field.degree):
        c = rng.randint(-span, span)
        if c:
            x = x + field.from_rational(c) * field.zeta(k)
    return x


def rand_nonzero(field, rng, span=2):
    while True:
        x = rand_element(field, rng, span)
        if x:
            return x


def rand_invertible(field, n, rng, span=2):
    while True:
        rows = [[rand_element(field, rng, span) for _ in range(n)]
                for _ in range(n)]
        m = Matrix.from_rows(field, rows)
        if m.is_invertible():
            return m


def rand_tuple(field, r, d, rng, span=1):
    """Invertible r-tuple of d x d matrices with product 1."""
    mats = [rand_invertible(field, d, rng, span) for _ in range(r - 1)]
    prod = mats[0]
    for m in mats[1:]:
        prod = prod * m
    mats.append(prod.inverse())
    return MatTuple(field, d, mats)


def unit_scalar_tuple(field, r, rng):
    """Rank-one tuple of roots of unity, all entries != 1, product 1.

    Returns (tuple, exponents); entry i is zeta^exponents[i].
    """
    n = field.n
    while True:
        exps = [rng.randrange(1, n) for _ in range(r - 1)]
        last = -sum(exps) % n
        if last:
            exps.append(last)
            break
    mats = [Matrix.scalar(field, 1, field.zeta(e)) for e in exps]
    return MatTuple(field, 1, mats), exps


def sl2_tuple(field, r, rng, shears=2):
    """Tuple of determinant-one 2x2 matrices with product 1.

    Each entry is a product of random elementary shears, so the whole
    tuple preserves the standard alternating form.
    """
    def shear():
        a = rand_element(field, rng, 1)
        if rng.random() < 0.5:
            return Matrix.from_rows(field, [[field.one(), a],
                                            [field.zero(), field.one()]])
        return Matrix.from_rows(field, [[field.one(), field.zero()],
                                        [a, field.one()]])

    mats = []
    for _ in range(r - 1):
        m = shear()
        for _ in range(shears - 1):
            m = m * shear()
        mats.append(m)
    prod = mats[0]
    for m in mats[1:]:
        prod = prod * m
    mats.append(prod.inverse())
    return MatTuple(field, 2, mats)


def rand_combo(rows, field, rng, span=3):
    """Random integer combination of the given row vectors."""
    out = [field.zero()] * len(rows[0])
    for row in rows:
        c = rng.randint(-span, span)
        if c:
            out = vec_add(out, vec_scale(row, field.from_rational(c)))
    return tuple(out)


def rand_h_elem(H, rng, span=3):
    """Random element of a cocycle subspace, zero if H is trivial."""
    if H.dim == 0:
        return tuple(H.field.zero() for _ in range(H.ambient_dim))
    return rand_combo(list(H.basis), H.field, rng, span)


def rand_braid(strands, rng, length=None):
    """Random braid word; generator indices run over 1..strands-1."""
    if length is None:
        length = rng.randint(1, 6)
    letters = []
    for _ in range(length):
        i = rng.randrange(1, strands)
        letters.append((i, 1) if rng.random() < 0.5 else (i, -1))
    return BraidWord(strands, letters)


def rand_rational(rng, span=4):
    return Fraction(rng.randint(-span, span), rng.choice([1, 2, 3]))


def with_identity_blocks(g, rng):
    """g with the identity inserted at two random places: g_i = 1 gives
    the check matrix d kernel columns for that block."""
    mats = list(g.mats)
    for _ in range(2):
        mats.insert(rng.randint(0, len(mats)), Matrix.identity(g.field, g.dim))
    return MatTuple(g.field, g.dim, mats)


def plus_trivial_block(g):
    """The direct sum g + 1: every g_i - 1 has a one-dimensional kernel."""
    one = Matrix.identity(g.field, 1)
    return MatTuple(g.field, g.dim + 1,
                    [block_diag(g.field, [m, one]) for m in g.mats])


@lru_cache(maxsize=None)
def check_cases():
    """Rank-one, SL_2 and random d = 1..3 tuples, tuples with g_i = 1
    entries and direct sums with a trivial block (the last two, and the
    all-identity tuple, are the ones whose check matrix has kernel
    columns)."""
    rng = random.Random(308)
    cases = []
    for n in (3, 4, 5, 12):
        cases.append(unit_scalar_tuple(CycloField(n), rng.randint(3, 7),
                                       rng)[0])
    for n in (3, 4):
        cases.append(sl2_tuple(CycloField(n), rng.randint(3, 5), rng))
    for n in (1, 3, 4):
        for d in (1, 2, 3):
            cases.append(rand_tuple(CycloField(n), rng.randint(3, 5), d, rng))
    for n, d in ((1, 2), (3, 1), (3, 2), (4, 3)):
        cases.append(with_identity_blocks(
            rand_tuple(CycloField(n), 3, d, rng), rng))
    for n in (3, 5):
        h, _ = unit_scalar_tuple(CycloField(n), 4, rng)
        cases.append(plus_trivial_block(h))
    cases.append(plus_trivial_block(sl2_tuple(CycloField(3), 3, rng)))
    F = CycloField(3)
    cases.append(MatTuple(F, 2, [Matrix.identity(F, 2)] * 3))
    return tuple(cases)
