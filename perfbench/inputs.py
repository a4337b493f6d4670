"""Seeded input generators for the benchmark workloads.

Every input is a function of the workload name and the seed, through
one random.Random stream each, so the same seed always
gives the same tuples, exponents and problem files.  The generators
live here and not in the test helpers so that editing the tests cannot
change what the benchmark measures.

Problem-file literals are written by hand-rolled code (sparse integer
polynomials in z, 2x2 products over Z[omega]) rather than by parcoh's
own formatter, so the program only ever sees the generated text.
"""

import random

from parcoh.cyclo import CycloField
from parcoh.linalg import Matrix
from parcoh.tuples import MatTuple

# gram-signature: (n, r) per operation.  The Hermitian Gram is computed
# in Q(zeta_lcm(n, 4)): Q(zeta_20), Q(zeta_28), Q(zeta_12), degrees 8, 12, 4.
# The cost of one Gram moves by some 10 % from one draw of exponents to
# the next, and the seed draws new tuples, so the median operation of a
# run is taken over many draws of nearly equal cost: one cheap operation,
# twenty middle ones (ten tuples each of (7, 7) and (5, 8), some 0.4 s)
# and two dear ones, twenty-three a round.
GRAM_LADDER = ((12, 8),) + ((7, 7), (5, 8)) * 10 + ((5, 12), (12, 16))

# monodromy-pure-braids: (n, r) per operation, fields of degree <= 2.  With
# the golden Picard operation first, twelve a round: three cheap, six of
# nearly equal middle cost (r = 7 over Q(zeta_4) and Q(zeta_6); Q(zeta_3)
# sits at r = 6 and 8, as at r = 7 it costs some 12 % more) and three
# dear, so the median operation of a run is the median of the middle six.
MONO_LADDER = ((3, 6), (4, 6), (4, 7), (6, 7), (4, 7), (6, 7), (4, 7),
               (6, 7), (3, 8), (6, 8), (6, 9))

# The published Picard generators gamma1..gamma5 are these A_ij.
PICARD_PAIRS = ((3, 4), (2, 4), (1, 4), (2, 3), (1, 3))


def rng_for(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def root_of_unity_exponents(n, r, rng):
    """Exponents e_1..e_r in 1..n-1 with sum e_i = 0 mod n."""
    while True:
        exps = [rng.randrange(1, n) for _ in range(r - 1)]
        last = -sum(exps) % n
        if last:
            return exps + [last]


def rank_one_tuple(n, exps):
    """The tuple (zeta_n^e_1, ..., zeta_n^e_r) of 1x1 matrices."""
    field = CycloField(n)
    return MatTuple(field, 1, [Matrix.scalar(field, 1, field.zeta(e))
                               for e in exps])


def pure_braid_words(strands):
    """(i, j, word) for the pure-braid generators A_ij, i < j <= strands.

    A_ij = b_(j-1) ... b_(i+1) b_i^2 b_(i+1)^-1 ... b_(j-1)^-1, the
    convention of the published Picard words.
    """
    out = []
    for j in range(2, strands + 1):
        for i in range(1, j):
            letters = (["b%d" % k for k in range(j - 1, i, -1)]
                       + ["b%d^2" % i]
                       + ["b%d^-1" % k for k in range(i + 1, j)])
            out.append((i, j, " ".join(letters)))
    return out


# ---------------------------------------------------------------------------
# problem-file documents for the cli-files workload


def _poly_literal(poly):
    """Literal for a dict {exponent: integer coefficient} in z."""
    terms = []
    for k in sorted(poly, reverse=True):
        c = poly[k]
        if not c:
            continue
        body = "1" if k == 0 else ("z" if k == 1 else "z^%d" % k)
        if abs(c) != 1:
            body = "%d" % abs(c) if k == 0 else "%d*%s" % (abs(c), body)
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    for neg, body in terms[1:]:
        out += (" - " if neg else " + ") + body
    return out


def rank_one_doc(n, exps, rng, braids=True):
    """A rank-one problem with pure braids, Hermitian form, eigenvalues
    and an explicit W basis.

    The basis comes from the closed form of H for a rank-one tuple with
    no entry 1: b_k = e_k - s_k e_r with s_k = g_(k+1)...g_r spans H, and
    the classes of b_1..b_(r-2) are a basis of W because E is spanned by
    (g_1 - 1, ..., g_r - 1), whose entry r-1 is nonzero.  The file gets
    these classes mixed by a random unipotent integer matrix.
    """
    r = len(exps)
    doc = {"field": {"cyclotomic_order": n}, "dimension": 1,
           "tuple": [[[_poly_literal({e: 1})]] for e in exps]}
    if not braids:
        return doc
    doc["braids"] = {"A%d_%d" % (i, j): word
                     for i, j, word in pure_braid_words(r - 1)}
    doc["chi"] = "trivial"
    doc["form"] = {"kind": "hermitian", "J": [["1"]]}
    doc["eigenvalues"] = [[e] for e in exps]
    m = r - 2
    suffix = [sum(exps[k + 1:]) % n for k in range(m)]
    mix = [[1 if a == b else (rng.randint(-2, 2) if b > a else 0)
            for b in range(m)] for a in range(m)]
    basis = []
    for row in mix:
        vec = [_poly_literal({0: c}) for c in row] + ["0"]
        last = {}
        for c, s in zip(row, suffix):
            last[s] = last.get(s, 0) - c
        vec.append(_poly_literal(last))
        basis.append(vec)
    doc["basis"] = basis
    return doc


# Z[omega], omega = zeta_3, as pairs (a, b) = a + b*omega; omega^2 = -1 - omega


def _zw_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _zw_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def _zw_neg(x):
    return (-x[0], -x[1])


def _m2_mul(p, q):
    return [[_zw_add(_zw_mul(p[i][0], q[0][j]), _zw_mul(p[i][1], q[1][j]))
             for j in range(2)] for i in range(2)]


def _m2_adjugate(p):
    """Inverse of a determinant-one 2x2 matrix."""
    return [[p[1][1], _zw_neg(p[0][1])], [_zw_neg(p[1][0]), p[0][0]]]


def _nonzero(rng):
    while True:
        x = (rng.randint(-1, 1), rng.randint(-1, 1))
        if x != (0, 0):
            return x


def _shear_product(rng):
    """An upper and a lower shear, in random order: trace 2 + a*b != 2."""
    upper = [[(1, 0), _nonzero(rng)], [(0, 0), (1, 0)]]
    lower = [[(1, 0), (0, 0)], [_nonzero(rng), (1, 0)]]
    return _m2_mul(upper, lower) if rng.random() < 0.5 \
        else _m2_mul(lower, upper)


def _trace_is_two(m):
    return _zw_add(m[0][0], m[1][1]) == (2, 0)


def sl2_doc(rng):
    """(A, A, B, B, C) over Q(zeta_3), C = (A^2 B^2)^-1, alternating J.

    b1 swaps the equal entries 1, 2 and b3 the equal entries 3, 4, so
    b1, b3^-1 and b1 b3^2 fix the tuple and are compatible with trivial
    twists; SL_2 preserves the standard alternating form.  No entry has
    trace 2, so every g_i - 1 is invertible and dim W = 2*5 - 2*2 = 6
    for every seed, which keeps the cost of a file from swinging with
    the draw.
    """
    while True:
        a, b = _shear_product(rng), _shear_product(rng)
        c = _m2_adjugate(_m2_mul(_m2_mul(a, a), _m2_mul(b, b)))
        if not _trace_is_two(c):
            break

    def lit(m):
        return [[_poly_literal({0: x[0], 1: x[1]}) for x in row] for row in m]

    return {"field": {"cyclotomic_order": 3}, "dimension": 2,
            "tuple": [lit(a), lit(a), lit(b), lit(b), lit(c)],
            "braids": {"s1": "b1", "s3inv": "b3^-1", "s1s3sq": "b1 b3^2"},
            "chi": "trivial",
            "form": {"kind": "bilinear-alternating",
                     "J": [["0", "1"], ["-1", "0"]]}}
