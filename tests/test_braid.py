"""Braid words, the action on tuples, and the chain maps Phi and Psi."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import rand_braid, rand_invertible, rand_tuple
from oracles import (compose, induced_on_W, phi_dense_oracle, psi,
                     walk_oracle)
from parcoh import linalg, picard
from parcoh.braid import (MAX_LETTERS, BraidWord, _on_W, _preserved,
                          _twist_rows, _walk, act_on_tuple, parse_braid,
                          phi_on_H)
from parcoh.cyclo import CycloField
from parcoh.errors import (BraidSyntaxError, DoesNotPreserveE, IndexOutOfRange,
                           NotInvertible, StrandMismatch)
from parcoh.linalg import Matrix, vec_mat
from parcoh.tuples import h_space, w_space


def test_parse_braid_basic_words():
    w = parse_braid("b1 b2^-1 b1^3", 4)
    assert w.strands == 4
    assert list(w.letters) == [(1, 1), (2, -1), (1, 1), (1, 1), (1, 1)]
    assert list(parse_braid("", 4).letters) == []
    assert list(parse_braid("b3^-2", 5).letters) == [(3, -1), (3, -1)]
    # adjacent inverse letters cancel during parsing
    assert list(parse_braid("b1 b1^-1 b2", 4).letters) == [(2, 1)]


def test_parse_braid_rejects_garbage():
    with pytest.raises(BraidSyntaxError):
        parse_braid("b1 junk", 4)
    with pytest.raises(BraidSyntaxError):
        parse_braid("b1^x", 4)
    with pytest.raises(IndexOutOfRange):
        parse_braid("b9", 4)
    with pytest.raises(IndexOutOfRange):
        parse_braid("b0", 4)


def test_parse_braid_caps_the_expanded_length():
    assert len(parse_braid("b1^%d" % MAX_LETTERS, 3)) == MAX_LETTERS
    assert len(parse_braid("b1^-%d" % MAX_LETTERS, 3)) == MAX_LETTERS
    # counted before free reduction, over the whole word
    for text in ("b1^%d" % (MAX_LETTERS + 1),
                 "b1^%d b2^-1" % MAX_LETTERS,
                 "b1^5000 b1^-5001",
                 "b1^1000000000000",
                 "b1^" + "9" * 5000,
                 "b" + "9" * 5000):
        with pytest.raises(BraidSyntaxError):
            parse_braid(text, 3)


def test_act_on_tuple_single_letter():
    rng = random.Random(401)
    F = CycloField(3)
    g = rand_tuple(F, 4, 2, rng)
    moved = act_on_tuple(g, BraidWord(3, [(1, 1)]))
    a, b = g.mats[0], g.mats[1]
    assert moved.mats[0] == b
    assert moved.mats[1] == b.inverse() * a * b
    assert moved.mats[2] == g.mats[2]
    assert moved.mats[3] == g.mats[3]


def test_act_on_tuple_requires_matching_strands():
    rng = random.Random(402)
    F = CycloField(3)
    g = rand_tuple(F, 4, 1, rng)
    with pytest.raises(StrandMismatch):
        act_on_tuple(g, BraidWord(4, [(1, 1)]))


def test_inverse_letter_undoes_the_action():
    rng = random.Random(403)
    F = CycloField(3)
    for _ in range(10):
        g = rand_tuple(F, rng.randint(3, 5), rng.randint(1, 2), rng)
        i = rng.randrange(1, g.r - 1)
        beta = BraidWord(g.r - 1, [(i, 1), (i, -1)])
        moved = act_on_tuple(g, beta)
        assert all(x == y for x, y in zip(moved.mats, g.mats))


def _tuples_equal(a, b):
    return all(x == y for x, y in zip(a.mats, b.mats))


def test_artin_relations_on_tuples():
    rng = random.Random(404)
    for _ in range(15):
        F = CycloField(rng.choice([1, 3, 4]))
        r = rng.randint(4, 6)
        g = rand_tuple(F, r, rng.randint(1, 2), rng)
        s = g.r - 1
        # braid relation b_i b_(i+1) b_i = b_(i+1) b_i b_(i+1)
        if s >= 3:
            i = rng.randrange(1, s - 1)
            lhs = act_on_tuple(g, BraidWord(s, [(i, 1), (i + 1, 1), (i, 1)]))
            rhs = act_on_tuple(g, BraidWord(s, [(i + 1, 1), (i, 1), (i + 1, 1)]))
            assert _tuples_equal(lhs, rhs)
        # far generators commute
        if s >= 4:
            lhs = act_on_tuple(g, BraidWord(s, [(1, 1), (3, 1)]))
            rhs = act_on_tuple(g, BraidWord(s, [(3, 1), (1, 1)]))
            assert _tuples_equal(lhs, rhs)


def _maps_equal(a, b, H):
    """Two chain maps agree iff they agree on a basis of H."""
    for v in H.basis:
        if vec_mat(v, a.matrix) != vec_mat(v, b.matrix):
            return False
    return True


def test_artin_relations_on_H():
    rng = random.Random(405)
    for _ in range(12):
        F = CycloField(rng.choice([1, 3]))
        r = rng.randint(4, 6)
        g = rand_tuple(F, r, rng.randint(1, 2), rng)
        s = g.r - 1
        H = h_space(g)
        if H.dim == 0:
            continue
        if s >= 3:
            i = rng.randrange(1, s - 1)
            lhs = phi_on_H(g, BraidWord(s, [(i, 1), (i + 1, 1), (i, 1)]))
            rhs = phi_on_H(g, BraidWord(s, [(i + 1, 1), (i, 1), (i + 1, 1)]))
            assert _maps_equal(lhs, rhs, H)
        if s >= 4:
            lhs = phi_on_H(g, BraidWord(s, [(1, 1), (3, 1)]))
            rhs = phi_on_H(g, BraidWord(s, [(3, 1), (1, 1)]))
            assert _maps_equal(lhs, rhs, H)


def test_cocycle_rule_for_split_words():
    """Phi of a concatenation is Phi of the head composed at the moved tuple."""
    rng = random.Random(406)
    for _ in range(15):
        F = CycloField(rng.choice([1, 3, 4]))
        g = rand_tuple(F, rng.randint(3, 5), rng.randint(1, 2), rng)
        s = g.r - 1
        word = rand_braid(s, rng, rng.randint(2, 6))
        cut = rng.randrange(1, len(word.letters))
        head = BraidWord(s, word.letters[:cut])
        tail = BraidWord(s, word.letters[cut:])
        whole = phi_on_H(g, word)
        lhs = compose(phi_on_H(g, head),
                      phi_on_H(act_on_tuple(g, head), tail))
        assert _maps_equal(whole, lhs, h_space(g))


def test_phi_of_inverse_letter_inverts_phi():
    rng = random.Random(407)
    for _ in range(10):
        F = CycloField(3)
        g = rand_tuple(F, 4, 2, rng)
        i = rng.randrange(1, g.r - 1)
        fwd = BraidWord(g.r - 1, [(i, 1)])
        back = BraidWord(g.r - 1, [(i, -1)])
        round_trip = compose(phi_on_H(g, fwd),
                             phi_on_H(act_on_tuple(g, fwd), back))
        H = h_space(g)
        for v in H.basis:
            assert vec_mat(v, round_trip.matrix) == v


def test_phi_on_H_matches_the_dense_oracle():
    """Two-block-column updates equal the product of dense letter matrices."""
    rng = random.Random(412)
    for n in (1, 3, 4):
        F = CycloField(n)
        for d in (1, 2, 3):
            for _ in range(2):
                g = rand_tuple(F, rng.randint(3, 5), d, rng)
                s = g.r - 1
                i = rng.randrange(1, s)
                # random letters of both signs, then a repeated inverse
                # letter and a letter with its inverse on one index
                letters = list(rand_braid(s, rng, rng.randint(2, 6)).letters)
                letters += [(i, -1), (i, -1), (i, 1)]
                beta = BraidWord(s, letters)
                got = phi_on_H(g, beta)
                want, mats = phi_dense_oracle(g, beta)
                assert got.matrix.entries == want.entries, (n, d, beta)
                assert got.codomain_tuple.mats == tuple(mats)
                assert got.codomain_tuple == act_on_tuple(g, beta)
                assert got.domain_tuple is g


def _entries(m):
    return [(x.num, x.den) for x in m.entries]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_walk_matches_the_general_letter_formulas(data):
    """The rank-one swap and the d > 1 loop give the moved tuple and the
    letter factors of the four-product formulas, entry for entry."""
    d = data.draw(st.sampled_from([1, 2, 3]), label="d")
    F = CycloField(data.draw(st.sampled_from([1, 3, 4, 5, 12]), label="n"))
    r = data.draw(st.integers(3, 5), label="r")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    g = rand_tuple(F, r, d, rng)
    s = r - 1
    index = st.integers(1, s - 1)
    letters = data.draw(st.lists(st.tuples(index, st.sampled_from([1, -1])),
                                 max_size=6), label="letters")
    # a repeated inverse letter and a letter next to its inverse
    i, j = data.draw(index, label="i"), data.draw(index, label="j")
    e = data.draw(st.sampled_from([1, -1]), label="e")
    at = data.draw(st.integers(0, len(letters)), label="at")
    letters[at:at] = [(i, -1), (i, -1), (j, e), (j, -e)]
    beta = BraidWord(s, letters)
    moved, steps = _walk(g, beta)
    want_moved, want_steps = walk_oracle(g, beta)
    assert [_entries(m) for m in moved.mats] == \
        [_entries(m) for m in want_moved.mats]
    assert len(steps) == len(want_steps) == len(letters)
    for (k, top, bottom, pos), (wk, wtop, wbottom, wpos) in zip(steps,
                                                               want_steps):
        assert (k, pos) == (wk, wpos)
        assert _entries(top) == _entries(wtop)
        assert _entries(bottom) == _entries(wbottom)


def test_walk_kernel_calls_per_letter(monkeypatch):
    """A rank-one letter makes no kernel call for b_i and one for b_i^-1;
    at d = 2 a letter of either sign makes 4*d, the four products."""
    calls = []
    real = linalg._product_sums

    def counted(*args):
        calls.append(args)
        return real(*args)

    cases = [(picard.picard_tuple(), {1: 0, -1: 1}),
             (rand_tuple(CycloField(3), 4, 2, random.Random(413)),
              {1: 8, -1: 8})]
    for g, want in cases:
        invs = [m.inverse() for m in g.mats]
        for i in range(1, g.r - 1):
            for e in (1, -1):
                monkeypatch.setattr(linalg, "_product_sums", counted)
                _walk(g, BraidWord(g.r - 1, [(i, e)]), invs)
                monkeypatch.undo()
                assert len(calls) == want[e], (g.dim, i, e)
                calls.clear()


def test_psi_is_blockwise_multiplication():
    """_twist_rows(rows, h, d) is Psi(g, h): each d-block times h, from H
    of g.conjugated(h) = (h g_i h^-1) into H_g."""
    rng = random.Random(408)
    F = CycloField(3)
    g = rand_tuple(F, 4, 2, rng)
    h = rand_invertible(F, 2, rng)
    conj = g.conjugated(h)
    hinv = h.inverse()
    assert conj.mats == tuple(h * m * hinv for m in g.mats)
    chain = psi(g, h)
    assert _tuples_equal(chain.domain_tuple, conj)
    assert _tuples_equal(chain.codomain_tuple, g)
    Hc, H = h_space(conj), h_space(g)
    assert Hc.dim
    rows = [list(v) for v in Hc.basis]
    _twist_rows(rows, h, 2)
    for v, row in zip(Hc.basis, rows):
        image = vec_mat(v, chain.matrix)
        blocks = [tuple(v[i * 2:(i + 1) * 2]) for i in range(4)]
        expect = []
        for b in blocks:
            expect.extend(vec_mat(b, h))
        assert list(image) == expect
        assert row == expect
        assert H.contains(row)


def test_psi_rejects_a_singular_or_non_square_twist():
    g = picard.picard_tuple()
    F = g.field
    for h in (Matrix.from_rows(F, [[F.zero()]]),
              Matrix.from_rows(F, [[F.one(), F.zero()]])):
        with pytest.raises(NotInvertible,
                           match="^conjugating matrix is singular$"):
            g.conjugated(h)
        with pytest.raises(NotInvertible,
                           match="^conjugating matrix is singular$"):
            psi(g, h)


def test_psi_composition_order():
    rng = random.Random(409)
    F = CycloField(3)
    g = rand_tuple(F, 3, 2, rng)
    a = rand_invertible(F, 2, rng)
    b = rand_invertible(F, 2, rng)
    # v*(a*b) factors through conjugation by b first
    whole = psi(g, a * b)
    step = compose(psi(g.conjugated(b), a), psi(g, b))
    H = h_space(g.conjugated(a * b))
    rows = [list(v) for v in H.basis]
    _twist_rows(rows, a, 2)
    _twist_rows(rows, b, 2)
    for v, row in zip(H.basis, rows):
        assert vec_mat(v, whole.matrix) == vec_mat(v, step.matrix)
        assert vec_mat(v, whole.matrix) == tuple(row)


def test_braid_action_preserves_H_and_E_and_W_dimensions():
    rng = random.Random(410)
    for _ in range(10):
        F = CycloField(rng.choice([3, 4]))
        g = rand_tuple(F, 4, 2, rng)
        beta = rand_braid(g.r - 1, rng)
        moved = act_on_tuple(g, beta)
        assert h_space(moved).dim == h_space(g).dim
        assert w_space(moved).dim == w_space(g).dim


def test_induced_on_W_is_invertible_and_respects_E():
    rng = random.Random(411)
    F = CycloField(3)
    for _ in range(8):
        g = rand_tuple(F, 4, 2, rng)
        ws = w_space(g)
        if ws.dim == 0:
            continue
        beta = rand_braid(g.r - 1, rng)
        moved = act_on_tuple(g, beta)
        if not _tuples_equal(moved, g):
            continue  # only self-maps descend to one W chart
        chain = phi_on_H(g, beta)
        m = induced_on_W(chain, ws, ws)
        assert m.is_invertible()


def test_induced_on_W_rejects_a_map_that_leaves_H():
    """diag(1, 0, ..., 0) sends the first H basis vector of the golden
    tuple to a multiple of e_1, which breaks the cocycle relation."""
    g = picard.picard_tuple()
    ws = w_space(g)
    F, n = g.field, g.r * g.dim
    zero, one = F.zero(), F.one()
    M = Matrix.from_rows(F, [[one if i == j == 0 else zero for j in range(n)]
                             for i in range(n)])
    assert not ws.H.contains(vec_mat(ws.H.basis[0], M))
    images = [vec_mat(v, M) for v in ws.H.basis + ws.E.basis]
    assert not _preserved(images, ws.H.dim, ws.K, ws.E)[0]
    with pytest.raises(DoesNotPreserveE, match="leaves H"):
        _on_W(images, ws, ws)


def test_induced_on_W_rejects_a_map_that_keeps_H_but_leaves_E():
    """Every row of M is one h in H but not in E: v -> (sum of v) * h keeps
    H inside H, and sends the E basis vector, whose entries do not sum to
    zero, to a nonzero multiple of h, outside E."""
    g = picard.picard_tuple()
    ws = w_space(g)
    h = next(v for v in ws.H.basis if not ws.E.contains(v))
    M = Matrix.from_rows(g.field, [h] * (g.r * g.dim))
    (e,) = ws.E.basis
    assert sum(e[1:], e[0])
    images = [vec_mat(v, M) for v in ws.H.basis + ws.E.basis]
    assert _preserved(images, ws.H.dim, ws.K, ws.E) == (True, False)
    with pytest.raises(DoesNotPreserveE, match="leaves E"):
        _on_W(images, ws, ws)


_UNDER_O = """
from parcoh.braid import BraidWord
from parcoh.errors import StrandMismatch

assert not __debug__
try:
    BraidWord(3, [(1, 1)]) * BraidWord(4, [(1, 1)])
except StrandMismatch:
    print("strands")
"""


def test_braid_checks_survive_python_O():
    tests = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(tests),
                                                   "src"))
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["strands"]
