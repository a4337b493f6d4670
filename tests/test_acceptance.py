"""End-to-end acceptance criteria for the library.

Eight criteria, each printing one PASS/FAIL line (run with -s to see them
on a green suite; pytest shows the line on any failure).  All comparisons
are exact field arithmetic; the stated per-criterion time budgets are
asserted as well.
"""

import random
import time
from fractions import Fraction

from helpers import (rand_braid, rand_combo, rand_h_elem, rand_tuple,
                     sl2_tuple, unit_scalar_tuple)
from oracles import compose, cup_chain_oracle, solve_row_oracle
from parcoh import picard
from parcoh.braid import BraidWord, act_on_tuple, phi_on_H
from parcoh.cyclo import CycloField
from parcoh.duality import (SesquiData, cup_pairing, gram_on_W,
                            predicted_signature, signature)
from parcoh.linalg import Matrix, kernel_left, vec_add, vec_mat
from parcoh.tuples import MatTuple, dual_tuple, e_space, h_space, w_space


def _report(num, label, ok, elapsed, bound, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "%s criterion %d: %s [%0.2fs, budget %ds]" % (
        status, num, label, elapsed, bound)
    if detail and not ok:
        line += " | " + detail
    print(line)
    assert ok, line
    assert elapsed < bound, \
        "criterion %d ran %0.2fs, budget %ds" % (num, elapsed, bound)


def test_criterion_1_golden_monodromy_matrices():
    t0 = time.monotonic()
    got = picard.computed_matrices_published_basis()
    want = picard.published_matrices()
    bad = []
    for name, a, b in zip(picard.GENERATOR_NAMES, got, want):
        diff = picard.first_matrix_diff(a, b)
        if diff is not None:
            bad.append("%s@%s" % (name, diff))
    _report(1, "five generator matrices reproduced exactly over Q(zeta_3)",
            not bad, time.monotonic() - t0, 1, "; ".join(bad))


def test_criterion_2_golden_hermitian_gram():
    t0 = time.monotonic()
    got = picard.computed_gram_published_basis()
    F12 = got.field
    i, omega = F12.zeta(3), F12.zeta(4)
    a = i * (omega * omega - omega) * F12.from_rational(Fraction(1, 3))
    zero = F12.zero()
    want = Matrix.from_rows(F12, [[a, zero, zero],
                                  [zero, zero, a],
                                  [zero, a, zero]])
    ok = got == want and want == picard.published_gram()
    _report(2, "Gram matrix equals a*[[1,0,0],[0,0,1],[0,1,0]] in Q(zeta_12)",
            ok, time.monotonic() - t0, 1)


def test_criterion_3_rank_formula():
    t0 = time.monotonic()
    rng = random.Random(20260814)
    ok = w_space(picard.picard_tuple()).dim == 3
    detail = "" if ok else "picard tuple rank != 3"
    for k in range(200):
        F = CycloField(rng.choice([3, 4, 5, 6, 8, 12]))
        r = rng.randint(3, 8)
        g, _ = unit_scalar_tuple(F, r, rng)
        if w_space(g).dim != r - 2:
            ok = False
            detail = "case %d: r=%d n=%d" % (k, r, F.n)
            break
    _report(3, "dim W = 3 for the golden tuple and r-2 on 200 random tuples",
            ok, time.monotonic() - t0, 5, detail)


def _maps_agree(a, b, H):
    return all(vec_mat(v, a.matrix) == vec_mat(v, b.matrix) for v in H.basis)


def test_criterion_4_braid_relations_and_cocycle_rule():
    t0 = time.monotonic()
    rng = random.Random(20260815)
    ok = True
    detail = ""
    cases = 0
    while cases < 100:
        F = CycloField(rng.choice([1, 3]))
        r = rng.randint(4, 6)
        d = rng.choice([1, 1, 2, 2, 3])
        g = rand_tuple(F, r, d, rng)
        H = h_space(g)
        if H.dim == 0:
            continue
        s = r - 1
        i = rng.randrange(1, s - 1) if s >= 3 else 1
        lhs = phi_on_H(g, BraidWord(s, [(i, 1), (i + 1, 1), (i, 1)]))
        rhs = phi_on_H(g, BraidWord(s, [(i + 1, 1), (i, 1), (i + 1, 1)]))
        if not _maps_agree(lhs, rhs, H):
            ok, detail = False, "braid relation failed at case %d" % cases
            break
        if s >= 4:
            far_l = phi_on_H(g, BraidWord(s, [(1, 1), (3, 1)]))
            far_r = phi_on_H(g, BraidWord(s, [(3, 1), (1, 1)]))
            if not _maps_agree(far_l, far_r, H):
                ok, detail = False, "commutation failed at case %d" % cases
                break
        word = rand_braid(s, rng, rng.randint(2, 5))
        cut = rng.randrange(1, len(word.letters)) if len(word.letters) > 1 else 1
        head = BraidWord(s, word.letters[:cut])
        tail = BraidWord(s, word.letters[cut:])
        whole = phi_on_H(g, word)
        split = compose(phi_on_H(g, head),
                        phi_on_H(act_on_tuple(g, head), tail))
        if not _maps_agree(whole, split, H):
            ok, detail = False, "cocycle rule failed at case %d" % cases
            break
        cases += 1
    _report(4, "braid relations and cocycle rule on %d random cases" % cases,
            ok, time.monotonic() - t0, 30, detail)


def test_criterion_5_cup_well_defined():
    t0 = time.monotonic()
    rng = random.Random(20260816)
    ok = True
    detail = ""
    pairs = 0
    while pairs < 100:
        F = CycloField(rng.choice([1, 3, 4]))
        g = rand_tuple(F, rng.randint(3, 5), rng.randint(1, 3), rng)
        gs = dual_tuple(g)
        H, Hs = h_space(g), h_space(gs)
        if H.dim == 0 or Hs.dim == 0:
            continue
        phi = rand_h_elem(Hs, rng)
        psi = rand_h_elem(H, rng)
        base = cup_pairing(gs, g, phi, psi)
        # (a) perturb the lifts inside ker(g_i - 1)
        d, r = g.dim, g.r
        ident = Matrix.identity(F, d)
        blocks = [tuple(psi[i * d:(i + 1) * d]) for i in range(r)]
        lifts = []
        for i in range(r):
            u = solve_row_oracle(g.mats[i] - ident, blocks[i])
            ker = kernel_left(g.mats[i] - ident)
            if ker.dim:
                u = vec_add(u, rand_combo(list(ker.basis), F, rng))
            lifts.append(u)
        if cup_pairing(gs, g, phi, psi, lifts=lifts) != base:
            ok, detail = False, "lift dependence at pair %d" % pairs
            break
        # (b) shift representatives by coboundaries
        E, Es = e_space(g), e_space(gs)
        moved = base
        if E.dim:
            moved = cup_pairing(gs, g, phi,
                                vec_add(psi, rand_combo(list(E.basis), F, rng)))
        if moved == base and Es.dim:
            moved = cup_pairing(gs, g,
                                vec_add(phi, rand_combo(list(Es.basis), F, rng)),
                                psi)
        if moved != base:
            ok, detail = False, "coboundary shift at pair %d" % pairs
            break
        # (c) independent chain-accumulation oracle
        if cup_chain_oracle(gs, g, phi, psi) != base:
            ok, detail = False, "oracle mismatch at pair %d" % pairs
            break
        pairs += 1
    _report(5, "cup pairing well defined on %d random parabolic pairs" % pairs,
            ok, time.monotonic() - t0, 30, detail)


def test_criterion_6_antisymmetry_and_kind_swap():
    t0 = time.monotonic()
    rng = random.Random(20260817)
    ok = True
    detail = ""
    done = 0
    while done < 30:
        F = CycloField(rng.choice([1, 3]))
        g = rand_tuple(F, rng.randint(3, 4), rng.randint(1, 2), rng)
        gs = dual_tuple(g)
        H, Hs = h_space(g), h_space(gs)
        if H.dim == 0 or Hs.dim == 0:
            continue
        phi = rand_h_elem(Hs, rng)
        psi = rand_h_elem(H, rng)
        if cup_pairing(gs, g, phi, psi) != -cup_pairing(g, gs, psi, phi):
            ok, detail = False, "antisymmetry failed at %d" % done
            break
        done += 1
    if ok:
        F = CycloField(4)
        minus = Matrix.scalar(F, 1, -F.one())
        g = MatTuple(F, 1, [minus] * 4)
        res = gram_on_W(g, SesquiData("bilinear-symmetric",
                                      Matrix.identity(F, 1)))
        if res.kind != "bilinear-alternating" or res.G != -res.G.transpose():
            ok, detail = False, "symmetric J did not give alternating Gram"
    if ok:
        F = CycloField(3)
        J = Matrix.from_rows(F, [[F.zero(), F.one()],
                                 [-F.one(), F.zero()]])
        for _ in range(8):
            g = sl2_tuple(F, rng.randint(3, 4), rng)
            res = gram_on_W(g, SesquiData("bilinear-alternating", J))
            if res.kind != "bilinear-symmetric" or res.G != res.G.transpose():
                ok, detail = False, "alternating J did not give symmetric Gram"
                break
    _report(6, "pairing antisymmetry and symmetric/alternating kind swap",
            ok, time.monotonic() - t0, 30, detail)


def test_criterion_7_monodromy_preserves_the_form():
    t0 = time.monotonic()
    G = picard.published_gram()
    big = G.field
    ok = True
    detail = ""
    for name, m in zip(picard.GENERATOR_NAMES, picard.published_matrices()):
        mb = m.coerce(big)
        if mb * G * mb.conj_transpose() != G:
            ok, detail = False, "%s breaks M*G*conj(M)^T = G" % name
            break
        # the printed Gram is real, so the conjugate-linear-first identity
        # holds simultaneously
        if mb.conj() * G * mb.transpose() != G:
            ok, detail = False, "%s breaks conj(M)*G*M^T = G" % name
            break
    _report(7, "all five published matrices preserve the published Gram",
            ok, time.monotonic() - t0, 5, detail)


def test_criterion_8_signature_formula():
    t0 = time.monotonic()
    rng = random.Random(20260818)
    ok = True
    detail = ""
    sig_g = signature(gram_on_W(picard.picard_tuple(),
                                picard.hermitian_form()).G)
    sig_c = signature(gram_on_W(picard.conjugate_tuple(),
                                picard.hermitian_form()).G)
    if sig_g.as_pair() != (1, 2) or sig_g.nullity != 0:
        ok, detail = False, "picard signature %r" % (sig_g.as_pair(),)
    if ok and (sig_c.as_pair() != (2, 1) or sig_c.nullity != 0):
        ok, detail = False, "conjugate signature %r" % (sig_c.as_pair(),)
    if ok and predicted_signature(picard.picard_tuple()) != (1, 2):
        ok, detail = False, "picard prediction off"
    if ok and predicted_signature(picard.conjugate_tuple()) != (2, 1):
        ok, detail = False, "conjugate prediction off"
    count = 0
    while ok and count < 50:
        F = CycloField(rng.choice([3, 4, 5, 6, 8, 12]))
        g, _ = unit_scalar_tuple(F, rng.randint(4, 7), rng)
        res = gram_on_W(g, SesquiData("hermitian", Matrix.identity(F, 1)))
        sig = signature(res.G)
        pred = predicted_signature(g)
        if sig.nullity != 0 or sig.as_pair() != pred:
            ok = False
            detail = "tuple over Q(zeta_%d): exact %r vs predicted %r" % (
                F.n, sig.as_pair(), pred)
            break
        count += 1
    _report(8, "exact signature equals predicted on the golden pair and "
               "%d random tuples" % count,
            ok, time.monotonic() - t0, 60, detail)
