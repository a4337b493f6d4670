"""Command-line front end.

Subcommands: w-basis, monodromy, gram, verify, picard.  All output is
exact element literals, either human-readable text or --json.  Exit
codes: 0 ok, 1 usage, 2 tuple/file validation, 3 compatibility,
4 form, 5 golden or library-invariant mismatch.

verify builds one context per call and its checks share it: W of the
tuple, the inverses of the entries (g* is their transposes), one walk
per file word (the compatibility lines and the W form check read the
same walks) and a dict from each entry h of a moved tuple to the right
kernel of h - 1, seeded from W's solvers, so a letter check eliminates
only the entries the letter creates, and it forms only the suffix
products of the moved tuple that differ from g's (at most two per letter,
see tuples._shared_suffix_products).  A library error raised inside a
check (exit-5 class) is that check's FAIL line with the error text, so
the remaining checks still run and --json always prints its document;
input errors keep their own exit codes.
"""

import argparse
import json
import sys

from . import picard as picard_mod
from .braid import BraidWord, _move_rows, _preserved, _walk
from .cyclo import format_element
from .duality import (_blocks, _dual_check, _lift, cup_pairing, gram_on_W,
                      predicted_signature, signature)
from .errors import (BraidSyntaxError, DoesNotPreserveE, FieldInvariantError,
                     FieldMismatch, FormNotInvariant, IncompatibleSpec,
                     LiteralSyntaxError, NoEmbedding, NonzeroH0, NotASubspace,
                     NotHermitian, NotParabolic, NotReal, NotRootOfUnity,
                     ProblemFileError, ShapeMismatch, StrandMismatch,
                     TupleError, TupleMismatch, UnknownGenerator)
from .linalg import Matrix, kernel_left, vec_add, vec_mat
from .monodromy import VariationSpec, _generators, _walks
from .problem import (load_problem, matrix_from_json, matrix_to_json,
                      vector_to_json)
from .tuples import (MatTuple, _check_matrix, _entry_solver,
                     _shared_suffix_products, e_space, w_space)


def _fmt_vec(v):
    return "[" + ", ".join(format_element(x) for x in v) + "]"


def _print_matrix(m, indent="  "):
    for i in range(m.rows):
        print(indent + _fmt_vec(m.row(i)))


def _err(msg):
    print("error: %s" % msg, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the documented code is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        _err(message)
        raise SystemExit(1)


def _basis_coords(ws, basis_vectors):
    """Coordinate matrix P of explicit basis classes; rows = coords."""
    want = ws.tuple.r * ws.tuple.dim
    rows = []
    for k, v in enumerate(basis_vectors):
        if len(v) != want:
            raise NotASubspace("basis vector %d has wrong length" % (k + 1))
        if any(vec_mat(v, ws.K)):
            raise NotASubspace(
                "basis vector %d is not a parabolic cocycle" % (k + 1))
        rows.append(ws.chart._coords(v))
    if len(rows) != ws.dim:
        raise NotASubspace("need %d basis classes, got %d"
                           % (ws.dim, len(rows)))
    P = Matrix.from_rows(ws.tuple.field, rows)
    if not P.is_invertible():
        raise NotASubspace("basis classes are linearly dependent mod E")
    return P


def cmd_w_basis(args):
    problem = load_problem(args.file)
    ws = w_space(problem.tuple)
    if args.json:
        doc = {
            "cyclotomic_order": problem.field.n,
            "r": problem.tuple.r,
            "dimension": problem.dim,
            "dim_H": ws.H.dim,
            "dim_E": ws.E.dim,
            "dim_W": ws.dim,
            "basis": [vector_to_json(rep) for rep in ws.chart.reps],
        }
        print(json.dumps(doc, indent=2))
    else:
        print("field: Q(zeta_%d), r = %d, dimension = %d"
              % (problem.field.n, problem.tuple.r, problem.dim))
        print("dim H = %d" % ws.H.dim)
        print("dim E = %d" % ws.E.dim)
        print("dim W = %d" % ws.dim)
        if ws.dim:
            print("class representatives:")
            for rep in ws.chart.reps:
                print("  " + _fmt_vec(rep))
    return 0


def cmd_monodromy(args):
    problem = load_problem(args.file)
    if problem.generators is None:
        _err('problem file has no "braids" section')
        return 1
    if args.basis == "explicit" and problem.basis is None:
        _err('--basis explicit requires a "basis" section in the file')
        return 1
    spec = VariationSpec(problem.tuple, problem.generators)
    walks = _walks(spec)
    if any(bad is not None for _, _, _, bad in walks):
        for name, _, _, bad in walks:
            if bad is None:
                print("compatibility %s: ok" % name, file=sys.stderr)
            else:
                print("compatibility %s: FAIL at tuple entry %d"
                      % (name, bad), file=sys.stderr)
        return 3
    rep = _generators(spec, walks)
    mats = list(rep.images)
    if not mats:
        if args.json:
            print(json.dumps({"matrices": []}, indent=2))
        return 0
    if args.basis == "explicit":
        P = _basis_coords(rep.wspace, problem.basis)
        Pinv = P.inverse()
        mats = [(name, P * m * Pinv) for name, m in mats]
    if args.conjugate is not None:
        k = rep.wspace.dim
        try:
            data = json.loads(args.conjugate)
        except json.JSONDecodeError as e:
            _err("--conjugate is not valid JSON: %s" % e)
            return 1
        C = matrix_from_json(problem.field, data, k, k, "--conjugate")
        if not C.is_invertible():
            _err("--conjugate matrix is singular")
            return 1
        Cinv = C.inverse()
        mats = [(name, C * m * Cinv) for name, m in mats]
    if args.json:
        doc = {"dim_W": rep.wspace.dim,
               "matrices": [{"name": name, "matrix": matrix_to_json(m)}
                            for name, m in mats]}
        print(json.dumps(doc, indent=2))
    else:
        for name, m in mats:
            print("%s:" % name)
            _print_matrix(m)
    return 0


def _predicted_pair(g, eigenvalues):
    """(predicted, predicted for the conjugate character) or a note."""
    n = g.field.n
    try:
        if eigenvalues is not None:
            pred = predicted_signature(g, eigenvalues)
            conj_eig = [[(-k) % n for k in row] for row in eigenvalues]
            pred_conj = predicted_signature(g.conjugate_entries(), conj_eig)
        elif g.dim == 1:
            pred = predicted_signature(g)
            pred_conj = predicted_signature(g.conjugate_entries())
        else:
            return None, None, "no eigenvalue data"
    except NonzeroH0:
        return None, None, "H^0 is nonzero"
    return pred, pred_conj, None


def cmd_gram(args):
    problem = load_problem(args.file)
    if problem.form is None:
        _err('problem file has no "form" section')
        return 1
    hermitian = problem.form.kind == "hermitian"
    if args.hermitian and not hermitian:
        _err("--hermitian given but the file form kind is %r"
             % problem.form.kind)
        return 1
    if args.bilinear and hermitian:
        _err("--bilinear given but the file form kind is hermitian")
        return 1
    res = gram_on_W(problem.tuple, problem.form)
    G = res.G
    if problem.basis is not None:
        # the hermitian route may enlarge the field, so move the file basis
        # into the w-space's own field before taking coordinates
        big = res.wspace.tuple.field
        basis = [[x.coerce(big) for x in v] for v in problem.basis]
        P = _basis_coords(res.wspace, basis)
        G = (P.conj() * G * P.transpose()) if hermitian \
            else (P * G * P.transpose())
    doc = {"kind": res.kind, "dim_W": res.wspace.dim,
           "cyclotomic_order": G.field.n,
           "gram": matrix_to_json(G)}
    sig = None
    pred = pred_conj = note = None
    if hermitian:
        sig = signature(G)
        pred, pred_conj, note = _predicted_pair(problem.tuple,
                                                problem.eigenvalues)
        doc["signature"] = list(sig.as_pair())
        doc["nullity"] = sig.nullity
        if pred is not None:
            doc["predicted_signature"] = list(pred)
            doc["predicted_signature_conjugate_character"] = list(pred_conj)
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print("kind: %s" % res.kind)
    print("gram matrix over Q(zeta_%d):" % G.field.n)
    _print_matrix(G)
    if hermitian:
        print("signature: (%d, %d)" % sig.as_pair())
        if sig.nullity:
            print("nullity: %d" % sig.nullity)
        if pred is not None:
            print("predicted signature: (%d, %d)" % pred)
            print("predicted signature (conjugate character): (%d, %d)"
                  % pred_conj)
        else:
            print("predicted signature: not applicable (%s)" % note)
    return 0


def artin_relations(r):
    """The Artin relations of b1..b(r-2) on r - 1 strands, as word pairs.

    b_i b_(i+1) b_i = b_(i+1) b_i b_(i+1) for 1 <= i <= r - 3, then
    b_i b_j = b_j b_i for 1 <= i, j <= r - 2 with j - i >= 2.
    """
    out = []
    for i in range(1, r - 2):
        out.append((BraidWord(r - 1, [(i, 1), (i + 1, 1), (i, 1)]),
                    BraidWord(r - 1, [(i + 1, 1), (i, 1), (i + 1, 1)])))
    for i in range(1, r - 2):
        for j in range(i + 2, r - 1):
            out.append((BraidWord(r - 1, [(i, 1), (j, 1)]),
                        BraidWord(r - 1, [(j, 1), (i, 1)])))
    return out


# errors that mean the library broke one of its own invariants (exit 5):
# inside a check of verify, such an error is that check's FAIL
_LIBRARY_ERRORS = (DoesNotPreserveE, FieldInvariantError, FieldMismatch,
                   NoEmbedding, NotReal, ShapeMismatch)


def _outcomes(names, check):
    """The lines (name, ok, 5) of the checks that check() runs together,
    one ok per name; a library error raised inside it fails each of them,
    with the error text."""
    try:
        oks = check()
    except _LIBRARY_ERRORS as e:
        return [("%s (%s)" % (name, e), False, 5) for name in names]
    return [(name, ok, 5) for name, ok in zip(names, oks)]


def _verify_checks(problem):
    """Yield (name, ok, exit_code_on_failure) for the invariant suite.

    One context serves every check: W of g, the inverses of its entries
    (which also give g* = (g_i^-1)^T), one walk per file word, and the
    right kernel of h - 1 for each distinct entry h of the moved tuples.
    """
    g = problem.tuple
    r, d = g.r, g.dim
    try:
        ws = w_space(g)
        invs = [m.inverse() for m in g.mats]
    except _LIBRARY_ERRORS as e:
        yield ("building W (%s)" % e, False, 5)
        return
    H, E = ws.H, ws.E
    yield ("tuple validation", True, 2)

    spec = walks = None
    if problem.generators is not None:
        spec = VariationSpec(g, problem.generators)
        walks = _walks(spec, invs)
        for name, _, _, bad in walks:
            yield ("compatibility %s" % name, bad is None, 3)

    def moved(beta, basis):
        """g^beta and the rows of basis moved by Phi(g, beta)."""
        tup, steps = _walk(g, beta, invs)
        rows = [list(v) for v in basis]
        _move_rows(rows, steps, d)
        return tup, rows

    # Artin relations, as maps on H
    yield from _outcomes(("braid relations on H",), lambda: (all(
        moved(left, H.basis)[1] == moved(right, H.basis)[1]
        for left, right in artin_relations(r)),))

    # each letter b_i^(+-1) maps H into H and E into E of the moved tuple;
    # K of the moved tuple eliminates only the entries not seen before and
    # forms only the suffix products that differ from g's
    kernels = {m: s.right_kernel() for m, s in zip(g.mats, ws.solvers)}
    suffixes = g.suffix_products()

    def letters():
        h_ok = e_ok = True
        for i in range(1, r - 1):
            for e in (1, -1):
                tup, rows = moved(BraidWord(r - 1, [(i, e)]),
                                  H.basis + E.basis)
                for m in tup.mats:
                    if m not in kernels:
                        kernels[m] = _entry_solver(m).right_kernel()
                K = _check_matrix([kernels[m] for m in tup.mats],
                                  _shared_suffix_products(tup, g, suffixes))
                h, e = _preserved(rows, H.dim, K, e_space(tup))
                h_ok, e_ok = h_ok and h, e_ok and e
        return h_ok, e_ok
    yield from _outcomes(("H preserved by braid letters",
                          "E preserved by braid letters"), letters)

    def cup():
        """The cup value does not depend on the choice of lifts; the lifts,
        their shifts (the left kernels of g_i - 1) and H(g*) all come from
        the solvers of g_i - 1 that w_space kept."""
        gs = MatTuple(g.field, d, [m.transpose() for m in invs])
        Hs = kernel_left(_dual_check(ws, gs))
        ok = True
        if H.dim and Hs.dim:
            phi_elt, psi_elt = Hs.basis[0], H.basis[-1]
            lifts = [_lift(solver, b)
                     for solver, b in zip(ws.solvers, _blocks(psi_elt, r, d))]
            value = cup_pairing(gs, g, phi_elt, psi_elt, lifts=lifts)
            for i, solver in enumerate(ws.solvers):
                for kv in solver.left_kernel():
                    shifted = list(lifts)
                    shifted[i] = vec_add(shifted[i], kv)
                    ok = ok and cup_pairing(gs, g, phi_elt, psi_elt,
                                            lifts=shifted) == value
        return (ok,)
    yield from _outcomes(("cup independent of lifts",), cup)

    if problem.form is not None:
        try:
            problem.form.check(g)
            yield ("form invariance on V", True, 4)
            form_ok = True
        except FormNotInvariant as e:
            yield ("form invariance on V (%s)" % e, False, 4)
            form_ok = False
        if form_ok and spec is not None and ws.dim:
            def w_form():
                G = gram_on_W(g, problem.form).G
                hermitian = problem.form.kind == "hermitian"
                ok = True
                for _, m in _generators(spec, walks).images:
                    m = m.coerce(G.field)
                    left = m.conj() if hermitian else m
                    ok = ok and left * G * m.transpose() == G
                return (ok,)
            yield from _outcomes(("monodromy preserves the W form",), w_form)


def cmd_verify(args):
    problem = load_problem(args.file)
    failures = []
    checks = []
    for name, ok, code in _verify_checks(problem):
        checks.append({"name": name, "ok": ok})
        if not args.json:
            print("%s %s" % ("PASS" if ok else "FAIL", name))
        if not ok:
            failures.append(code)
    if args.json:
        print(json.dumps({"ok": not failures, "checks": checks}, indent=2))
    if failures:
        return failures[0]
    if not args.json:
        print("all checks passed")
    return 0


def cmd_picard(args):
    values = picard_mod.golden_values()
    ok, checks = picard_mod._report(values)
    if args.json:
        matrices, gram, sigs = values
        doc = {
            "ok": ok,
            "checks": [{"name": n, "ok": good, "detail": detail}
                       for n, good, detail in checks],
            "matrices": [
                {"name": name, "matrix": matrix_to_json(m)}
                for name, m in zip(picard_mod.GENERATOR_NAMES, matrices)],
            "gram": matrix_to_json(gram),
            "signatures": {k: {kk: list(vv) for kk, vv in v.items()}
                           for k, v in sigs.items()},
        }
        print(json.dumps(doc, indent=2))
    else:
        for name, good, detail in checks:
            line = "%s %s" % ("PASS" if good else "FAIL", name)
            if detail:
                line += " (%s)" % detail
            print(line)
        print("picard golden data %s" %
              ("reproduced exactly" if ok else "MISMATCH"))
    return 0 if ok else 5


def build_parser():
    p = _Parser(prog="parcoh",
                description="Exact parabolic cohomology of local systems "
                            "on a punctured sphere: braid monodromy, "
                            "duality pairing, Hermitian signature.")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("w-basis", help="dimensions and basis of W")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_w_basis)

    q = sub.add_parser("monodromy", help="monodromy matrices on W")
    q.add_argument("file")
    q.add_argument("--basis", choices=("auto", "explicit"), default="auto")
    q.add_argument("--conjugate", metavar="MATRIX",
                   help="post-conjugate output by this matrix literal "
                        "(JSON rows of element literals)")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_monodromy)

    q = sub.add_parser("gram", help="Gram matrix of the duality form on W")
    kind = q.add_mutually_exclusive_group(required=True)
    kind.add_argument("--hermitian", action="store_true")
    kind.add_argument("--bilinear", action="store_true")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_gram)

    q = sub.add_parser("verify", help="run the invariant suite on a file")
    q.add_argument("file")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("picard", help="check the built-in golden system")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=cmd_picard)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        _err(str(e))
        return 1
    except ProblemFileError as e:
        _err(str(e))
        return 2
    except (TupleError, LiteralSyntaxError, BraidSyntaxError, StrandMismatch,
            NotASubspace, NotRootOfUnity, NotParabolic, TupleMismatch,
            UnknownGenerator) as e:
        _err(str(e))
        return 2
    except IncompatibleSpec as e:
        _err(str(e))
        return 3
    except (FormNotInvariant, NotHermitian) as e:
        _err(str(e))
        return 4
    except _LIBRARY_ERRORS as e:
        _err(str(e))
        return 5


if __name__ == "__main__":
    sys.exit(main())
