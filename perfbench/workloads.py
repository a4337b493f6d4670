"""The three benchmark workloads as lists of operations.

build(name, seed, root, workdir) returns one round, a list of Op.  A run
repeats the round a whole number of times, so its mix of operations
never depends on where the clock stopped, and a faster program runs the
same inputs as a slower one, only more often.  Operations call parcoh
through module attributes (duality.gram_on_W, not a copied name), so a
traced run that replaces those attributes sees every call.
"""

import contextlib
import io
import json
import os
from functools import partial
from math import lcm

import checks
import inputs
from parcoh import braid, cli, duality, monodromy, picard
from parcoh.cyclo import CycloField
from parcoh.linalg import Matrix


class Op:
    """One timed call: run() gives the output, check(output) raises
    checks.CheckFailed when it is wrong."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def build(name, seed, root, workdir):
    rng = inputs.rng_for(name, seed)
    if name == "gram-signature":
        return _gram_signature(rng)
    if name == "monodromy-pure-braids":
        return _monodromy_pure_braids(rng)
    if name == "cli-files":
        return _cli_files(rng, root, workdir)
    raise ValueError("unknown workload %r" % name)


# ---------------------------------------------------------------------------


def _gram_op(g, form):
    res = duality.gram_on_W(g, form)
    return res, duality.signature(res), duality.predicted_signature(g)


def _gram_signature(rng):
    ops = []
    for n, r in inputs.GRAM_LADDER:
        # build Q(zeta_lcm(n, 4)), where the Hermitian Gram is computed,
        # in set-up rather than in the first timed operation on it
        CycloField(lcm(n, 4))
        exps = inputs.root_of_unity_exponents(n, r, rng)
        g = inputs.rank_one_tuple(n, exps)
        form = duality.SesquiData("hermitian", Matrix.identity(g.field, 1))
        case = {"n": n, "r": r, "exps": exps,
                "entry": (rng.randrange(r - 2), rng.randrange(r - 2))}
        ops.append(Op("gram n=%d r=%d" % (n, r), partial(_gram_op, g, form),
                      partial(checks.check_gram_signature, case)))
    return ops


# ---------------------------------------------------------------------------


def _check_mono(case, rep):
    # the Gram is check data: computed once per tuple, never inside an op
    if case["gram"] is None:
        form = duality.SesquiData("hermitian",
                                  Matrix.identity(case["tuple"].field, 1))
        case["gram"] = duality.gram_on_W(case["tuple"], form).G
    checks.check_monodromy(case, rep, case["gram"])


def _mono_op(n, exps, golden):
    r = len(exps)
    g = picard.picard_tuple() if golden else inputs.rank_one_tuple(n, exps)
    chi = Matrix.identity(g.field, 1)
    gens, pairs = [], {}
    for i, j, word in inputs.pure_braid_words(r - 1):
        name = "A%d_%d" % (i, j)
        gens.append((name, braid.parse_braid(word, r - 1), chi))
        pairs[name] = (i, j)
    spec = monodromy.VariationSpec(g, gens)
    case = {"r": r, "exps": exps, "tuple": g, "pairs": pairs,
            "golden": golden, "gram": None}
    label = "picard golden" if golden else "monodromy n=%d r=%d" % (n, r)
    return Op(label, partial(_mono_run, spec), partial(_check_mono, case))


def _mono_run(spec):
    return monodromy.monodromy_generators(spec)


def _monodromy_pure_braids(rng):
    ops = [_mono_op(3, list(PICARD_EXPONENTS), golden=True)]
    for n, r in inputs.MONO_LADDER:
        ops.append(_mono_op(n, inputs.root_of_unity_exponents(n, r, rng),
                            golden=False))
    return ops


# ---------------------------------------------------------------------------

# the golden tuple (w, w, w, w, w^2) and its conjugate, as zeta_3 exponents
PICARD_EXPONENTS = (1, 1, 1, 1, 2)
CONJUGATE_EXPONENTS = (2, 2, 2, 2, 1)
PICARD_NAMES = ("gamma1", "gamma2", "gamma3", "gamma4", "gamma5")

# generated files: rank-one (n, r) with all pure braids; large-r rank-one
# (n, r) for w-basis only; and d = 2 SL_2 files over Q(zeta_3).  Calls
# cost either under 0.11 s or over 0.15 s; four SL_2 files (two of their
# eight calls cheap) put the median call inside the dense band above that
# gap rather than astride it, where it jumped by 17 % from seed to seed.
CLI_RANK_ONE = ((3, 6), (4, 6), (6, 5))
CLI_LARGE_R = ((7, 16), (12, 18))
CLI_SL2_FILES = 4


def _cli_call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def _rank_one_info(n, exps, names, pairs):
    return {"field": CycloField(n), "exps": list(exps), "dim_W": len(exps) - 2,
            "gram_kind": "hermitian", "has_basis": True, "names": names,
            "pairs": pairs, "signature": checks.expected_signature(n, exps)}


def _cli_files(rng, root, workdir):
    files = {}   # key -> (path, info)
    shipped = os.path.join(root, "problems")
    pairs = dict(zip(PICARD_NAMES, inputs.PICARD_PAIRS))
    files["picard"] = (os.path.join(shipped, "picard.json"),
                       _rank_one_info(3, PICARD_EXPONENTS, list(PICARD_NAMES),
                                      pairs))
    files["picard_conjugate"] = (
        os.path.join(shipped, "picard_conjugate.json"),
        _rank_one_info(3, CONJUGATE_EXPONENTS, list(PICARD_NAMES), pairs))

    def write(key, doc):
        path = os.path.join(workdir, key + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        return path

    for n, r in CLI_RANK_ONE:
        exps = inputs.root_of_unity_exponents(n, r, rng)
        doc = inputs.rank_one_doc(n, exps, rng)
        key = "rank1-n%d-r%d" % (n, r)
        pairs = {"A%d_%d" % (i, j): (i, j)
                 for i, j, _ in inputs.pure_braid_words(r - 1)}
        info = _rank_one_info(n, exps, list(doc["braids"]), pairs)
        files[key] = (write(key, doc), info)
    for n, r in CLI_LARGE_R:
        exps = inputs.root_of_unity_exponents(n, r, rng)
        key = "large-n%d-r%d" % (n, r)
        files[key] = (write(key, inputs.rank_one_doc(n, exps, rng,
                                                     braids=False)),
                      {"dim_W": r - 2})
    for k in range(CLI_SL2_FILES):
        doc = inputs.sl2_doc(rng)
        key = "sl2-%d" % k
        files[key] = (write(key, doc), {
            "field": CycloField(3), "dim_W": 6,
            "gram_kind": "bilinear-symmetric", "has_basis": False,
            "names": list(doc["braids"]), "pairs": None})

    calls = []
    for key, (path, info) in files.items():
        variants = [("w-basis",)]
        if "gram_kind" in info:
            flag = "--hermitian" if info["gram_kind"] == "hermitian" \
                else "--bilinear"
            variants.append(("gram", flag))
            if info["has_basis"]:
                variants.append(("monodromy", "--basis", "explicit"))
            variants += [("monodromy",), ("verify",)]
        for v in variants:
            for as_json in (False, True):
                argv = list(v) + [path] + (["--json"] if as_json else [])
                calls.append({"argv": argv, "cmd": v[0], "json": as_json,
                              "file": key, "explicit": "explicit" in v})
    calls += [{"argv": ["picard"] + (["--json"] if j else []),
               "cmd": "picard", "json": j, "file": None, "explicit": False}
              for j in (False, True)]

    state = {"files": {k: info for k, (_, info) in files.items()},
             "gram": {}}
    return [Op(" ".join(c["argv"]).replace(workdir + os.sep, "")
               .replace(root + os.sep, ""),
               partial(_cli_call, c["argv"]),
               partial(checks.check_cli, c, state=state))
            for c in calls]
