"""Correctness checks for every benchmark operation.

Each check compares an output against a property the method must have,
an independent computation written here, or the published Picard data.
None compares against a stored copy of an earlier output.  A check
raises CheckFailed with a message naming what went wrong.
"""

import json
from fractions import Fraction

from inputs import PICARD_PAIRS
from parcoh import picard
from parcoh.cyclo import CycloField, parse_element
from parcoh.linalg import Matrix


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# exact helpers of the benchmark's own


def _eliminate(rows):
    """Row-reduce a list of row lists in place; returns (rank, det)."""
    n = len(rows)
    cols = len(rows[0]) if n else 0
    field = rows[0][0].field if n and cols else None
    det = field.one() if field else None
    rank = 0
    for c in range(cols):
        hit = next((k for k in range(rank, n) if rows[k][c]), None)
        if hit is None:
            det = field.zero()
            continue
        if hit != rank:
            rows[rank], rows[hit] = rows[hit], rows[rank]
            det = -det
        piv = rows[rank][c]
        det = det * piv
        inv = piv.inverse()
        for k in range(rank + 1, n):
            if rows[k][c]:
                f = rows[k][c] * inv
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[rank])]
        rank += 1
    return rank, det


def rank_of(m):
    return _eliminate([list(m.row(i)) for i in range(m.rows)])[0]


def det_of(m):
    require(m.rows == m.cols, "determinant of a non-square matrix")
    return _eliminate([list(m.row(i)) for i in range(m.rows)])[1]


def is_hermitian(G):
    return G.rows == G.cols and all(
        G[i, j] == G[j, i].conjugate()
        for i in range(G.rows) for j in range(i, G.cols))


def is_symmetric(G, sign=1):
    return G.rows == G.cols and all(
        G[i, j] == (G[j, i] if sign == 1 else -G[j, i])
        for i in range(G.rows) for j in range(i, G.cols))


def preserves(M, G, hermitian):
    M = M.coerce(G.field)
    left = M.conj() if hermitian else M
    return left * G * M.transpose() == G


def expected_signature(n, exps):
    """p = sum mu_i - 1, q = sum (1 - mu_i) - 1 with mu_i = e_i / n."""
    mu = [Fraction(e % n, n) for e in exps]
    p = sum(mu) - 1
    q = sum(1 - m for m in mu if m) - 1
    require(p.denominator == 1 and q.denominator == 1,
            "exponents do not give an integral signature")
    return int(p), int(q)


def check_reflection(M, field, exps, i, j, label):
    """M is a complex reflection with det g_i g_j, g_k = zeta^e_k."""
    ident = Matrix.identity(M.field, M.rows)
    require(rank_of(M - ident) <= 1,
            "%s: rank(M - I) > 1, not a complex reflection" % label)
    want = field.zeta((exps[i - 1] + exps[j - 1]) % field.n)
    require(det_of(M) == want, "%s: det M is not g_%d g_%d" % (label, i, j))


# ---------------------------------------------------------------------------
# gram-signature


def chain_pairing_entry(g, reps, k, l):
    """G[k, l] for a rank-one tuple g over a field containing i.

    The chain-accumulation pairing of kappa(conj(rep_k)) with rep_l:
    chains w*_i = v*_i + w*_(i-1) g*_i and w_i = v_i + w_(i-1) g_i, and
    sum_i (w*_i - w*_(i-1)) (u_i - w_(i-1)) with u_i (g_i - 1) =
    w_i - w_(i-1); then times -i.  g* is g_i^-1 and kappa with J = [1]
    is plain conjugation.
    """
    field = g.field
    gs = [m[0, 0] for m in g.mats]
    phi = [x.conjugate() for x in reps[k]]
    psi = reps[l]
    zero = field.zero()
    ws_prev = w_prev = zero
    total = zero
    for gi, v_star, v in zip(gs, phi, psi):
        ws_i = v_star + ws_prev * gi.inverse()
        w_i = v + w_prev * gi
        u = (w_i - w_prev) / (gi - field.one())
        total = total + (ws_i - ws_prev) * (u - w_prev)
        ws_prev, w_prev = ws_i, w_i
    return -field.zeta(field.n // 4) * total


def check_gram_signature(case, out):
    res, sig, pred = out
    G = res.G
    m = case["r"] - 2
    require(res.wspace.dim == m and G.rows == m and G.cols == m,
            "dim W is %d, expected r - 2 = %d" % (res.wspace.dim, m))
    require(is_hermitian(G), "Gram matrix is not conj(G)^T")
    require(sig.nullity == 0, "signature has nullity %d" % sig.nullity)
    want = expected_signature(case["n"], case["exps"])
    require(sig.as_pair() == want,
            "signature %r, formula gives %r" % (sig.as_pair(), want))
    require(tuple(pred) == want,
            "predicted_signature %r, formula gives %r" % (pred, want))
    k, l = case["entry"]
    oracle = chain_pairing_entry(res.wspace.tuple, res.wspace.chart.reps, k, l)
    require(G[k, l] == oracle,
            "G[%d, %d] differs from the chain-accumulation pairing" % (k, l))


# ---------------------------------------------------------------------------
# monodromy-pure-braids


def check_monodromy(case, rep, gram):
    field = case["tuple"].field
    m = case["r"] - 2
    images = dict(rep.images)
    require(list(images) == list(case["pairs"]),
            "generator names %r" % list(images))
    for name, (i, j) in case["pairs"].items():
        M = images[name]
        require(M.rows == m and M.cols == m, "%s is not %dx%d" % (name, m, m))
        check_reflection(M, field, case["exps"], i, j, name)
        require(preserves(M, gram, True),
                "%s does not preserve the Hermitian Gram" % name)
    if case["golden"]:
        C = picard.golden_conjugator()
        Cinv = C.inverse()
        for (i, j), want in zip(PICARD_PAIRS, picard.published_matrices()):
            got = C * images["A%d_%d" % (i, j)] * Cinv
            require(got == want,
                    "A%d_%d conjugated by conj(B) is not the published "
                    "matrix" % (i, j))


# ---------------------------------------------------------------------------
# cli-files: parsers for the command output


def _parse_row(line, field):
    body = line.strip()
    require(body.startswith("[") and body.endswith("]"),
            "matrix row %r" % line)
    inner = body[1:-1].strip()
    return [parse_element(lit, field) for lit in inner.split(",")] \
        if inner else []


def _matrix(rows, field):
    require(rows and all(len(r) == len(rows[0]) for r in rows),
            "ragged matrix")
    return Matrix.from_rows(field, rows)


def _json_matrix(data, field):
    return _matrix([[parse_element(x, field) for x in row] for row in data],
                   field)


def _load_json(text):
    try:
        return json.loads(text)
    except ValueError as e:
        raise CheckFailed("JSON output does not parse: %s" % e)


def parse_w_basis(text, as_json):
    if as_json:
        doc = _load_json(text)
        return doc["dim_H"], doc["dim_E"], doc["dim_W"], len(doc["basis"])
    dims = {}
    reps = 0
    for line in text.splitlines():
        if line.startswith("dim "):
            key, val = line[4:].split(" = ")
            dims[key] = int(val)
        elif line.startswith("  ["):
            reps += 1
    return dims["H"], dims["E"], dims["W"], reps


def parse_gram(text, as_json):
    """(kind, G, signature or None, predicted or None)."""
    if as_json:
        doc = _load_json(text)
        field = CycloField(doc["cyclotomic_order"])
        sig = doc.get("signature")
        pred = doc.get("predicted_signature")
        return (doc["kind"], _json_matrix(doc["gram"], field),
                tuple(sig) if sig else None, tuple(pred) if pred else None)
    kind = sig = pred = field = None
    rows = []
    for line in text.splitlines():
        if line.startswith("kind: "):
            kind = line[6:]
        elif line.startswith("gram matrix over Q(zeta_"):
            field = CycloField(int(line[len("gram matrix over Q(zeta_"):
                                    line.index(")")]))
        elif line.startswith("  ["):
            rows.append(_parse_row(line, field))
        elif line.startswith("signature: "):
            sig = tuple(int(x) for x in line[12:-1].split(", "))
        elif line.startswith("predicted signature: ("):
            pred = tuple(int(x) for x in line[22:-1].split(", "))
    require(kind is not None and field is not None, "gram output incomplete")
    return kind, _matrix(rows, field), sig, pred


def parse_monodromy(text, as_json, field):
    """[(name, Matrix)] in output order."""
    if as_json:
        doc = _load_json(text)
        return [(e["name"], _json_matrix(e["matrix"], field))
                for e in doc["matrices"]]
    out = []
    rows = None
    for line in text.splitlines():
        if line.startswith("  ["):
            rows.append(_parse_row(line, field))
        elif line.endswith(":"):
            if rows is not None:
                out.append((name, _matrix(rows, field)))
            name, rows = line[:-1], []
    if rows is not None:
        out.append((name, _matrix(rows, field)))
    return out


def parse_report(text, as_json, last_line):
    """[(check name, ok)] from verify or picard output."""
    if as_json:
        doc = _load_json(text)
        require(doc["ok"] is True, "report says ok = %r" % doc["ok"])
        return [(c["name"], c["ok"]) for c in doc["checks"]]
    lines = text.splitlines()
    require(lines and lines[-1] == last_line,
            "last line is not %r" % last_line)
    out = []
    for line in lines[:-1]:
        status, _, name = line.partition(" ")
        out.append((name, status == "PASS"))
    return out


# ---------------------------------------------------------------------------
# cli-files: one check per subcommand


def check_cli(call, out, state):
    """Check one parcoh.cli.main call.

    call: dict with "argv", "cmd", "json", "file" (a key into
    state["files"]) and "explicit".  state carries per-file facts and the
    Gram matrix printed earlier in the same round (each file's gram calls
    come before its monodromy calls).
    """
    code, text = out
    require(code == 0, "%s exited %r" % (call["argv"], code))
    cmd, as_json = call["cmd"], call["json"]
    if cmd == "picard":
        checks = parse_report(text, as_json,
                              "picard golden data reproduced exactly")
        require(len(checks) == 8 and all(ok for _, ok in checks),
                "picard golden checks %r" % checks)
        return
    info = state["files"][call["file"]]
    if cmd == "verify":
        checks = parse_report(text, as_json, "all checks passed")
        require(checks and all(ok for _, ok in checks),
                "verify checks %r" % checks)
    elif cmd == "w-basis":
        dim_h, dim_e, dim_w, reps = parse_w_basis(text, as_json)
        require(dim_w == dim_h - dim_e,
                "dim_W %d != dim_H %d - dim_E %d" % (dim_w, dim_h, dim_e))
        require(reps == dim_w, "%d representatives for dim W %d"
                % (reps, dim_w))
        require(dim_w == info["dim_W"],
                "dim_W %d, expected %d" % (dim_w, info["dim_W"]))
    elif cmd == "gram":
        kind, G, sig, pred = parse_gram(text, as_json)
        require(kind == info["gram_kind"], "Gram kind %r" % kind)
        require(G.rows == info["dim_W"], "Gram is %dx%d" % (G.rows, G.cols))
        if kind == "hermitian":
            require(is_hermitian(G), "Gram is not conj(G)^T")
            require(sig is not None and sig == pred,
                    "signature %r, predicted %r" % (sig, pred))
            require(sig == info["signature"],
                    "signature %r, formula gives %r"
                    % (sig, info["signature"]))
        else:
            sign = 1 if kind == "bilinear-symmetric" else -1
            require(is_symmetric(G, sign), "Gram is not %s" % kind)
        state["gram"][call["file"]] = G
    elif cmd == "monodromy":
        mats = parse_monodromy(text, as_json, info["field"])
        require([name for name, _ in mats] == info["names"],
                "generator names %r" % [name for name, _ in mats])
        hermitian = info["gram_kind"] == "hermitian"
        same_basis = call["explicit"] or not info["has_basis"]
        for name, M in mats:
            require(M.rows == M.cols == info["dim_W"],
                    "%s is %dx%d" % (name, M.rows, M.cols))
            if info["pairs"] is not None:
                i, j = info["pairs"][name]
                check_reflection(M, info["field"], info["exps"], i, j, name)
            if same_basis:
                require(preserves(M, state["gram"][call["file"]], hermitian),
                        "%s does not preserve the printed Gram" % name)
    else:
        raise CheckFailed("unknown command %r" % cmd)
