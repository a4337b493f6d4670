"""JSON problem files and exact serialization.

A problem file describes a local system and optional extras:

    {
      "field": {"cyclotomic_order": 3},
      "dimension": 1,
      "tuple": [[["z"]], [["z"]], [["z"]], [["z"]], [["z^2"]]],
      "braids": {"gamma1": "b3^2", ...},
      "chi": "trivial",
      "form": {"kind": "hermitian", "J": [["1"]]},
      "basis": [["1", "0", "0", "0", "-z-1"], ...],
      "eigenvalues": [[1], [1], [1], [1], [2]]
    }

Matrices are row lists of element literals (a flat row-major list of
length d*d is also accepted on input); vectors are flat literal lists.
"braids" maps generator names to braid words on r-1 strands; "chi" is
"trivial" or a matching name->matrix map.  "basis" lists parabolic
cocycle vectors (length r*d) whose classes must form a basis of W.
"eigenvalues" lists, per tuple entry, the exponents k of its
eigenvalues zeta_n^k with multiplicity, for the signature formula.
"""

import json

from .braid import parse_braid
from .cyclo import _euler_phi, format_element, parse_element, CycloField
from .duality import _FORM_KINDS, SesquiData
from .errors import LiteralSyntaxError, ProblemFileError
from .linalg import Matrix
from .tuples import validate_tuple

# Largest degree phi(n) of the field of a problem file.  A product or an
# inverse in Q(zeta_n) costs O(phi(n)^2) int operations, and the Hermitian
# Gram works in Q(zeta_lcm(n, 4)), of degree up to 2*phi(n).
MAX_FIELD_DEGREE = 128


def matrix_from_json(field, data, rows, cols, where):
    if not isinstance(data, list):
        raise ProblemFileError("%s: expected a matrix (list), got %r"
                               % (where, type(data).__name__))
    if data and all(isinstance(x, str) for x in data):
        if len(data) != rows * cols:
            raise ProblemFileError("%s: flat matrix needs %d entries, got %d"
                                   % (where, rows * cols, len(data)))
        data = [data[i * cols:(i + 1) * cols] for i in range(rows)]
    if len(data) != rows or any(not isinstance(row, list) or len(row) != cols
                                or not all(isinstance(x, str) for x in row)
                                for row in data):
        raise ProblemFileError("%s: expected %dx%d rows of literals"
                               % (where, rows, cols))
    try:
        ents = [[parse_element(lit, field) for lit in row] for row in data]
    except LiteralSyntaxError as e:
        raise ProblemFileError("%s: %s" % (where, e))
    return Matrix.from_rows(field, ents)


def matrix_to_json(m):
    return [[format_element(m[i, j]) for j in range(m.cols)]
            for i in range(m.rows)]


def vector_from_json(field, data, length, where):
    if not isinstance(data, list) or len(data) != length or \
            any(not isinstance(x, str) for x in data):
        raise ProblemFileError("%s: expected %d element literals"
                               % (where, length))
    try:
        return tuple(parse_element(lit, field) for lit in data)
    except LiteralSyntaxError as e:
        raise ProblemFileError("%s: %s" % (where, e))


def vector_to_json(v):
    return [format_element(x) for x in v]


class Problem:
    """A parsed problem file."""

    __slots__ = ("field", "dim", "tuple", "generators", "form", "basis",
                 "eigenvalues")

    def __init__(self, field, dim, g, generators, form, basis, eigenvalues):
        self.field = field
        self.dim = dim
        self.tuple = g
        self.generators = generators
        self.form = form
        self.basis = basis
        self.eigenvalues = eigenvalues


def _is_int(x):
    """A JSON integer; true and false are Python ints but not integers here."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_problem(doc):
    if not isinstance(doc, dict):
        raise ProblemFileError("top level must be an object")
    for key in ("field", "dimension", "tuple"):
        if key not in doc:
            raise ProblemFileError("missing required key %r" % key)
    fld = doc["field"]
    if not isinstance(fld, dict) or "cyclotomic_order" not in fld:
        raise ProblemFileError('"field" must be {"cyclotomic_order": n}')
    n = fld["cyclotomic_order"]
    if not _is_int(n) or n < 1:
        raise ProblemFileError("cyclotomic_order must be a positive integer")
    # phi(n) >= sqrt(n/2) for every n, so the first test turns away only
    # orders the second would, before phi is factored out of a huge n
    if n > 2 * MAX_FIELD_DEGREE ** 2 or _euler_phi(n) > MAX_FIELD_DEGREE:
        raise ProblemFileError("cyclotomic_order %d: Q(zeta_%d) has degree "
                               "above %d" % (n, n, MAX_FIELD_DEGREE))
    field = CycloField(n)
    d = doc["dimension"]
    if not _is_int(d) or d < 1:
        raise ProblemFileError("dimension must be a positive integer")
    raw_tuple = doc["tuple"]
    if not isinstance(raw_tuple, list):
        raise ProblemFileError('"tuple" must be a list of matrices')
    mats = [matrix_from_json(field, m, d, d, "tuple[%d]" % k)
            for k, m in enumerate(raw_tuple)]
    g = validate_tuple(mats)

    generators = None
    if "braids" in doc:
        braids = doc["braids"]
        if not isinstance(braids, dict) or \
                any(not isinstance(w, str) for w in braids.values()):
            raise ProblemFileError('"braids" must map names to words')
        chi_doc = doc.get("chi", "trivial")
        chis = {}
        if chi_doc == "trivial":
            for name in braids:
                chis[name] = Matrix.identity(field, d)
        elif isinstance(chi_doc, dict):
            if set(chi_doc) != set(braids):
                raise ProblemFileError('"chi" names do not match "braids"')
            for name, m in chi_doc.items():
                chis[name] = matrix_from_json(field, m, d, d,
                                              "chi[%s]" % name)
        else:
            raise ProblemFileError('"chi" must be "trivial" or a name map')
        generators = tuple(
            (name, parse_braid(word, g.r - 1), chis[name])
            for name, word in braids.items())
    elif "chi" in doc and doc["chi"] != "trivial":
        raise ProblemFileError('"chi" given without "braids"')

    form = None
    if "form" in doc:
        fdoc = doc["form"]
        if not isinstance(fdoc, dict) or "kind" not in fdoc or "J" not in fdoc:
            raise ProblemFileError('"form" must be {"kind": ..., "J": ...}')
        kind = fdoc["kind"]
        if kind not in _FORM_KINDS:
            raise ProblemFileError("form kind must be one of %s"
                                   % (", ".join(_FORM_KINDS)))
        J = matrix_from_json(field, fdoc["J"], d, d, "form.J")
        form = SesquiData(kind, J)

    basis = None
    if "basis" in doc:
        raw = doc["basis"]
        if not isinstance(raw, list) or not raw:
            raise ProblemFileError('"basis" must be a nonempty list')
        basis = tuple(vector_from_json(field, v, g.r * d, "basis[%d]" % k)
                      for k, v in enumerate(raw))

    eigenvalues = None
    if "eigenvalues" in doc:
        raw = doc["eigenvalues"]
        ok = isinstance(raw, list) and len(raw) == g.r and all(
            isinstance(row, list) and len(row) == d and
            all(_is_int(k) for k in row) for row in raw)
        if not ok:
            raise ProblemFileError(
                '"eigenvalues" must be %d lists of %d integers' % (g.r, d))
        eigenvalues = [list(row) for row in raw]

    return Problem(field, d, g, generators, form, basis, eigenvalues)


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ProblemFileError("%s: not valid JSON (%s)" % (path, e))
    return parse_problem(doc)
