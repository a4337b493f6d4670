"""Problem-file parsing: shapes, literals, and error reporting."""

import json

import pytest

from parcoh.cyclo import CycloField
from parcoh.errors import ProblemFileError, ProductNotOne
from parcoh.problem import (MAX_FIELD_DEGREE, load_problem, matrix_from_json,
                            matrix_to_json, parse_problem, vector_from_json,
                            vector_to_json)


def _minimal_doc():
    return {
        "field": {"cyclotomic_order": 3},
        "dimension": 1,
        "tuple": [["z"], ["z"], ["z"]],
    }


def test_minimal_document_parses():
    p = parse_problem(_minimal_doc())
    assert p.field.n == 3
    assert p.dim == 1
    assert p.tuple.r == 3
    assert p.generators is None
    assert p.form is None
    assert p.basis is None
    assert p.eigenvalues is None


def test_shipped_problem_files_load(tmp_path):
    for name in ("problems/picard.json", "problems/picard_conjugate.json"):
        p = load_problem(name)
        assert p.field.n == 3
        assert p.tuple.r == 5
        assert p.form.kind == "hermitian"
        assert len(p.generators) == 5
        assert len(p.basis) == 3
        assert len(p.eigenvalues) == 5


def test_missing_keys_are_reported():
    for key in ("field", "dimension", "tuple"):
        doc = _minimal_doc()
        del doc[key]
        with pytest.raises(ProblemFileError):
            parse_problem(doc)


def test_bad_field_and_dimension():
    doc = _minimal_doc()
    doc["field"] = {"cyclotomic_order": 0}
    with pytest.raises(ProblemFileError):
        parse_problem(doc)
    doc = _minimal_doc()
    doc["dimension"] = "two"
    with pytest.raises(ProblemFileError):
        parse_problem(doc)


def test_field_degree_cap():
    # every order the tests and the benchmark use, and the largest degree
    for n in list(range(1, 29)) + [255, 256]:
        doc = _minimal_doc()
        doc["field"] = {"cyclotomic_order": n}
        doc["tuple"] = [["z"], ["z"], ["z^%d" % ((n - 2) % n)]]
        assert parse_problem(doc).field.degree <= MAX_FIELD_DEGREE
    for n in (257, 30030, 2 * MAX_FIELD_DEGREE ** 2 + 1, 10 ** 18):
        doc = _minimal_doc()
        doc["field"] = {"cyclotomic_order": n}
        with pytest.raises(ProblemFileError, match="degree above"):
            parse_problem(doc)


def test_tuple_validation_errors_surface():
    doc = _minimal_doc()
    doc["tuple"] = [["z"], ["z"], ["z^2"]]
    with pytest.raises(ProductNotOne):
        parse_problem(doc)


def test_bad_element_literal():
    doc = _minimal_doc()
    doc["tuple"] = [["z"], ["z"], ["omega"]]
    with pytest.raises(ProblemFileError):
        parse_problem(doc)


def test_braids_and_chi_consistency():
    doc = _minimal_doc()
    # identity entries pass validation (invertible, product one); only the
    # cocycle spaces care whether entries differ from 1
    doc["tuple"] = [["z"], ["z"], ["z"], ["1"]]
    doc["braids"] = {"t": "b1^2"}
    doc["chi"] = {"t": [["1"]]}
    p = parse_problem(doc)
    assert p.generators[0][0] == "t"
    doc["chi"] = {"wrong": [["1"]]}
    with pytest.raises(ProblemFileError):
        parse_problem(doc)
    doc2 = _minimal_doc()
    doc2["chi"] = "trivial"
    parse_problem(doc2)  # a redundant trivial chi is harmless
    doc2["chi"] = {"t": [["1"]]}
    with pytest.raises(ProblemFileError):
        parse_problem(doc2)  # a twist map needs braids to attach to


def test_form_kind_checked():
    doc = _minimal_doc()
    doc["form"] = {"kind": "quadratic", "J": [["1"]]}
    with pytest.raises(ProblemFileError):
        parse_problem(doc)


def test_basis_length_checked():
    doc = _minimal_doc()
    doc["basis"] = [["1", "0"]]
    with pytest.raises(ProblemFileError):
        parse_problem(doc)


def test_eigenvalues_shape_checked():
    doc = _minimal_doc()
    doc["eigenvalues"] = [[1], [1]]
    with pytest.raises(ProblemFileError):
        parse_problem(doc)


def test_matrix_json_roundtrip_flat_and_nested():
    F = CycloField(3)
    m = matrix_from_json(F, [["z", "0"], ["1", "z^2"]], 2, 2, "here")
    flat = matrix_from_json(F, ["z", "0", "1", "z^2"], 2, 2, "here")
    assert m == flat
    again = matrix_from_json(F, matrix_to_json(m), 2, 2, "again")
    assert again == m
    v = vector_from_json(F, ["z", "z + 1"], 2, "vec")
    assert vector_from_json(F, vector_to_json(v), 2, "vec2") == v


def test_matrix_json_bad_shapes():
    F = CycloField(3)
    with pytest.raises(ProblemFileError):
        matrix_from_json(F, [["z"]], 2, 2, "here")
    with pytest.raises(ProblemFileError):
        matrix_from_json(F, ["z", "z", "z"], 2, 2, "here")
    with pytest.raises(ProblemFileError):
        vector_from_json(F, ["z"], 2, "vec")


def test_load_problem_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemFileError):
        load_problem(str(path))


def test_load_problem_roundtrip(tmp_path):
    doc = _minimal_doc()
    doc["form"] = {"kind": "hermitian", "J": [["1"]]}
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(doc))
    p = load_problem(str(path))
    assert p.form.kind == "hermitian"
    assert p.form.J.rows == 1
