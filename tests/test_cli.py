"""The command line interface: outputs, JSON shapes, and exit codes."""

import contextlib
import copy
import io
import json
import os
import random
import tempfile
import time
from datetime import timedelta
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import plus_trivial_block, sl2_tuple
from parcoh import cli, linalg, monodromy, picard, tuples
from parcoh.cyclo import CycloElem, CycloField, format_element
from parcoh.errors import (FieldInvariantError, FieldMismatch, NoEmbedding,
                           NotReal, ShapeMismatch)
from parcoh.linalg import Matrix
from parcoh.problem import MAX_FIELD_DEGREE, matrix_to_json

PICARD = "problems/picard.json"
CONJUGATE = "problems/picard_conjugate.json"

CONJ_B_LITERAL = json.dumps(
    [["0", "z", "z + 1"], ["-z", "-z", "-z"], ["1", "0", "0"]])


def _run(argv, capsys):
    """Invoke the CLI in process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse usage failures raise
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def test_w_basis_text(capsys):
    code, out, err = _run(["w-basis", PICARD], capsys)
    assert code == 0
    assert "dim W = 3" in out
    assert "dim H = 4" in out


def test_w_basis_json(capsys):
    code, out, err = _run(["w-basis", PICARD, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_W"] == 3
    assert doc["dim_E"] == 1
    assert len(doc["basis"]) == 3


def test_monodromy_default_basis(capsys):
    code, out, err = _run(["monodromy", PICARD, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dim_W"] == 3
    assert [m["name"] for m in doc["matrices"]] == list(picard.GENERATOR_NAMES)


def test_monodromy_conjugated_reproduces_published(capsys):
    code, out, err = _run(
        ["monodromy", PICARD, "--json", "--conjugate", CONJ_B_LITERAL], capsys)
    assert code == 0
    doc = json.loads(out)
    got = {m["name"]: m["matrix"] for m in doc["matrices"]}
    for name, want in zip(picard.GENERATOR_NAMES, picard.published_matrices()):
        lits = [[format_element(want[i, j]) for j in range(3)]
                for i in range(3)]
        assert got[name] == lits, name


def test_monodromy_explicit_basis_matches_file(capsys):
    # the file basis of picard.json is the chart basis itself
    code_auto, out_auto, _ = _run(["monodromy", PICARD, "--json"], capsys)
    code_file, out_file, _ = _run(
        ["monodromy", PICARD, "--json", "--basis", "explicit"], capsys)
    assert code_auto == code_file == 0
    assert json.loads(out_auto)["matrices"] == \
        json.loads(out_file)["matrices"]


def test_gram_conjugate_side_matches_published(capsys):
    code, out, err = _run(["gram", "--hermitian", CONJUGATE, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "hermitian"
    assert doc["signature"] == [2, 1]
    assert doc["nullity"] == 0
    assert doc["predicted_signature"] == [2, 1]
    assert doc["predicted_signature_conjugate_character"] == [1, 2]
    G = picard.published_gram()
    lits = [[format_element(G[i, j]) for j in range(3)] for i in range(3)]
    assert doc["gram"] == lits


def test_gram_picard_side_signature(capsys):
    code, out, err = _run(["gram", "--hermitian", PICARD, "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["signature"] == [1, 2]
    assert doc["predicted_signature"] == [1, 2]


def test_verify_passes_on_shipped_files(capsys):
    for path in (PICARD, CONJUGATE):
        code, out, err = _run(["verify", path], capsys)
        assert code == 0, err
        assert "FAIL" not in out
        assert "all checks passed" in out


def test_verify_passes_on_tuples_with_kernel_columns(tmp_path, capsys):
    # non-commuting entries whose g_i - 1 have kernels: a letter check
    # needs the kernels of entries that g does not have
    rng = random.Random(1212)
    for g in (sl2_tuple(CycloField(3), 5, rng),
              plus_trivial_block(sl2_tuple(CycloField(4), 4, rng))):
        doc = {"field": {"cyclotomic_order": g.field.n}, "dimension": g.dim,
               "tuple": [matrix_to_json(m) for m in g.mats]}
        path = tmp_path / "kernels.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(["verify", str(path)], capsys)
        assert code == 0, out + err


def _doubled_letter_factor(real, positive_letters):
    """_walk with one factor of each positive (or each inverse) letter
    doubled: 1 - b^-1 a b becomes 1 - 2 b^-1 a b, or (b - 1) a^-1 becomes
    2 (b - 1) a^-1."""
    def walk(g, beta, invs=None):
        moved, steps = real(g, beta, invs)
        ident = Matrix.identity(g.field, g.dim)
        out = []
        for i, top, bottom, positive in steps:
            if positive and positive_letters:
                bottom = bottom + bottom - ident
            elif not positive and not positive_letters:
                top = top + top
            out.append((i, top, bottom, positive))
        return moved, out
    return walk


@pytest.mark.parametrize("positive_letters", [True, False])
def test_verify_fails_on_a_wrong_letter_rule(monkeypatch, capsys,
                                             positive_letters):
    monkeypatch.setattr(cli, "_walk",
                        _doubled_letter_factor(cli._walk, positive_letters))
    code, out, err = _run(["verify", PICARD], capsys)
    assert code == 5
    lines = out.splitlines()
    assert "FAIL H preserved by braid letters" in lines
    assert "FAIL E preserved by braid letters" in lines


def test_verify_reports_a_library_error_as_fail(monkeypatch, capsys):
    # with the doubled factor in the monodromy's walk too, building the
    # monodromy raises DoesNotPreserveE inside the W form check
    for module in (cli, monodromy):
        monkeypatch.setattr(module, "_walk",
                            _doubled_letter_factor(module._walk, True))
    code, out, err = _run(["verify", PICARD, "--json"], capsys)
    assert code == 5
    assert err == ""
    doc = json.loads(out)
    assert doc["ok"] is False
    assert {"name": "monodromy preserves the W form (image of an H basis "
                    "vector leaves H)", "ok": False} in doc["checks"]
    code, out, err = _run(["verify", PICARD], capsys)
    assert code == 5
    assert "Traceback" not in err
    assert out.splitlines()[-1] == ("FAIL monodromy preserves the W form "
                                    "(image of an H basis vector leaves H)")


def test_verify_reports_a_library_error_in_building_w(monkeypatch, capsys):
    def broken(g):
        raise FieldInvariantError("Phi_3 is not monic")

    monkeypatch.setattr(cli, "w_space", broken)
    code, out, err = _run(["verify", PICARD, "--json"], capsys)
    assert (code, err) == (5, "")
    assert json.loads(out) == {"ok": False, "checks": [
        {"name": "building W (Phi_3 is not monic)", "ok": False}]}


def test_verify_builds_one_context(monkeypatch, capsys):
    """Entries inverted once by verify and once inside gram_on_W; one
    RowSolver per entry and W (verify, gram_on_W, monodromy); moved
    tuples reuse the kernels of the entries they share with g."""
    counts = {"inverse": 0, "RowSolver": 0, "WSpace": 0}

    def counted(owner, name, key):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[key] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(Matrix, "inverse", "inverse")
    counted(linalg.RowSolver, "__init__", "RowSolver")
    counted(tuples.WSpace, "__init__", "WSpace")
    code, _, _ = _run(["verify", PICARD], capsys)
    assert code == 0
    assert counts["inverse"] <= 10
    assert counts["RowSolver"] == 15
    assert counts["WSpace"] == 3


def test_verify_forms_only_the_suffix_products_a_letter_changes(
        monkeypatch, capsys):
    """suffix_products runs once each for verify's W, its letter checks
    and the cup check's K_(g*), and for the W, K_(g*) and monodromy W of
    the W form check.  A letter moves picard's (w, w, w, w, w^2) to
    itself, so the six letter checks form no product, where rebuilding
    each moved tuple's suffix products would form r - 1 = 4 each."""
    counts = {"suffix_products": 0, "products": 0}
    real_suffix = tuples.MatTuple.suffix_products
    real_mul = Matrix.__mul__

    def suffix_products(self):
        counts["suffix_products"] += 1
        return real_suffix(self)

    def mul(self, other):
        if isinstance(other, Matrix):
            counts["products"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(tuples.MatTuple, "suffix_products", suffix_products)
    monkeypatch.setattr(Matrix, "__mul__", mul)
    code, _, _ = _run(["verify", PICARD], capsys)
    assert code == 0
    assert counts == {"suffix_products": 6, "products": 65}


def test_picard_command(capsys):
    code, out, err = _run(["picard"], capsys)
    assert code == 0
    assert out.count("PASS") == 8
    code, out, err = _run(["picard", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True


def test_usage_errors_exit_1(capsys):
    code, _, _ = _run([], capsys)
    assert code == 1
    code, _, _ = _run(["gram", PICARD], capsys)  # missing form flag
    assert code == 1
    code, _, _ = _run(["nonsense"], capsys)
    assert code == 1


def test_missing_file_exits_1(capsys):
    code, _, err = _run(["w-basis", "/no/such/file.json"], capsys)
    assert code == 1
    assert "error" in err


def test_invalid_documents_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _, _ = _run(["w-basis", str(bad)], capsys)
    assert code == 2
    notone = tmp_path / "notone.json"
    notone.write_text(json.dumps({
        "field": {"cyclotomic_order": 3},
        "dimension": 1,
        "tuple": [["z"], ["z"], ["z^2"]],
    }))
    code, _, _ = _run(["w-basis", str(notone)], capsys)
    assert code == 2


@pytest.mark.parametrize("key", ["dimension", "cyclotomic_order"])
def test_boolean_integers_exit_2(key, tmp_path, capsys):
    # JSON true is a Python int; it must not pass as 1
    doc = {
        "field": {"cyclotomic_order": 3},
        "dimension": 1,
        "tuple": [["z"], ["z"], ["z"]],
    }
    if key == "dimension":
        doc["dimension"] = True
    else:
        doc["field"]["cyclotomic_order"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(["w-basis", str(path)], capsys)
    assert code == 2
    assert key in err


def test_incompatible_variation_exits_3(tmp_path, capsys, monkeypatch):
    """The report is read off the one walk of each word."""
    walks = []
    real = monodromy._walk

    def counted(*args):
        walks.append(args)
        return real(*args)
    monkeypatch.setattr(monodromy, "_walk", counted)
    doc = {
        "field": {"cyclotomic_order": 3},
        "dimension": 2,
        "tuple": [
            [["1", "1"], ["0", "1"]],
            [["1", "0"], ["1", "1"]],
            [["1", "-1"], ["-1", "2"]],
        ],
        "braids": {"t": "b1"},
    }
    path = tmp_path / "incompat.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["monodromy", str(path)], capsys)
    assert code == 3
    assert out == ""
    assert err == "compatibility t: FAIL at tuple entry 1\n"
    assert len(walks) == 1


@pytest.mark.parametrize("command", ["monodromy", "verify"])
def test_singular_chi_exits_2(command, tmp_path, capsys):
    doc = {
        "field": {"cyclotomic_order": 3},
        "dimension": 1,
        "tuple": [["z"], ["z"], ["z"]],
        "braids": {"t": "b1^2"},
        "chi": {"t": [["0"]]},
    }
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run([command, str(path)], capsys)
    assert code == 2
    assert "singular" in err
    assert err == "error: conjugating matrix is singular\n"
    assert "Traceback" not in err


def test_huge_braid_power_exits_2_fast(tmp_path, capsys):
    doc = {
        "field": {"cyclotomic_order": 3},
        "dimension": 1,
        "tuple": [["z"], ["z"], ["z"]],
        "braids": {"t": "b1^1000000000000"},
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = _run(["monodromy", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "letters" in err


@pytest.mark.parametrize("n", [30030, 10 ** 18])
def test_huge_cyclotomic_order_exits_2_fast(tmp_path, capsys, n):
    doc = {
        "field": {"cyclotomic_order": n},
        "dimension": 1,
        "tuple": [["z"], ["z"], ["z^%d" % (n - 2)]],
    }
    path = tmp_path / "huge_order.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, _, err = _run(["w-basis", str(path)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err == ("error: cyclotomic_order %d: Q(zeta_%d) has degree above "
                   "%d\n" % (n, n, MAX_FIELD_DEGREE))


def test_form_not_invariant_exits_4(tmp_path, capsys):
    doc = {
        "field": {"cyclotomic_order": 3},
        "dimension": 1,
        "tuple": [["2"], ["3"], ["1/6"]],
        "form": {"kind": "hermitian", "J": [["1"]]},
    }
    path = tmp_path / "badform.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(["gram", "--hermitian", str(path)], capsys)
    assert code == 4


def test_gram_flag_must_match_file_kind(tmp_path, capsys):
    code, _, err = _run(["gram", "--bilinear", PICARD], capsys)
    assert code == 1
    assert "hermitian" in err


def test_tampered_golden_data_exits_5(monkeypatch, capsys):
    from parcoh.linalg import Matrix

    real = picard.published_gram()
    fake = real + Matrix.identity(real.field, 3)
    monkeypatch.setattr(picard, "published_gram", lambda: fake)
    code, out, err = _run(["picard"], capsys)
    assert code == 5
    assert "FAIL" in out


def test_monodromy_requires_braids_in_file(capsys, tmp_path):
    doc = {
        "field": {"cyclotomic_order": 3},
        "dimension": 1,
        "tuple": [["z"], ["z"], ["z"]],
    }
    path = tmp_path / "nobraids.json"
    path.write_text(json.dumps(doc))
    code, _, err = _run(["monodromy", str(path)], capsys)
    assert code == 1


def test_conjugate_literal_must_parse(capsys):
    code, _, err = _run(
        ["monodromy", PICARD, "--conjugate", "not json"], capsys)
    assert code == 1
    code, _, err = _run(
        ["monodromy", PICARD, "--conjugate", '[["z"]]'], capsys)
    assert code == 2  # wrong shape for a 3-dimensional W


@pytest.mark.parametrize("value", [1, 1.5, None])
@pytest.mark.parametrize("where", ["tuple", "chi", "form.J", "--conjugate"])
def test_non_string_matrix_entry_exits_2(where, value, tmp_path, capsys):
    doc = {
        "field": {"cyclotomic_order": 3},
        "dimension": 1,
        "tuple": [[["z"]], [["z"]], [["z"]]],
    }
    label, size = where, 1
    if where == "tuple":
        doc["tuple"][2] = [[value]]
        label = "tuple[2]"
    elif where == "chi":
        doc["braids"], doc["chi"] = {"t": "b1^2"}, {"t": [[value]]}
        label = "chi[t]"
    elif where == "form.J":
        doc["form"] = {"kind": "hermitian", "J": [[value]]}
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(doc))
    argv = ["w-basis", str(path)]
    if where == "--conjugate":
        lits = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
        lits[1][1] = value
        argv, size = ["monodromy", PICARD, "--conjugate", json.dumps(lits)], 3
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "error: %s: expected %dx%d rows of literals\n" % (
        label, size, size)


@pytest.mark.parametrize("r", [4, 5, 6, 7])
def test_artin_relations_cover_every_generator_pair(r):
    rels = cli.artin_relations(r)
    assert len(rels) == (r - 3) + (r - 3) * (r - 4) // 2
    got = {(tuple(i for i, _ in a.letters), tuple(i for i, _ in b.letters))
           for a, b in rels}
    assert len(got) == len(rels)
    gens = range(1, r - 1)
    want = {((i, i + 1, i), (i + 1, i, i + 1)) for i in gens if i + 1 in gens}
    want |= {((i, j), (j, i)) for i, j in combinations(gens, 2) if j - i >= 2}
    assert got == want
    assert all(w.strands == r - 1 and all(e == 1 for _, e in w.letters)
               for pair in rels for w in pair)


def test_shape_mismatch_exits_5(monkeypatch, capsys):
    def broken():
        raise ShapeMismatch("3 x 1 times 3 x 1")

    monkeypatch.setattr(picard, "golden_values", broken)
    code, out, err = _run(["picard"], capsys)
    assert (code, out, err) == (5, "", "error: 3 x 1 times 3 x 1\n")


@pytest.mark.parametrize("error", [FieldMismatch, NoEmbedding, NotReal])
def test_field_errors_exit_5(monkeypatch, capsys, error):
    def broken(g):
        raise error("raised by a library call")

    monkeypatch.setattr(cli, "w_space", broken)
    code, out, err = _run(["w-basis", PICARD], capsys)
    assert (code, out, err) == (5, "", "error: raised by a library call\n")


def test_field_invariant_error_exits_5(monkeypatch, capsys):
    # a sign of 0 for a nonzero pivot breaks an invariant of the field
    monkeypatch.setattr(CycloElem, "sign", lambda self: 0)
    code, out, err = _run(["gram", "--hermitian", PICARD], capsys)
    assert code == 5
    assert err.startswith("error: nonzero pivot ") and \
        err.endswith(" has sign 0\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("as_json", [False, True])
def test_picard_computes_each_golden_object_once(monkeypatch, capsys,
                                                 as_json):
    calls = []

    def counted(name):
        real = getattr(picard, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(picard, name, wrapper)

    for name in ("gram_on_W", "monodromy_generators"):
        counted(name)
    code, out, _ = _run(["picard"] + (["--json"] if as_json else []), capsys)
    assert code == 0
    assert sorted(calls) == ["gram_on_W", "gram_on_W",
                             "monodromy_generators"]


# ---------------------------------------------------------------------------
# a fuzz property over mutated copies of the shipped problem files

# what "swap" puts in place of a value: every JSON type, and strings and
# lists of the shapes the file format expects elsewhere
_OTHER_VALUES = (None, True, 0, -1, 1.5, "", "z", "1", "b1^-1", "trivial",
                 [], ["1"], [["1"]], [[["z"]]], {}, {"kind": "hermitian"})

_FUZZ_COMMANDS = (["w-basis"], ["monodromy"], ["gram", "--hermitian"],
                  ["verify"])


@lru_cache(maxsize=None)
def _shipped_docs():
    docs = []
    for path in (PICARD, CONJUGATE):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return tuple(docs)


@st.composite
def _mutated_docs(draw):
    """A shipped problem file with one to three mutations, each at a
    random place: a key or entry dropped, a value swapped for one of
    another type, or a list shortened or lengthened by repeating its
    entries (to at most two more)."""
    doc = copy.deepcopy(draw(st.sampled_from(_shipped_docs())))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and \
                (parent is None or draw(st.booleans())):
            parent = node
            key = draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if parent is None:
            continue
        action = draw(st.sampled_from(("drop", "swap", "resize")))
        if action == "drop":
            del parent[key]
        elif action == "swap":
            parent[key] = copy.deepcopy(draw(st.sampled_from(_OTHER_VALUES)))
        else:
            if not isinstance(node, list) or not node:
                node = parent
            if isinstance(node, list) and node:
                size = draw(st.integers(0, len(node) + 2))
                node[:] = [node[k % len(node)] for k in range(size)]
    return doc


@settings(max_examples=50, deadline=timedelta(seconds=5))
@given(_mutated_docs())
def test_mutated_problem_files_exit_with_a_documented_code(doc):
    """Every subcommand that reads a file, in text and --json, returns an
    exit code 0-5 from main, with no exception escaping it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in _FUZZ_COMMANDS:
            for flags in ([], ["--json"]):
                argv = command + [path] + flags
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                assert code in range(6), (argv, code, err.getvalue())
