"""Self-test of the benchmark: its checks catch corrupted outputs, its
inputs repeat for a seed, its tracer counts cross-module calls, and its
times are scaled by the calibration kernel runs made after them.

    python3 perfbench/selftest.py

Every check is fed a real output of parcoh first (it must pass) and
then a deliberately corrupted copy (it must fail, and with the message
of the check meant to catch it).
"""

import contextlib
import gc
import io
import json
import os
import shutil
import tempfile
import unittest
from unittest import mock

import run

run.load_parcoh()

import checks            # noqa: E402  (needs parcoh on sys.path)
import workloads         # noqa: E402
from parcoh.cyclo import (CycloField, format_element,  # noqa: E402
                          parse_element)
from parcoh.duality import GramResult, SignatureResult  # noqa: E402
from parcoh.linalg import Matrix   # noqa: E402
from tracing import Tracer   # noqa: E402


def _build(name, seed):
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=SCRATCH)
    return workloads.build(name, seed, run.ROOT, workdir), workdir


def _with_entry(G, i, j, value):
    ents = list(G.entries)
    ents[i * G.cols + j] = value
    return Matrix(G.field, G.rows, G.cols, ents)


class CheckCase(unittest.TestCase):
    def assertFails(self, fn, fragment):
        with self.assertRaises(checks.CheckFailed) as ctx:
            fn()
        self.assertIn(fragment, str(ctx.exception))


class InputsRepeat(CheckCase):
    def fingerprint(self, name, seed):
        ops, workdir = _build(name, seed)
        if name == "cli-files":
            docs = {}
            for f in sorted(os.listdir(workdir)):
                with open(os.path.join(workdir, f), encoding="utf-8") as fh:
                    docs[f] = fh.read()
            return [op.label for op in ops], docs
        return [op.label for op in ops], [op.check.args[0] for op in ops]

    def test_same_seed_same_inputs(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first = self.fingerprint(name, 7)
                self.assertEqual(first, self.fingerprint(name, 7))
                self.assertNotEqual(first, self.fingerprint(name, 8))


class GramChecks(CheckCase):
    @classmethod
    def setUpClass(cls):
        ops, _ = _build("gram-signature", 3)
        cls.op = ops[0]
        cls.case = cls.op.check.args[0]
        cls.out = cls.op.run()

    def check(self, res=None, sig=None, pred=None):
        r0, s0, p0 = self.out
        checks.check_gram_signature(
            self.case, (res or r0, sig or s0, pred or p0))

    def gram(self, G):
        res = self.out[0]
        return GramResult(G, res.kind, res.wspace)

    def test_real_output_passes(self):
        self.check()

    def test_wrong_dimension(self):
        G = self.out[0].G
        small = Matrix.from_rows(G.field, [G.row(i)[:-1]
                                           for i in range(G.rows - 1)])
        self.assertFails(lambda: self.check(res=self.gram(small)), "dim W")

    def test_one_entry_changed_breaks_hermitian(self):
        G = self.out[0].G
        bad = _with_entry(G, 0, 1, G[0, 1] + 1)
        self.assertFails(lambda: self.check(res=self.gram(bad)),
                         "not conj(G)^T")

    def test_checked_entry_changed_breaks_oracle(self):
        G = self.out[0].G
        k, l = self.case["entry"]
        bad = _with_entry(G, k, l, G[k, l] + 1)
        bad = _with_entry(bad, l, k, bad[k, l].conjugate())
        self.assertFails(lambda: self.check(res=self.gram(bad)),
                         "chain-accumulation")

    def test_swapped_signature(self):
        p, q = self.out[1].as_pair()
        swapped = SignatureResult(q, p, 0) if p != q \
            else SignatureResult(p + 1, q - 1, 0)
        self.assertFails(lambda: self.check(sig=swapped), "formula gives")
        self.assertFails(lambda: self.check(pred=swapped.as_pair()),
                         "predicted_signature")

    def test_nullity(self):
        p, q = self.out[1].as_pair()
        self.assertFails(
            lambda: self.check(sig=SignatureResult(p, q - 1, 1)), "nullity")


class MonodromyChecks(CheckCase):
    @classmethod
    def setUpClass(cls):
        ops, _ = _build("monodromy-pure-braids", 3)
        cls.golden = ops[0]
        cls.rep = cls.golden.run()
        cls.small = ops[1]
        cls.small_rep = cls.small.run()

    def check(self, images, op=None, rep=None):
        op, rep = op or self.golden, rep or self.rep
        bad = type(rep)(rep.wspace, images)
        op.check(bad)

    def replaced(self, name, M, rep=None):
        rep = rep or self.rep
        return [(n, M if n == name else m) for n, m in rep.images]

    def test_real_output_passes(self):
        self.golden.check(self.rep)
        self.small.check(self.small_rep)

    def test_scaled_image(self):
        name, M = self.small_rep.images[0]
        self.assertFails(
            lambda: self.check(self.replaced(name, M * 2, self.small_rep),
                               self.small, self.small_rep), name)

    def test_not_a_reflection(self):
        F = CycloField(3)
        w, one, z = F.zeta(1), F.one(), F.zero()
        M = Matrix.from_rows(F, [[w, z, z], [z, w, z], [z, z, one]])
        self.assertFails(lambda: self.check(self.replaced("A3_4", M)),
                         "not a complex reflection")

    def test_wrong_determinant(self):
        F = CycloField(3)
        M = Matrix.identity(F, 3)
        M = _with_entry(M, 0, 0, F.zeta(1))
        self.assertFails(lambda: self.check(self.replaced("A3_4", M)),
                         "det M is not g_3 g_4")

    def test_form_not_preserved(self):
        F = CycloField(3)
        M = _with_entry(Matrix.identity(F, 3), 0, 0, F.zeta(2))
        M = _with_entry(M, 0, 1, F.one())
        self.assertFails(lambda: self.check(self.replaced("A3_4", M)),
                         "does not preserve the Hermitian Gram")

    def test_golden_matrices(self):
        imgs = dict(self.rep.images)
        swapped = [(n, imgs["A2_4"] if n == "A3_4" else
                    imgs["A3_4"] if n == "A2_4" else m)
                   for n, m in self.rep.images]
        self.assertFails(lambda: self.check(swapped), "published")


class CliChecks(CheckCase):
    @classmethod
    def setUpClass(cls):
        ops, _ = _build("cli-files", 3)
        cls.out = {}
        for op in ops:
            c = op.check.args[0]
            if c["file"] in ("picard", None, "sl2-0"):
                out = op.run()
                op.check(out)   # real output passes; fills the round state
                cls.out[(c["file"], op.label.split(" ")[0], c["json"],
                         c["explicit"])] = (op, out)

    def feed(self, key, text=None, code=0):
        op, (_, real) = self.out[key]
        op.check((code, real if text is None else text))

    def test_nonzero_exit(self):
        self.assertFails(lambda: self.feed(("picard", "gram", True, False),
                                           code=4), "exited 4")

    def test_json_must_parse(self):
        self.assertFails(lambda: self.feed(("picard", "verify", True, False),
                                           text="{not json"), "does not parse")

    def test_picard_fail_line(self):
        real = self.out[(None, "picard", False, False)][1][1]
        bad = real.replace("PASS matrix gamma2", "FAIL matrix gamma2")
        self.assertFails(lambda: self.feed((None, "picard", False, False),
                                           bad), "golden checks")
        doc = json.loads(self.out[(None, "picard", True, False)][1][1])
        doc["ok"] = False
        self.assertFails(lambda: self.feed((None, "picard", True, False),
                                           json.dumps(doc)), "ok = False")

    def test_verify_must_pass(self):
        real = self.out[("picard", "verify", False, False)][1][1]
        bad = real.replace("PASS braid relations", "FAIL braid relations")
        self.assertFails(lambda: self.feed(("picard", "verify", False, False),
                                           bad), "verify checks")
        bad = real.replace("all checks passed", "")
        self.assertFails(lambda: self.feed(("picard", "verify", False, False),
                                           bad), "last line")

    def test_dimensions(self):
        doc = json.loads(self.out[("picard", "w-basis", True, False)][1][1])
        doc["dim_E"] += 1
        self.assertFails(lambda: self.feed(("picard", "w-basis", True, False),
                                           json.dumps(doc)), "dim_W")

    def test_gram_entry_changed(self):
        key = ("picard", "gram", True, False)
        doc = json.loads(self.out[key][1][1])
        doc["gram"][0][1] = "1"
        self.assertFails(lambda: self.feed(key, json.dumps(doc)),
                         "not conj(G)^T")
        key = ("sl2-0", "gram", False, False)
        lines = self.out[key][1][1].splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("  ["))
        parts = lines[row].strip()[1:-1].split(", ")
        parts[1] = "12345"
        lines[row] = "  [" + ", ".join(parts) + "]"
        self.assertFails(lambda: self.feed(key, "\n".join(lines)),
                         "bilinear-symmetric")

    def test_swapped_signature(self):
        key = ("picard", "gram", True, False)
        doc = json.loads(self.out[key][1][1])
        doc["signature"] = doc["signature"][::-1]
        self.assertFails(lambda: self.feed(key, json.dumps(doc)), "predicted")
        key = ("picard", "gram", False, False)
        text = "\n".join(
            "signature: (2, 1)" if line == "signature: (1, 2)" else line
            for line in self.out[key][1][1].splitlines())
        self.assertFails(lambda: self.feed(key, text), "predicted")

    def test_scaled_monodromy_image(self):
        field = CycloField(3)
        for key in (("picard", "monodromy", True, True),
                    ("picard", "monodromy", True, False),
                    ("sl2-0", "monodromy", True, False)):
            doc = json.loads(self.out[key][1][1])
            first = doc["matrices"][0]
            first["matrix"] = [[format_element(parse_element(x, field) * 2)
                                for x in row] for row in first["matrix"]]
            with self.subTest(key=key):
                self.assertFails(lambda: self.feed(key, json.dumps(doc)),
                                 first["name"])


class FailedOperations(unittest.TestCase):
    """An operation that raises makes the run incorrect and exit 1."""

    def ops(self):
        def boom():
            raise AssertionError("corrupted operation")
        return [workloads.Op("fine", lambda: 1, lambda out: None),
                workloads.Op("raises", boom, lambda out: None)]

    def test_run_counts_the_failure(self):
        r = run.Run().until(self.ops(), 0)
        self.assertEqual((r.attempted, r.failed, r.wrong), (2, 1, 0))
        self.assertFalse(r.correct)
        self.assertEqual(len(r.samples), 1)

    def test_main_reports_incorrect_and_exits_1(self):
        out = io.StringIO()
        with mock.patch.object(workloads, "build",
                               lambda *a: self.ops()), \
                mock.patch.object(run, "SETUP_CHILDREN", 0), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "gram-signature", "--seed", "0",
                             "--seconds", "0", "--trace", "0"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))


class ReferenceSeconds(unittest.TestCase):
    """A wall time is scaled by the kernel runs made just after it."""

    def test_scaled_by_the_mean_of_the_kernel_runs(self):
        times = iter([0.002, 0.006, 0.004])
        with mock.patch.object(run, "kernel_seconds", lambda: next(times)):
            ref = run.to_reference(1.0, 0.01)
        # the kernel ran until its runs took 0.01 s: three runs, mean 0.004
        self.assertAlmostEqual(ref, run.KERNEL_REF_S / 0.004)

    def test_kernel_runs_at_least_once(self):
        with mock.patch.object(run, "kernel_seconds", lambda: 0.008):
            ref = run.to_reference(0.5, 0.0)
        self.assertAlmostEqual(ref, 0.5 * run.KERNEL_REF_S / 0.008)

    def test_kernel_restores_the_collector(self):
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                run.kernel_seconds()
                self.assertEqual(gc.isenabled(), enabled)
            finally:
                gc.enable()


class TracerCounts(unittest.TestCase):
    def test_cross_module_calls_are_counted_and_repeat(self):
        from parcoh import cli, tuples
        original = tuples.w_space
        path = os.path.join(run.ROOT, "problems", "picard.json")
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                self.assertIs(cli.w_space, tuples.w_space)
                self.assertIsNot(tuples.w_space, original)
                tracer.active = True
                workloads._cli_call(["verify", path])
                tracer.active = False
            finally:
                tracer.uninstall()
            counts.append({k: c for k, (c, _, _) in tracer.stats.items()
                           if c})
        self.assertIs(tuples.w_space, original)
        self.assertEqual(counts[0], counts[1])
        # verify builds W once itself and again inside gram_on_W and
        # monodromy_generators
        self.assertEqual(counts[0]["tuples.w_space"], 3)
        self.assertEqual(counts[0]["cli.main"], 1)


if __name__ == "__main__":
    os.makedirs(run.RESULTS, exist_ok=True)
    SCRATCH = tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS)
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
