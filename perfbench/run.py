"""Run one benchmark workload of parcoh and print its metrics.

    python3 perfbench/run.py --workload gram-signature --seed 1 \\
        --seconds 25 --trace 0

Each invocation is one fresh Python process running one workload, built
from the sources under src/ of the checkout this file sits in.  Inputs
are generated from --seed.  Operations are in-process calls into parcoh
(parcoh.cli.main for cli-files), timed one by one with perf_counter and
run in whole rounds of the same operations on the same inputs until
--seconds of operation time have passed.  Every output is checked
(checks.py).

Times are reported in reference seconds: a wall time w becomes
w * KERNEL_REF_S / k, where k is the mean wall time of a fixed
calibration kernel run over and over just after it in the same
process, for KERNEL_SHARE of an operation's wall time or SETUP_KERNEL_S
after a set-up.  At the speed at which the kernel takes KERNEL_REF_S a
reference second is a wall second; when the host slows every
instruction by a common factor, the factor cancels.  The result file
keeps the wall-clock figures too.

--trace 0 prints the end-to-end metrics: setup_s (the median of five
set-ups: this process and four fresh child processes), ops_per_s,
op_s.p50 and peak_rss_mb.  --trace 1 runs the round untraced twice (to
warm caches, then as the reference), then traces it through
tracing.Tracer until --seconds, and prints the per-layer metrics per
operation with the tracing overhead per operation.

The last line of stdout is one JSON object with correct, attempted,
failed and metrics.  correct is false, and the exit code 1, when any
operation raised or gave a wrong output.  A fuller record (seed, Python,
platform, nproc, per-function trace) goes to perfbench/results/.
"""

import time

T0 = time.perf_counter()   # set-up is timed from here, before parcoh loads

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("gram-signature", "monodromy-pure-braids", "cli-files")
# one set-up alone spread by up to 37 % over ten runs, the median of five
# by up to 24 % (README)
SETUP_CHILDREN = 4
# cli-files runs at least this many operations, so that ten samples lie
# beyond its 90th percentile
MIN_OPS = {"cli-files": 100}
# stop starting rounds this many seconds after the process started, so
# that a run (a traced one makes three passes) ends well inside 180 s
WALL_LIMIT_S = 120.0
# The shared host the bounds were set on runs every instruction up to 1.5
# times slower for seconds to minutes at a time, which moved wall-clock
# medians of whole runs by as much (README); times are scaled by this
# kernel.  KERNEL_REF_S is about its median wall time on that host.
KERNEL_REF_S = 0.004
KERNEL_A = tuple(Fraction(k + 1, 2 * k + 3) for k in range(16))
KERNEL_B = tuple(Fraction(3 * k - 1, k + 5) for k in range(16))
# after each operation the kernel runs for this share of its wall time,
# after set-up for SETUP_KERNEL_S
KERNEL_SHARE = 0.1
SETUP_KERNEL_S = 0.1

# per-layer metric -> (field, trace keys); a key ending in "." takes every
# traced function of that layer
PER_LAYER = {
    "cyclo.mul.calls": ("calls", ("cyclo.CycloElem.__mul__",)),
    "cyclo.inverse.calls": ("calls", ("cyclo.CycloElem.inverse",)),
    "cyclo.arith.self_s": ("self_s", tuple(
        "cyclo.CycloElem." + m for m in (
            "__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
            "__truediv__", "__rtruediv__", "__pow__", "inverse",
            "conjugate", "coerce"))),
    "cyclo.sign.calls": ("calls", ("cyclo.CycloElem.sign",)),
    "cyclo.sign.self_s": ("self_s", ("cyclo.CycloElem.sign",)),
    "cyclo.parse_element.calls": ("calls", ("cyclo.parse_element",)),
    "cyclo.format_element.calls": ("calls", ("cyclo.format_element",)),
    "linalg.solve_row.calls": ("calls", ("linalg.solve_row",)),
    "linalg.solve_row.self_s": ("self_s", ("linalg.solve_row",)),
    "linalg.matmul.calls": ("calls", ("linalg.Matrix.__mul__",)),
    "linalg.matmul.self_s": ("self_s", ("linalg.Matrix.__mul__",)),
    "linalg.inverse.calls": ("calls", ("linalg.Matrix.inverse",)),
    "linalg.inverse.self_s": ("self_s", ("linalg.Matrix.inverse",)),
    "linalg.subspace_from_rows.calls": ("calls",
                                        ("linalg.Subspace.from_rows",)),
    "linalg.subspace_from_rows.self_s": ("self_s",
                                         ("linalg.Subspace.from_rows",)),
    "linalg.quotient_chart.self_s": ("self_s", ("linalg.quotient_chart",)),
    "linalg.kernel_left.calls": ("calls", ("linalg.kernel_left",)),
    "linalg.vec_mat.calls": ("calls", ("linalg.vec_mat",)),
    "tuples.h_space.calls": ("calls", ("tuples.h_space",)),
    "tuples.h_space.self_s": ("self_s", ("tuples.h_space",)),
    "tuples.w_space.calls": ("calls", ("tuples.w_space",)),
    "tuples.w_space.self_s": ("self_s", ("tuples.w_space",)),
    "tuples.e_space.calls": ("calls", ("tuples.e_space",)),
    "tuples.dual_tuple.calls": ("calls", ("tuples.dual_tuple",)),
    "braid.phi_on_H.calls": ("calls", ("braid.phi_on_H",)),
    "braid.phi_on_H.self_s": ("self_s", ("braid.phi_on_H",)),
    "braid.act_on_tuple.calls": ("calls", ("braid.act_on_tuple",)),
    "braid.induced_on_W.self_s": ("self_s", ("braid.induced_on_W",)),
    "braid.psi.self_s": ("self_s", ("braid.psi",)),
    "monodromy.monodromy_generators.self_s": (
        "self_s", ("monodromy.monodromy_generators",)),
    "monodromy.check_compatibility.self_s": (
        "self_s", ("monodromy.check_compatibility",)),
    "duality.cup_pairing.calls": ("calls", ("duality.cup_pairing",)),
    "duality.cup_pairing.self_s": ("self_s", ("duality.cup_pairing",)),
    "duality.lift_parabolic.calls": ("calls", ("duality.lift_parabolic",)),
    "duality.gram_on_W.self_s": ("self_s", ("duality.gram_on_W",)),
    "duality.signature.self_s": ("self_s", ("duality.signature",)),
    "duality.predicted_signature.self_s": (
        "self_s", ("duality.predicted_signature",)),
    "problem.load_problem.self_s": ("self_s", ("problem.load_problem",)),
    # argparse, formatting and printing: every traced cli function, net of
    # the other layers it calls
    "cli.main.self_s": ("self_s", ("cli.",)),
    "picard.golden_report.self_s": ("self_s", ("picard.golden_report",)),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process that only sets up and reports setup_s
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_parcoh():
    """Put the checkout's src/ first on sys.path; never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "parcoh", "__init__.py")):
        raise SystemExit("error: no parcoh sources at %s" % src)
    sys.path.insert(0, src)
    import parcoh
    if not os.path.abspath(parcoh.__file__).startswith(src + os.sep):
        raise SystemExit("error: parcoh imported from %s" % parcoh.__file__)


def kernel_seconds():
    """Wall seconds of one run of the calibration kernel.

    A dense product of two Fraction polynomials, the arithmetic parcoh's
    field layer does, three times over.  The collector is off while it
    runs, so collections of parcoh's objects never land in it.
    """
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    for _ in range(3):
        c = [Fraction(0)] * (len(KERNEL_A) + len(KERNEL_B) - 1)
        for i, x in enumerate(KERNEL_A):
            for j, y in enumerate(KERNEL_B):
                c[i + j] += x * y
    dt = time.perf_counter() - t
    if enabled:
        gc.enable()
    return dt


def to_reference(wall_s, seconds):
    """wall_s in reference seconds, by kernel runs for seconds (at least
    one) made just after it."""
    runs = [kernel_seconds()]
    while sum(runs) < seconds:
        runs.append(kernel_seconds())
    return wall_s * KERNEL_REF_S / statistics.fmean(runs)


class Run:
    """Counts and samples of one run of rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0        # operations that raised
        self.wrong = 0         # completed operations failing a check
        self.samples = []      # reference seconds of each completed op
        self.walls = []        # wall seconds of each completed operation
        self.labels = []
        self.busy = 0.0        # wall seconds of all attempted operations
        self.ref_busy = 0.0    # reference seconds of all attempted ops
        self.problems = []

    def round(self, ops, tracer=None):
        for op in ops:
            self.attempted += 1
            out, dt, error = _timed(op, tracer)
            ref = to_reference(dt, dt * KERNEL_SHARE)
            self.busy += dt
            self.ref_busy += ref
            if error is not None:
                self.failed += 1
                self.problems.append("%s: failed\n%s" % (op.label, error))
                continue
            self.samples.append(ref)
            self.walls.append(dt)
            self.labels.append(op.label)
            try:
                op.check(out)
            except Exception as e:
                self.wrong += 1
                self.problems.append("%s: wrong output: %s: %s"
                                     % (op.label, type(e).__name__, e))

    def until(self, ops, seconds, min_ops=1, tracer=None):
        """Whole rounds of ops until seconds of operation time."""
        while True:
            self.round(ops, tracer)
            if self.busy >= seconds and self.attempted >= min_ops:
                break
            if time.perf_counter() - T0 > WALL_LIMIT_S:
                break
        return self

    @property
    def correct(self):
        return self.failed == 0 and self.wrong == 0


def _timed(op, tracer):
    """(output, wall seconds, traceback text or None) of one operation."""
    if tracer is not None:
        tracer.active = True
    t = time.perf_counter()
    try:
        return op.run(), time.perf_counter() - t, None
    except Exception:
        return None, time.perf_counter() - t, traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.active = False


def child_setup_seconds(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    ref, wall = proc.stdout.split()[-2:]
    return float(ref), float(wall)


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tracer, ops_count):
    out = {}
    for name, (field, keys) in PER_LAYER.items():
        total = 0
        for key, (calls, self_s, _) in tracer.stats.items():
            if any(key == k or (k.endswith(".") and key.startswith(k))
                   for k in keys):
                total += calls if field == "calls" else self_s
        out[name] = metric(total / ops_count,
                           "calls/op" if field == "calls" else "s/op")
    return out


def main(argv=None):
    args = parse_args(argv)
    load_parcoh()
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=RESULTS)
    try:
        ops = workloads.build(args.workload, args.seed, ROOT, workdir)
        ops[0].run()   # the untimed warm-up operation
        setup_wall = time.perf_counter() - T0
        setup_s = to_reference(setup_wall, SETUP_KERNEL_S)
        if args.setup_only:
            print(setup_s, setup_wall)
            return 0
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "python": platform.python_version(),
                  "platform": platform.platform(), "nproc": os.cpu_count(),
                  "ops_per_round": len(ops)}
        if args.trace:
            metrics, run = traced_run(ops, args, record)
        else:
            setups = [(setup_s, setup_wall)] + [
                child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]
            run = Run().until(ops, args.seconds,
                              MIN_OPS.get(args.workload, 1))
            samples = run.samples or [float("nan")]
            metrics = {
                "setup_s": metric(statistics.median(
                    ref for ref, _ in setups), "s"),
                "ops_per_s": metric(len(run.samples) / run.ref_busy,
                                    "ops/s"),
                "op_s.p50": metric(statistics.median(samples), "s"),
                "peak_rss_mb": metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    / 1024.0, "MB"),
            }
            record["setups_s"] = [ref for ref, _ in setups]
            record["wall"] = {
                "setup_s": statistics.median(wall for _, wall in setups),
                "ops_per_s": len(run.walls) / run.busy,
                "op_s.p50": statistics.median(run.walls or [float("nan")])}
            record["ops"] = list(zip(run.labels, run.samples, run.walls))
            if len(samples) >= 100:
                record["op_s.p90"] = statistics.quantiles(samples, n=10)[-1]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record.update(result, wrong=run.wrong, problems=run.problems)
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for p in run.problems:
        print(p, file=sys.stderr)
    print(json.dumps(result))
    return 0 if run.correct else 1


def traced_run(ops, args, record):
    """The round untraced twice, then traced until --seconds; per-op metrics.

    The first untraced pass only warms lazily filled caches (field
    powers); the second is the reference for the overhead.  Every round
    is the same, so the per-operation counts are exact for a seed.
    """
    from tracing import Tracer

    warm = Run().until(ops, 0)
    plain = Run().until(ops, 0)
    tracer = Tracer()
    tracer.install()
    traced = Run().until(ops, args.seconds, tracer=tracer)
    metrics = per_layer_metrics(tracer, traced.attempted)
    overhead = (traced.ref_busy / traced.attempted
                - plain.ref_busy / plain.attempted)
    metrics["trace.overhead_s"] = metric(overhead, "s/op")
    record["untraced_s_per_op"] = plain.ref_busy / plain.attempted
    record["traced_s_per_op"] = traced.ref_busy / traced.attempted
    record["traced_rounds"] = traced.attempted // len(ops)
    record["trace_stats"] = {k: {"calls": c, "self_s": s, "inclusive_s": t}
                             for k, (c, s, t) in sorted(tracer.stats.items())
                             if c}
    combined = Run()
    for part in (warm, plain, traced):
        combined.attempted += part.attempted
        combined.failed += part.failed
        combined.wrong += part.wrong
        combined.problems += part.problems
    return metrics, combined


if __name__ == "__main__":
    sys.exit(main())
