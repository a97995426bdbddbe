"""depscale benchmark: end-to-end CLI timings and a per-module traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run it from the repository root.  The package is imported from ``src`` as in
the tier-1 tests, because the console script is not installed.

Every workload is a closed loop with one client: one ``python -m
depscale.cli`` subprocess at a time, the next started once the previous one
has been reaped.  An op is one workload invocation (``audit-256`` runs
``oracle`` then ``transforms``); the loop cycles through the run's inputs
until ``--seconds`` have passed.  Inputs come from ``--seed`` and are
written before any timing starts; each report is checked against reference
values computed at the same time.  A failed op (nonzero exit, any stderr,
unparsable JSON or a wrong value) counts against ``success_rate`` and is left
out of every timing.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced op with a traced run of the same op (``traced.py spans``), then
runs ``traced.py counts`` once, and prints the per-layer metrics; a layer the
workload never calls reports 0.  A metric with no correct sample to take it
from is ``null``, so that a broken run never reads as a fast one.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable log, including
the environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import workloads
from traced import NESTED, SPAN_NAMES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"

#: Timed ``compute`` runs on the README's 2x2 table for ``setup_s``.
SETUP_RUNS = 6

#: Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

IO_SPANS = ("io.load_samples_csv_s", "io.load_joint_csv_s", "io.load_covariance_csv_s")


@dataclass
class Sample:
    """One measured invocation (or op): child wall, CPU and peak RSS."""

    wall: float
    cpu: float
    rss_mib: float
    error: str | None = None


class Bench:
    """Spawns and times child processes for one benchmark run."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def spawn(self, argv: list[str]) -> tuple[bytes, bytes, int, Sample]:
        """Run ``argv``; time it from spawn until stdout is drained and the
        child is reaped, with its CPU time and peak RSS from ``wait4``."""
        with tempfile.TemporaryFile(dir=self.workdir) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=ROOT)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            wall = time.perf_counter() - start
            err.seek(0)
            errtext = err.read()
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        return out, errtext, proc.returncode, sample

    def step(self, step: workloads.Step,
             tamper: Callable[[bytes], bytes] | None = None) -> Sample:
        out, err, rc, sample = self.spawn([sys.executable, "-m", "depscale.cli", *step.argv()])
        if tamper is not None:
            out = tamper(out)
        sample.error = report_error(step, rc, out, err)
        return sample

    def op(self, op: workloads.Op,
           tamper: Callable[[bytes], bytes] | None = None) -> Sample:
        return combine([self.step(s, tamper) for s in op])

    def traced(self, mode: str, steps: list[workloads.Step]) -> tuple[dict | None, Sample]:
        """Run ``traced.py`` on ``steps`` in one child; its result and sample."""
        plan = Path(tempfile.mkstemp(suffix=".json", dir=self.workdir)[1])
        plan.write_text(json.dumps([s.spec() for s in steps]))
        out_path = plan.with_suffix(".out.json")
        _, err, rc, sample = self.spawn([sys.executable, str(TRACED), mode, str(plan), str(out_path)])
        if rc != 0 or err:
            sample.error = f"traced {mode} failed: exit {rc}, {err[-300:].decode(errors='replace')}"
            return None, sample
        return json.loads(out_path.read_text()), sample

    def traced_op(self, op: workloads.Op) -> tuple[dict | None, Sample]:
        """Run ``op`` with spans, one fresh interpreter per step as the
        untraced op has, and check its reports; spans, ``cli.main`` time,
        ACE sweeps and noise-curve points are summed over the steps."""
        merged: dict = {"spans": {}, "imports": [], "main_s": 0.0, "sweeps": 0, "points": 0}
        parts = []
        for step in op:
            result, sample = self.traced("spans", [step])
            parts.append(sample)
            if result is None:
                return None, combine(parts)
            run = result["runs"][0]
            sample.error = report_error(step, run["rc"], run["stdout"], run["stderr"])
            if sample.error:
                return None, combine(parts)
            for name, seconds in result["spans"].items():
                merged["spans"][name] = merged["spans"].get(name, 0.0) + seconds
            merged["imports"].append(result["import_s"])
            merged["main_s"] += result["main_s"]
            report = json.loads(run["stdout"])
            if step.cmd == "transforms":
                merged["sweeps"] += report["pairs"][0]["sweeps"]
            if step.cmd == "gaussian":
                merged["points"] += len(report["noise_curve"]["lambda"])
        return merged, combine(parts)


def combine(parts: list[Sample]) -> Sample:
    """One op from its steps: summed wall and CPU, the largest peak RSS."""
    return Sample(
        wall=sum(p.wall for p in parts),
        cpu=sum(p.cpu for p in parts),
        rss_mib=max(p.rss_mib for p in parts),
        error=next((p.error for p in parts if p.error), None),
    )


def report_error(step: workloads.Step, rc: int, out: bytes | str, err: bytes | str) -> str | None:
    """Why a step's result is wrong, or None when it is correct."""
    if rc != 0:
        return f"{step.cmd}: exit {rc}: {err[:300]!r}"
    if err:
        return f"{step.cmd}: wrote to stderr: {err[:300]!r}"
    try:
        report = json.loads(out)
        reason = step.check(report)
    except ValueError:
        return f"{step.cmd}: stdout is not one JSON report"
    except (KeyError, TypeError, IndexError) as exc:
        return f"{step.cmd}: malformed report ({exc!r})"
    return f"{step.cmd}: {reason}" if reason else None


def median(values, empty: float | None = None) -> float | None:
    values = list(values)
    return statistics.median(values) if values else empty


def timing_summary(name: str, values: list[float]) -> str:
    """Median, op count and the highest percentile with 10 samples beyond it."""
    v = sorted(values)
    if not v:
        return f"{name}: n=0"
    line = f"{name}: n={len(v)} median={median(v):.4f}"
    if len(v) > 10:
        pct = 100.0 * (len(v) - 10) / len(v)
        line += f" p{pct:.0f}={v[len(v) - 11]:.4f}"
    else:
        line += " (no tail percentile: fewer than 11 ops)"
    return line


def cycle(ops: list[workloads.Op], seconds: float):
    """Yield ``ops`` round-robin until ``seconds`` have passed: at least one
    op, and the op under way when time runs out is finished."""
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        yield ops[i % len(ops)]
        i += 1


def e2e_metrics(samples: list[Sample], setup: list[Sample]) -> dict:
    """The end-to-end metrics; failed ops count against success_rate only,
    and a time with no correct op to take it from is None."""
    good = [s for s in samples if s.error is None]
    return {
        "wall_s": median(s.wall for s in good),
        "cpu_s": median(s.cpu for s in good),
        "peak_rss_mb": median(s.rss_mib for s in good),
        "setup_s": median(s.wall for s in setup if s.error is None),
        "success_rate": len(good) / len(samples),
    }


def end_to_end(bench: Bench, ops: list[workloads.Op], seconds: float,
               setup: list[Sample]) -> tuple[dict, list[Sample]]:
    samples = [bench.op(op) for op in cycle(ops, seconds)]
    print(timing_summary("wall_s", [s.wall for s in samples if s.error is None]))
    return e2e_metrics(samples, setup), samples


@dataclass
class TracedPair:
    """An untraced op and the traced run of the same op that followed it."""

    untraced: Sample
    traced: Sample
    spans: dict
    input_mb: float


def per_layer(bench: Bench, ops: list[workloads.Op], seconds: float) -> tuple[dict, list[Sample]]:
    samples: list[Sample] = []
    pairs: list[TracedPair] = []
    for op in cycle(ops, seconds):
        untraced = bench.op(op)
        result, traced = bench.traced_op(op)
        samples += [untraced, traced]
        if result is None or untraced.error is not None:
            if not pairs:
                break
            continue
        input_mb = sum(Path(s.path).stat().st_size for s in op) / 1e6
        pairs.append(TracedPair(untraced, traced, result, input_mb))
    counts, count_sample = bench.traced("counts", ops[0])
    samples.append(count_sample)

    m = dict.fromkeys(PER_LAYER)
    if counts is not None:
        count_sample.error = count_metrics(m, counts, ops[0])
    if pairs:
        span_metrics(m, pairs)
    return m, samples


def count_metrics(m: dict, counts: dict, op: workloads.Op) -> str | None:
    """Fill the exact counts from ``traced.py counts``; check its reports."""
    errors = [report_error(step, run["rc"], run["stdout"], run["stderr"])
              for step, run in zip(op, counts["runs"])]
    m["cli.report_bytes"] = sum(len(r["stdout"].encode()) for r in counts["runs"])
    m["spectral.svd_calls"] = counts["svd_calls"]
    m["spectral.svd_cells"] = counts["svd_cells"]
    m["spectral.oracle_decomp_calls"] = counts["oracle_decomp_calls"]
    if not any(errors):
        m["ace.sweeps"] = sum(json.loads(r["stdout"])["pairs"][0]["sweeps"]
                              for step, r in zip(op, counts["runs"]) if step.cmd == "transforms")
    audit = counts["audit"]
    for a in audit:
        print("oracle audit:", json.dumps(a))
    m["spectral.oracle_mismatches"] = sum(1 for a in audit if a.get("mismatch", True))
    m["spectral.oracle_max_rel_err"] = max((a["rel_err"] for a in audit if "rel_err" in a),
                                           default=0.0)
    return next((f"in-process {e}" for e in errors if e), None)


def span_metrics(m: dict, pairs: list[TracedPair]) -> None:
    """Fill the span medians, rates, tracing overhead and coverage."""
    def med(f) -> float:
        return median(f(p) for p in pairs)

    for name in SPAN_NAMES:
        m[name] = med(lambda p: p.spans["spans"].get(name, 0.0))
    m["cli.main_s"] = med(lambda p: p.spans["main_s"])
    m["cli.import_s"] = median(t for p in pairs for t in p.spans["imports"])
    m["io.input_mb"] = med(lambda p: p.input_mb)
    m["io.parse_mb_per_s"] = med(
        lambda p: p.input_mb / sum(p.spans["spans"].get(n, 0.0) for n in IO_SPANS))
    m["ace.sweep_ms"] = median((1e3 * p.spans["spans"]["ace.ace_subspace_s"] / p.spans["sweeps"]
                                for p in pairs if p.spans["sweeps"]), empty=0.0)
    m["gaussian.points_per_s"] = median((p.spans["points"] / p.spans["spans"]["gaussian.noise_curve_s"]
                                         for p in pairs if p.spans["points"]), empty=0.0)
    m["trace.overhead_s"] = med(lambda p: p.traced.wall - p.untraced.wall)

    def spanned(p: TracedPair) -> float:
        return sum(v for n, v in p.spans["spans"].items() if n not in NESTED)

    def covered(p: TracedPair) -> float:
        return sum(p.spans["imports"]) + spanned(p)

    # Spans and wall time of the same traced op, so host drift between the
    # two ops of a pair cannot push coverage past 1.
    m["trace.coverage"] = med(lambda p: covered(p) / p.traced.wall)
    print(timing_summary("untraced wall_s", [p.untraced.wall for p in pairs]))
    print(timing_summary("traced wall_s", [p.traced.wall for p in pairs]))
    wall = med(lambda p: p.traced.wall)
    in_main = med(lambda p: p.spans["main_s"] - spanned(p))
    print(f"trace.coverage {m['trace.coverage']:.3f}: of {wall:.4f} s per traced op, "
          f"{wall - med(covered):.4f} s is unspanned; argument parsing and report "
          f"output inside cli.main take about {in_main:.4f} s of it, interpreter "
          "start-up, spawn and exit the rest")
    if m["trace.coverage"] < 0.8:
        print("trace.coverage is below 0.8: the unspanned steps named above take "
              "more than a fifth of an op")


def stamp() -> dict:
    """Environment of the run, recorded and never changed."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items()
                       if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def git_commit() -> str:
    """HEAD of the checkout, with ``-dirty`` when its files differ from it."""
    # The ceiling keeps git from taking a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> str:
        return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *args],
                              capture_output=True, text=True, env=env, check=True,
                              timeout=60).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def blas_threads(numpy) -> int | None:
    """Thread count of numpy's bundled OpenBLAS, read through its C API."""
    import ctypes

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def result_line(correct: bool, samples: list[Sample], values: dict, units: dict) -> str:
    failed = sum(1 for s in samples if s.error)
    return json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    })


def new_workdir(prefix: str) -> Path:
    """A fresh directory for one run's inputs and scratch files."""
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=work_root))


def measure(args: argparse.Namespace) -> int:
    workdir = new_workdir(f"{args.workload}-{args.seed}-")
    try:
        print("env", json.dumps(stamp()))
        bench = Bench(workdir)
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_step = workloads.setup_op(workdir)
        warmup = bench.op(setup_step)  # the first start in a checkout compiles bytecode
        setup = [bench.op(setup_step) for _ in range(SETUP_RUNS)]
        print(timing_summary("setup_s", [s.wall for s in setup]))
        if args.trace:
            values, samples = per_layer(bench, ops, args.seconds)
            units = PER_LAYER
        else:
            values, samples = end_to_end(bench, ops, args.seconds, setup)
            units = END_TO_END
        errors = [s.error for s in [warmup, *setup, *samples] if s.error]
        for reason in dict.fromkeys(errors):
            print("FAILED", reason)
        print(result_line(not errors, samples, values, units))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def perturb_sigma(out: bytes) -> bytes:
    report = json.loads(out)
    report["sigma"][0] += 1e-6
    return json.dumps(report).encode() + b"\n"


def selfcheck() -> int:
    """Every workload path at smoke size, its traced run, and a tampered report."""
    workdir = new_workdir("selfcheck-")
    problems = []
    try:
        for name in workloads.SIZES:
            sub = workdir / name
            sub.mkdir()
            bench = Bench(sub)
            ops = workloads.build(name, 0, sub, smoke=True)
            values, samples = end_to_end(bench, ops, 0.0, [bench.op(workloads.setup_op(sub))])
            layers, traced = per_layer(bench, ops, 0.0)
            bad = [s.error for s in samples + traced if s.error]
            print(f"{name}: wall_s={values['wall_s']} coverage={layers['trace.coverage']} "
                  f"svd_calls={layers['spectral.svd_calls']} failures={len(bad)}")
            problems += [f"{name}: {e}" for e in bad]

        bench = Bench(workdir)
        setup_step = workloads.setup_op(workdir)
        good, bad = bench.op(setup_step), bench.op(setup_step, tamper=perturb_sigma)
        metrics = e2e_metrics([good, bad], [good])
        print(f"tampered report: {bad.error}")
        if good.error or bad.error is None:
            problems.append("tampered sigma was not caught")
        if (metrics["success_rate"], metrics["wall_s"]) != (0.5, good.wall):
            problems.append(f"tampered op was timed or not counted: {metrics}")
        metrics = e2e_metrics([bad], [good])
        if [metrics[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")] != [None] * 3:
            problems.append(f"a run with no correct op reported times: {metrics}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems:
        print("SELFCHECK FAILED", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="smoke-test every workload and the failure accounting")
    args = parser.parse_args()
    if not (SRC / "depscale" / "cli.py").is_file():
        print(f"depscale sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
