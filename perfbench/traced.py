"""Traced run of one benchmark op in a fresh interpreter.

    python3 perfbench/traced.py spans PLAN.json OUT.json
    python3 perfbench/traced.py counts PLAN.json OUT.json

PLAN.json lists the steps of one op (``workloads.Step.spec``); the package
must be importable, as ``run.py`` arranges with ``PYTHONPATH``.

Both modes time ``import depscale.cli``, then run ``depscale.cli.main`` in
process on each step with stdout and stderr captured, and write one JSON
object to OUT.json: the captured reports, the seconds in ``cli.main``, and
what the mode measured.

``spans`` wraps the library functions under the names ``depscale.cli``
looks them up by, and records the seconds spent in each; a function the CLI
stops calling gets no span.  ``joints.make_joint`` and
``estimate.bin_column`` run inside other calls, so they are timed through
wrappers on the module attribute their caller looks up; their spans are
nested and are not added to coverage.

``counts`` wraps numpy's decomposition routines, so it counts SVD calls and
any decomposition made inside ``gram_det_oracle``.  For oracle steps it then
audits the oracle against the spectral route for m = 0..3.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from io import StringIO

#: Library functions ``depscale.cli`` calls, by the name it looks them up
#: under, and the span each call is timed into.
CLI_SPANS = {
    "load_joint_csv": "io.load_joint_csv_s",
    "load_samples_csv": "io.load_samples_csv_s",
    "load_covariance_csv": "io.load_covariance_csv_s",
    "empirical_joint_grouped": "estimate.empirical_joint_grouped_s",
    "profile_of_joint": "estimate.profile_of_joint_s",
    "singular_spectrum": "spectral.singular_spectrum_s",
    "dependence_scale": "spectral.dependence_scale_s",
    "check_completeness": "structure.check_completeness_s",
    "gram_det_oracle": "spectral.gram_det_oracle_s",
    "ace_subspace": "ace.ace_subspace_s",
    "noise_curve": "gaussian.noise_curve_s",
}

#: Spans that run inside another span; coverage counts only the outer ones.
NESTED = ("joints.make_joint_s", "estimate.bin_column_s")

SPAN_NAMES = (*CLI_SPANS.values(), *NESTED)

#: Oracle orders audited against the spectral route.
AUDIT_ORDERS = range(4)

#: An audited oracle value is a mismatch beyond the README's 1e-6 absolute
#: contract or beyond this error relative to the spectral value.
AUDIT_REL_TOL = 1e-3

DECOMPOSITIONS = ("svd", "eig", "eigh", "eigvals", "eigvalsh")


class Spans:
    """Seconds per span name, summed over the calls of one op."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)

    @contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start

    def wrap(self, module, attr: str, name: str) -> None:
        """Time every call made through ``module.attr``."""
        fn = getattr(module, attr)

        def timed(*args, **kwargs):
            with self(name):
                return fn(*args, **kwargs)

        setattr(module, attr, timed)


def run_cli(steps: list[dict]) -> dict:
    """``cli.main`` on each step in process, its output captured."""
    from depscale import cli

    runs = []
    main_s = 0.0
    for step in steps:
        out, err = StringIO(), StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(step["argv"])
        main_s += time.perf_counter() - start
        runs.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()})
    return {"main_s": main_s, "runs": runs}


def spans(steps: list[dict]) -> dict:
    from depscale import cli, estimate, io

    sp = Spans()
    for attr, name in CLI_SPANS.items():
        sp.wrap(cli, attr, name)
    sp.wrap(io, "make_joint", "joints.make_joint_s")
    # bin_column recurses only on a column it cannot split; none here does.
    sp.wrap(estimate, "bin_column", "estimate.bin_column_s")
    return dict(run_cli(steps), spans=dict(sp.seconds))


def count(steps: list[dict]) -> dict:
    import numpy as np

    from depscale import cli, spectral
    from depscale.errors import DepscaleError
    from depscale.io import load_joint_csv

    tally = {"svd_calls": 0, "svd_cells": 0, "oracle_decomp_calls": 0}
    in_oracle = [False]

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            if name == "svd":
                tally["svd_calls"] += 1
                tally["svd_cells"] += int(np.asarray(a).size)
            if in_oracle[0]:
                tally["oracle_decomp_calls"] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    for name in DECOMPOSITIONS:
        setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))

    oracle = spectral.gram_det_oracle

    def audited_oracle(*args, **kwargs):
        in_oracle[0] = True
        try:
            return oracle(*args, **kwargs)
        finally:
            in_oracle[0] = False

    cli.gram_det_oracle = audited_oracle
    # SVD counts cover cli.main only; oracle counts also cover the audit below.
    result = dict(tally, **run_cli(steps), audit=[])

    for step in steps:
        if step["cmd"] != "oracle":
            continue
        j = load_joint_csv(step["path"])
        for m in AUDIT_ORDERS:
            spectral_d = float(spectral.dependence_scale(j, m).d[m])
            try:
                value = audited_oracle(j, m, restarts=step["args"]["restarts"], seed=0)
            except DepscaleError as exc:
                result["audit"].append({"m": m, "spectral": spectral_d, "error": exc.code})
                continue
            abs_err = abs(value - spectral_d)
            rel_err = abs_err / spectral_d if spectral_d > 0 else float(abs_err > 0)
            result["audit"].append({
                "m": m, "oracle": value, "spectral": spectral_d, "abs_err": abs_err,
                "rel_err": rel_err, "mismatch": abs_err > 1e-6 or rel_err > AUDIT_REL_TOL,
            })
    result["oracle_decomp_calls"] = tally["oracle_decomp_calls"]
    return result


def main() -> None:
    mode, plan_path, out_path = sys.argv[1:4]
    start = time.perf_counter()
    import depscale.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = time.perf_counter() - start
    with open(plan_path) as fh:
        steps = json.load(fh)
    result = {"spans": spans, "counts": count}[mode](steps)
    result["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
