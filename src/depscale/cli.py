"""Command-line interface.

Subcommands mirror the library one-to-one and add no arithmetic of their
own: every number in a report is the untouched return value of a library
call.  Reports are JSON (default) or flattened CSV on stdout; errors are a
single machine-readable JSON object on stderr.  Exit codes: 0 success,
1 the report could not be written, 2 bad input, 3 numerical failure.

A start imports ``errors`` and ``io`` (which brings ``joints``); any other
module is imported on the first call of a library function from it, so each
subcommand loads just the modules it runs.  Before numpy loads, the CLI's
own process sets ``OPENBLAS_THREAD_TIMEOUT`` to 22 unless it is already
set, so OpenBLAS's idle worker sleeps after about 2 ms instead of 0.1 s.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import os
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Any, Callable, NoReturn

#: An idle OpenBLAS worker spins 2**N cycles before it sleeps: OpenBLAS's
#: N = 28 burns about 0.1 s of a CPU after each threaded call, 22 about 2 ms.
_OPENBLAS_THREAD_TIMEOUT = "22"
if "numpy" not in sys.modules:  # OpenBLAS reads it once, as numpy loads it
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", _OPENBLAS_THREAD_TIMEOUT)

import numpy as np

from .errors import DepscaleError, NonConvergenceError
from .io import load_covariance_csv, load_joint_csv, load_samples_csv, select_column
from .joints import DEFAULT_ORDER_TOL, ORACLE_TOL

if TYPE_CHECKING:
    from .spectral import SingularSpectrum


def _deferred(module: str, name: str) -> Callable[..., Any]:
    """``depscale.<module>.<name>``, its module imported on the first call.
    Handlers call it as a module global, where perfbench/traced.py wraps it."""
    home = f"{__package__}.{module}"

    def call(*args: Any, **kwargs: Any) -> Any:
        return getattr(import_module(home), name)(*args, **kwargs)

    call.__module__, call.__name__, call.__qualname__ = home, name, name
    return call


ace_subspace = _deferred("ace", "ace_subspace")
BinningSpec = _deferred("estimate", "BinningSpec")
empirical_joint_grouped = _deferred("estimate", "empirical_joint_grouped")
profile_of_joint = _deferred("estimate", "profile_of_joint")
gaussian_r = _deferred("gaussian", "gaussian_r")
lambda_max = _deferred("gaussian", "lambda_max")
noise_curve = _deferred("gaussian", "noise_curve")
dependence_scale = _deferred("spectral", "dependence_scale")
gram_det_oracle = _deferred("spectral", "gram_det_oracle")
singular_spectrum = _deferred("spectral", "singular_spectrum")
# Not called here: the report reads completeness off the spectrum.  Kept as a
# module attribute because perfbench/traced.py wraps every library name it
# expects the CLI to look up.
check_completeness = _deferred("structure", "check_completeness")

SCHEMA = "v1"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        report = args.handler(args)
    except DepscaleError as exc:
        _emit_error(exc.code, str(exc))
        return exc.exit_code
    except (ValueError, MemoryError) as exc:
        # MemoryError: an argument too large to allocate for (--restarts, --max-order).
        _emit_error("InvalidArgument", str(exc))
        return 2
    except OSError as exc:
        _emit_error("Format", str(exc))
        return 2
    _emit_report(report, args.format)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ``ValueError``, which ``main`` turns into the
    structured ``InvalidArgument`` object (exit 2); ``--help`` is unchanged."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="depscale",
        description="Dependence index, maximal correlation, and m-dependence "
        "scale of joint distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, *, tol_default: float | None = DEFAULT_ORDER_TOL
    ) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        if tol_default is not None:
            p.add_argument("--tol", type=float, default=tol_default,
                           help=f"numerical tolerance (default {tol_default:g})")

    p = sub.add_parser("compute", help="full report for a joint pmf CSV")
    p.add_argument("joint", help="path to the pmf table")
    p.add_argument("--max-order", type=int, default=None,
                   help="largest m in the scale (default: min(|X|,|Y|)-1)")
    common(p)
    p.set_defaults(handler=_cmd_compute)

    p = sub.add_parser("estimate", help="plug-in report from a samples CSV")
    p.add_argument("samples", help="path to the samples table")
    p.add_argument("--x", required=True, help="X column (name or index)")
    p.add_argument("--y", required=True, nargs="+",
                   help="Y column(s) (name or index); several are jointly binned")
    p.add_argument("--bins", type=int, default=8, help="bins per axis (default 8)")
    p.add_argument("--strategy", choices=("quantile", "uniform-width", "categorical"),
                   default="quantile", help="binning strategy (default quantile)")
    p.add_argument("--max-order", type=int, default=None,
                   help="largest m in the scale (default: min(|X|,|Y|)-1)")
    common(p)
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("gaussian", help="closed-form report for a covariance CSV")
    p.add_argument("cov", help="path to the full covariance matrix")
    p.add_argument("--dim-x", type=int, required=True,
                   help="number of leading rows/columns belonging to X")
    p.add_argument("--lambdas", type=float, nargs="+", default=None,
                   help="noise scales: append R(X, Y + lambda Z) for scalar joints")
    p.add_argument("--var-z", type=float, default=1.0,
                   help="variance of the added noise (default 1)")
    common(p, tol_default=None)
    p.set_defaults(handler=_cmd_gaussian)

    p = sub.add_parser("transforms", help="leading transform pairs of a joint pmf CSV")
    p.add_argument("joint", help="path to the pmf table")
    p.add_argument("-k", type=int, default=1, help="number of pairs (default 1)")
    p.add_argument("--max-iter", type=int, default=10_000,
                   help="sweep budget (default 10000)")
    common(p)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized steps (default 0)")
    p.set_defaults(handler=_cmd_transforms)

    p = sub.add_parser("oracle", help="audit the scale by direct maximization")
    p.add_argument("joint", help="path to the pmf table")
    p.add_argument("-m", type=int, default=0, help="scale order to audit (default 0)")
    p.add_argument("--restarts", type=int, default=32,
                   help="ascent restarts (default 32)")
    common(p, tol_default=ORACLE_TOL)
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized steps (default 0)")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _profile_report(
    spectrum: SingularSpectrum, max_order: int | None, tol: float
) -> dict[str, Any]:
    profile = spectrum.profile(max_order, tol)
    return {
        "schema": SCHEMA,
        "sigma0": spectrum.sigma0,
        "sigma": spectrum.sigma.tolist(),
        "R": profile.r,
        "D": profile.d.tolist(),
        "order": profile.order,
        "complete": spectrum.complete(tol),
    }


def _cmd_compute(args: argparse.Namespace) -> dict[str, Any]:
    spectrum = singular_spectrum(load_joint_csv(args.joint))
    return _profile_report(spectrum, args.max_order, args.tol)


def _cmd_estimate(args: argparse.Namespace) -> dict[str, Any]:
    names, columns = load_samples_csv(args.samples)
    x = select_column(names, columns, args.x, "x")
    ys = [select_column(names, columns, key, "y") for key in args.y]
    spec = BinningSpec(strategy=args.strategy, bins_x=args.bins, bins_y=args.bins)
    joint = empirical_joint_grouped(x, ys, spec)
    est = profile_of_joint(joint, x.shape[0])
    report = _profile_report(est.spectrum, args.max_order, args.tol)
    report.update(n=est.n, bins=[joint.n_x, joint.n_y], bias_warning=est.bias_warning)
    return report


def _cmd_gaussian(args: argparse.Namespace) -> dict[str, Any]:
    g = load_covariance_csv(args.cov, args.dim_x)
    d = lambda_max(g)  # D = R^2 = lambda_max
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "R": gaussian_r(g),
        "D": d,
        "lambda_max": d,
    }
    if args.lambdas is not None:
        curve = noise_curve(g, np.asarray(sorted(args.lambdas), dtype=float),
                            var_z=args.var_z)
        report["noise_curve"] = {
            "lambda": curve.lambdas.tolist(),
            "R": curve.r_values.tolist(),
        }
    return report


def _cmd_transforms(args: argparse.Namespace) -> dict[str, Any]:
    j = load_joint_csv(args.joint)
    pairs = ace_subspace(j, args.k, tol=args.tol, max_iter=args.max_iter,
                         seed=args.seed)
    stuck = [p for p in pairs if not p.converged and not p.degenerate]
    if stuck:
        raise NonConvergenceError(
            f"{len(stuck)} transform pair(s) did not converge within "
            f"{args.max_iter} sweeps (residual above tol {args.tol!r})"
        )
    return {
        "schema": SCHEMA,
        "pairs": [
            {
                "rho": p.rho,
                "phi": p.phi.values.tolist(),
                "psi": p.psi.values.tolist(),
                "converged": p.converged,
                "degenerate": p.degenerate,
                "sweeps": p.n_iter,
            }
            for p in pairs
        ],
    }


def _cmd_oracle(args: argparse.Namespace) -> dict[str, Any]:
    j = load_joint_csv(args.joint)
    value = gram_det_oracle(j, args.m, restarts=args.restarts, seed=args.seed,
                            tol=args.tol)
    spectral = dependence_scale(j, args.m)
    return {
        "schema": SCHEMA,
        "m": args.m,
        "oracle": value,
        "spectral": float(spectral.d[args.m]),
    }


def _emit_report(report: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report))
        return
    buf = _io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["field", "index", "value"])
    for key, value in report.items():
        _write_csv_field(writer, key, value)
    sys.stdout.write(buf.getvalue())


def _write_csv_field(writer, key: str, value: Any) -> None:
    if isinstance(value, dict):
        for sub, item in value.items():
            _write_csv_field(writer, f"{key}.{sub}", item)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            if isinstance(item, dict):
                _write_csv_field(writer, f"{key}[{i}]", item)
            else:
                writer.writerow([key, i, _csv_scalar(item)])
    else:
        writer.writerow([key, "", _csv_scalar(value)])


def _csv_scalar(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"schema": SCHEMA, "error": code, "message": message}) + "\n")


def run() -> NoReturn:
    """The process entry of ``python -m depscale.cli`` and the ``depscale``
    script: :func:`main`, both streams flushed, then ``os._exit`` without the
    interpreter's teardown, which nothing needs: ``main`` has reaped its parse
    child and joined its SVD thread.  A report that cannot be written is
    exit 1, silent when a pipe's reader has gone, else an ``Output`` error."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # --help, after printing usage
            code = exc.code
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1
    except OSError as exc:
        code = 1
        _emit_error("Output", str(exc))
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":  # pragma: no cover
    run()
