"""Command-line interface.

Subcommands mirror the library one-to-one and add no arithmetic of their
own: every number in a report is the untouched return value of a library
call.  Reports are JSON (default) or flattened CSV on stdout; errors are a
single machine-readable JSON object on stderr.  Exit codes: 0 success,
2 bad input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys
from typing import Any

import numpy as np

from .ace import ace_subspace
from .errors import DepscaleError, NonConvergenceError
from .estimate import (
    BinningSpec,
    empirical_joint_grouped,
    profile_of_joint,
)
from .gaussian import gaussian_d, gaussian_r, lambda_max, noise_curve
from .io import load_covariance_csv, load_joint_csv, load_samples_csv, select_column
from .spectral import (
    DEFAULT_ORDER_TOL,
    DependenceProfile,
    SingularSpectrum,
    dependence_scale,
    gram_det_oracle,
    singular_spectrum,
)
# Not called here: the report reads completeness off the spectrum.  Kept as a
# module attribute because perfbench/traced.py wraps every library name it
# expects the CLI to look up.
from .structure import check_completeness  # noqa: F401

SCHEMA = "v1"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except DepscaleError as exc:
        _emit_error(exc.code, str(exc))
        return exc.exit_code
    except ValueError as exc:
        _emit_error("InvalidArgument", str(exc))
        return 2
    except OSError as exc:
        _emit_error("Format", str(exc))
        return 2
    _emit_report(report, args.format)
    return 0


def run(argv: list[str] | None = None) -> None:  # pragma: no cover
    sys.exit(main(argv))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depscale",
        description="Dependence index, maximal correlation, and m-dependence "
        "scale of joint distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, tol_default: float = DEFAULT_ORDER_TOL) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (default json)")
        p.add_argument("--tol", type=float, default=tol_default,
                       help=f"numerical tolerance (default {tol_default:g})")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized steps (default 0)")

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
    common(p)
    p.set_defaults(handler=_cmd_gaussian)

    p = sub.add_parser("transforms", help="leading transform pairs of a joint pmf CSV")
    p.add_argument("joint", help="path to the pmf table")
    p.add_argument("-k", type=int, default=1, help="number of pairs (default 1)")
    p.add_argument("--max-iter", type=int, default=10_000,
                   help="sweep budget (default 10000)")
    common(p)
    p.set_defaults(handler=_cmd_transforms)

    p = sub.add_parser("oracle", help="audit the scale by direct maximization")
    p.add_argument("joint", help="path to the pmf table")
    p.add_argument("-m", type=int, default=0, help="scale order to audit (default 0)")
    p.add_argument("--restarts", type=int, default=32,
                   help="ascent restarts (default 32)")
    common(p, tol_default=1e-12)
    p.set_defaults(handler=_cmd_oracle)

    return parser


def _profile_report(
    spectrum: SingularSpectrum, profile: DependenceProfile, tol: float
) -> dict[str, Any]:
    return {
        "schema": SCHEMA,
        "sigma0": spectrum.sigma0,
        "sigma": [float(s) for s in spectrum.sigma],
        "R": profile.r,
        "D": [float(v) for v in profile.d],
        "order": profile.order,
        "complete": spectrum.complete(tol),
    }


def _cmd_compute(args: argparse.Namespace) -> dict[str, Any]:
    spectrum = singular_spectrum(load_joint_csv(args.joint))
    return _profile_report(spectrum, spectrum.profile(args.max_order, args.tol), args.tol)


def _cmd_estimate(args: argparse.Namespace) -> dict[str, Any]:
    names, columns = load_samples_csv(args.samples)
    x = select_column(names, columns, args.x, "x")
    ys = [select_column(names, columns, key, "y") for key in args.y]
    spec = BinningSpec(strategy=args.strategy, bins_x=args.bins, bins_y=args.bins)
    joint = empirical_joint_grouped(x, ys, spec)
    est = profile_of_joint(joint, x.shape[0], args.max_order, tol=args.tol)
    report = _profile_report(est.spectrum, est.profile, args.tol)
    report.update(
        n=est.n, bins=[est.bins[0], est.bins[1]], bias_warning=est.bias_warning
    )
    return report


def _cmd_gaussian(args: argparse.Namespace) -> dict[str, Any]:
    g = load_covariance_csv(args.cov, args.dim_x)
    report: dict[str, Any] = {
        "schema": SCHEMA,
        "R": gaussian_r(g),
        "D": gaussian_d(g),
        "lambda_max": lambda_max(g),
    }
    if args.lambdas is not None:
        curve = noise_curve(g, np.asarray(sorted(args.lambdas), dtype=float),
                            var_z=args.var_z)
        report["noise_curve"] = {
            "lambda": [float(v) for v in curve.lambdas],
            "R": [float(v) for v in curve.r_values],
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
            f"{args.max_iter} sweeps (near-tied leading correlations)"
        )
    return {
        "schema": SCHEMA,
        "pairs": [
            {
                "rho": p.rho,
                "phi": [float(v) for v in p.phi.values],
                "psi": [float(v) for v in p.psi.values],
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
                for sub, inner in item.items():
                    _write_csv_field(writer, f"{key}[{i}].{sub}", inner)
            else:
                writer.writerow([key, i, _csv_scalar(item)])
    else:
        writer.writerow([key, "", _csv_scalar(value)])


def _csv_scalar(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_error(code: str, message: str) -> None:
    sys.stderr.write(json.dumps({"schema": SCHEMA, "error": code, "message": message}) + "\n")


if __name__ == "__main__":  # pragma: no cover
    run()
