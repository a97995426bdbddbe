"""Seeded fixtures, CLI operations and independent reference checks.

A workload turns a seed into input files, which are all the program ever
sees, and into reference values computed here with plain numpy before any
timing starts.  An op is a list of steps; a step is one ``depscale`` CLI
invocation together with the check its JSON report must pass.  A check
returns ``None`` for a correct report and a one-line reason otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: The CLI's default ``--tol`` (``depscale.spectral.DEFAULT_ORDER_TOL``).
ORDER_TOL = 1e-10

#: The README's 2x2 table: ``compute`` on it is the per-invocation fixed cost.
SETUP_TABLE = [[0.4, 0.1], [0.1, 0.4]]

#: Full size and smoke-test size of each workload's input.  Ingest uses
#: 250,000 rows rather than a million so that a run times about eight ops,
#: not two or three: an op's time moves by about a tenth from one op to
#: the next on a shared host, and a median of two or three does not settle.
SIZES = {
    "ingest-250k": (250_000, 2_000),
    "spectrum-1024": (1024, 32),
    "audit-256": (256, 16),
    "noise-curve-10k": (10_000, 100),
}

#: Distinct audit tables per run; a run cycles through them so that its
#: median op does not hang on one draw of singular directions.
AUDIT_JOINTS = 6

#: Leading nontrivial singular values of every audit table: near-tied, with
#: a fixed ratio.  ACE sweeps and oracle iterations are set by these gaps; on
#: Dirichlet tables the gaps are random and ACE took 360 to 8300 sweeps of
#: its 10,000-sweep budget, depending on the draw.
AUDIT_TOP = 0.12 * 0.993 ** np.arange(8)

Check = Callable[[dict], "str | None"]


@dataclass
class Step:
    """One CLI invocation: subcommand, input file, options, report check."""

    cmd: str
    path: str
    args: dict[str, Any]
    check: Check

    def argv(self) -> list[str]:
        a = self.args
        if self.cmd == "estimate":
            return ["estimate", self.path, "--x", a["x"], "--y", *a["y"]]
        if self.cmd == "transforms":
            return ["transforms", self.path, "-k", str(a["k"])]
        if self.cmd == "gaussian":
            return ["gaussian", self.path, "--dim-x", str(a["dim_x"]),
                    "--lambdas", *a["lambdas"]]
        return [self.cmd, self.path]

    def spec(self) -> dict[str, Any]:
        """What the traced child needs to run this step and audit its oracle."""
        return {"cmd": self.cmd, "path": self.path, "args": self.args,
                "argv": self.argv()}


Op = list[Step]


def build(name: str, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """Write the inputs of ``name`` for ``seed`` into ``workdir``; return its ops.

    The same seed always gives the same files and the same references.
    """
    size = SIZES[name][1 if smoke else 0]
    rng = np.random.default_rng(seed)
    if name == "ingest-250k":
        return [_ingest(rng, size, workdir)]
    if name == "spectrum-1024":
        return [_spectrum(rng, size, workdir)]
    if name == "audit-256":
        joints = 2 if smoke else AUDIT_JOINTS
        return [_audit(rng, size, workdir / f"audit{i}.csv") for i in range(joints)]
    if name == "noise-curve-10k":
        return [_noise_curve(rng, size, workdir)]
    raise KeyError(name)


def setup_op(workdir: Path) -> Op:
    """``compute`` on the README's 2x2 table, with its documented report."""
    path = workdir / "setup.csv"
    table = np.array(SETUP_TABLE)
    _write_table(path, table)
    return [Step("compute", str(path), {}, _profile_check(table, reference_sigma(table)))]


# --------------------------------------------------------------------------
# Fixtures
# --------------------------------------------------------------------------


def dirichlet_joint(rng: np.random.Generator, n: int) -> np.ndarray:
    """The dense random table of ``random_joint`` in tests/conftest.py."""
    w = rng.dirichlet(np.ones(n * n)).reshape(n, n)
    return 0.999 * w + 0.001 / w.size


def _write_table(path: Path, table: np.ndarray) -> None:
    # repr round-trips, so the program parses exactly the values referenced.
    path.write_text("\n".join(",".join(map(repr, row)) for row in table.tolist()) + "\n")


def _ingest(rng: np.random.Generator, rows: int, workdir: Path) -> Op:
    x, e1, e2 = rng.standard_normal((3, rows))
    # Six decimals, as a sensor would log them; the references use the
    # rounded values, which are exactly what the program parses.
    cols = np.round(np.stack([x, 0.8 * x + 0.6 * e1, 0.5 * x + e2]), 6)
    path = workdir / "samples.csv"
    body = "\n".join(map("%r,%r,%r".__mod__, zip(*cols.tolist())))
    path.write_text("x,y1,y2\n" + body + "\n")
    table = reference_binned_joint(cols[0], cols[1:], bins=8)
    check = _profile_check(table, reference_sigma(table), extra={
        "n": rows, "bins": list(table.shape),
        "bias_warning": rows < 10 * table.size,
    })
    return [Step("estimate", str(path), {"x": "x", "y": ["y1", "y2"], "bins": 8}, check)]


def _spectrum(rng: np.random.Generator, n: int, workdir: Path) -> Op:
    table = dirichlet_joint(rng, n)
    path = workdir / "joint.csv"
    _write_table(path, table)
    return [Step("compute", str(path), {}, _profile_check(table, reference_sigma(table)))]


def audit_joint(rng: np.random.Generator, n: int) -> np.ndarray:
    """Dense n x n table (n a power of 2) with a fixed normalized spectrum.

    Marginals are uniform and the singular vectors are randomly permuted
    columns of a Sylvester-Hadamard matrix: +-1 entries, orthogonal to the
    constant column.  With the singular values summing to less than 1,
    every cell stays positive.
    """
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    sigma = np.concatenate([AUDIT_TOP, np.geomspace(4e-4, 1e-6, n - 1 - AUDIT_TOP.size)])
    f = h[rng.permutation(n)][:, 1 + rng.permutation(n - 1)]
    g = h[rng.permutation(n)][:, 1 + rng.permutation(n - 1)]
    return (1.0 + (f * sigma) @ g.T) / (n * n)


def _audit(rng: np.random.Generator, n: int, path: Path) -> Op:
    table = audit_joint(rng, n)
    _write_table(path, table)
    sigma = reference_sigma(table)
    return [
        Step("oracle", str(path), {"m": 0, "restarts": 32}, _oracle_check(sigma)),
        Step("transforms", str(path), {"k": 4}, _transforms_check(sigma, 4)),
    ]


def _noise_curve(rng: np.random.Generator, points: int, workdir: Path) -> Op:
    # One point in each of `points` equal cells of [-5, 5], so no two repeat
    # (the CLI rejects repeats).  Fixed-point text, because argparse takes a
    # negative number in exponent notation for an option.
    cells = (np.arange(points) + rng.uniform(0.01, 0.99, points)) / points
    text = [f"{v:.12f}" for v in rng.permutation(10.0 * cells - 5.0)]
    path = workdir / "cov.csv"
    path.write_text("1.0,0.8\n0.8,1.0\n")
    lambdas = np.sort(np.array(text, dtype=float))
    return [Step("gaussian", str(path), {"dim_x": 1, "lambdas": text},
                 _gaussian_check(lambdas, 1.0, 0.8, 1.0))]


# --------------------------------------------------------------------------
# References (plain numpy, computed at set-up)
# --------------------------------------------------------------------------


def reference_sigma(table: np.ndarray) -> np.ndarray:
    """Nontrivial singular values of the normalized table, by one SVD of the
    table with the constant pair projected out on both sides."""
    p = table / table.sum()
    u0 = np.sqrt(p.sum(axis=1))
    v0 = np.sqrt(p.sum(axis=0))
    q = p / np.outer(u0, v0)
    q = q - np.outer(u0, u0 @ q)
    q = q - np.outer(q @ v0, v0)
    k = min(p.shape) - 1
    return np.linalg.svd(q, compute_uv=False)[:k] if k > 0 else np.empty(0)


def reference_binned_joint(x: np.ndarray, ys: np.ndarray, bins: int) -> np.ndarray:
    """Plug-in table of x against the product alphabet of ys.

    Quantile bins with midpoint edges, empty bins and unused Y combinations
    dropped, product codes in lexicographic order of the per-column codes.
    """
    def codes(col: np.ndarray) -> tuple[np.ndarray, int]:
        edges = np.quantile(col, np.arange(1, bins) / bins, method="midpoint")
        raw = np.digitize(col, edges)
        occupied = np.flatnonzero(np.bincount(raw, minlength=bins))
        remap = np.zeros(bins, dtype=np.int64)
        remap[occupied] = np.arange(occupied.size)
        return remap[raw], occupied.size

    cx, nx = codes(x)
    cy = np.zeros(x.size, dtype=np.int64)
    ny = 1
    for col in ys:
        c, k = codes(col)
        cy, ny = cy * k + c, ny * k
    counts = np.bincount(cx * ny + cy, minlength=nx * ny).reshape(nx, ny)
    counts = counts[:, counts.sum(axis=0) > 0]
    return counts / x.size


# --------------------------------------------------------------------------
# Report checks
# --------------------------------------------------------------------------


def _close(got: Any, want: np.ndarray, tol: float) -> bool:
    got = np.asarray(got, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def _profile_check(table: np.ndarray, sigma_ref: np.ndarray,
                   extra: dict[str, Any] | None = None) -> Check:
    n_x, n_y = table.shape
    k = sigma_ref.size

    def check(r: dict) -> str | None:
        sigma = np.asarray(r.get("sigma", []), dtype=float)
        if not _close(sigma, sigma_ref, 1e-9):
            return "sigma differs from the reference SVD by more than 1e-9"
        if abs(r["sigma0"] - 1.0) > 1e-10:
            return f"sigma0 = {r['sigma0']!r} is not within 1e-10 of 1"
        if not np.isclose(r["R"], sigma[0] if k else 0.0, rtol=0, atol=1e-15):
            return "R is not sigma[0]"
        d = np.cumprod(np.pad(sigma, (0, 1)) ** 2)
        if not _close(r["D"], d, 1e-12):
            return "D is not the cumulative product of sigma**2"
        # `order` is the first m with d[m] <= tol.  The numerical-rank rule on
        # sigma (first m with sigma[m] <= tol), which the roadmap plans to
        # adopt, is accepted too.
        below_d = np.flatnonzero(d <= ORDER_TOL)
        below_s = np.flatnonzero(sigma <= ORDER_TOL)
        allowed = {int(below_d[0]) if below_d.size else None,
                   int(below_s[0]) if below_s.size else k}
        if r["order"] not in allowed:
            return f"order {r['order']} does not follow from D or sigma"
        complete = n_x <= n_y and (k == 0 or bool(sigma_ref[-1] > ORDER_TOL))
        if r["complete"] is not complete:
            return f"complete is {r['complete']}, expected {complete}"
        for key, want in (extra or {}).items():
            if r.get(key) != want:
                return f"{key} is {r.get(key)!r}, expected {want!r}"
        return None

    return check


def _oracle_check(sigma_ref: np.ndarray) -> Check:
    d0 = float(sigma_ref[0] ** 2)

    def check(r: dict) -> str | None:
        if r["m"] != 0:
            return f"m is {r['m']}, expected 0"
        if abs(r["spectral"] - d0) > 1e-9:
            return "spectral d[0] differs from the reference by more than 1e-9"
        if abs(r["oracle"] - r["spectral"]) > 1e-6:
            return f"oracle {r['oracle']!r} misses spectral {r['spectral']!r} by more than 1e-6"
        return None

    return check


def _transforms_check(sigma_ref: np.ndarray, k: int) -> Check:
    def check(r: dict) -> str | None:
        pairs = r["pairs"]
        if len(pairs) != k:
            return f"{len(pairs)} pairs, expected {k}"
        for i, p in enumerate(pairs):
            if not p["converged"] or p["degenerate"]:
                return f"pair {i} did not converge"
            if abs(p["rho"] - sigma_ref[i]) > 1e-8:
                return f"pair {i}: rho {p['rho']!r} misses sigma {sigma_ref[i]!r} by more than 1e-8"
        return None

    return check


def _gaussian_check(lambdas: np.ndarray, v11: float, v12: float, v22: float) -> Check:
    r0 = abs(v12) / np.sqrt(v11 * v22)
    curve = abs(v12) / np.sqrt(v11 * (v22 + lambdas**2))

    def check(r: dict) -> str | None:
        for key, want in (("R", r0), ("D", r0**2), ("lambda_max", r0**2)):
            if abs(r[key] - want) > 1e-12:
                return f"{key} = {r[key]!r}, expected {want!r}"
        nc = r.get("noise_curve", {})
        if nc.get("lambda") != lambdas.tolist():
            return "noise_curve lambdas are not the sorted inputs"
        if not _close(nc["R"], curve, 1e-12):
            return "noise_curve R differs from |v12|/sqrt(v11(v22+lambda^2)) by more than 1e-12"
        return None

    return check
