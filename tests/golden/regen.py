"""The golden report corpus: its cases, their replay, and its rewrite.

    python tests/golden/regen.py

rewrites ``records.json`` from the current tree.  Every case of
:func:`cases` runs once with ``--format json`` and once with ``--format
csv``; each run is one record of its argv, exit code, stdout and stderr.
The stamp beside the records names the Python, numpy and OpenBLAS that made
them.  After the rewrite it prints the argv of every record whose exit
code, stdout or stderr changed, or "no report changed".  A change that
moves a report commits the rewritten file, and its diff is the list of
report changes.  ``tests/test_golden.py`` replays the same cases and
compares bytes.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
RECORDS = HERE / "records.json"
SRC = HERE.parents[1] / "src"

#: Per-cell quirks of the CSV reader; each has a joint, a samples and a
#: covariance file named ``<case>_joint.csv`` and so on.
PER_CELL = ("label", "ragged", "quoted", "blank_cells", "ws_line", "underscore",
            "digits", "header_only", "non_utf8")


def cases() -> list[list[str]]:
    """The argv of every case, without ``--format``; paths are relative
    to the inputs directory."""
    lambdas = (INPUTS / "smoke_lambdas.txt").read_text().split()
    return [
        # The README's examples.
        ["compute", "fixture.csv"],
        ["compute", "fixture.csv", "--max-order", "0"],
        ["oracle", "fixture.csv"],
        ["transforms", "fixture.csv"],
        ["transforms", "fixture.csv", "-k", "3"],
        ["transforms", "fixture.csv", "-k", "1000000"],
        ["gaussian", "block.csv", "--dim-x", "2"],
        ["compute", "not_normalized.csv"],
        # Every step of the four benchmark workloads at seed 1, smoke size.
        ["estimate", "smoke_samples.csv", "--x", "x", "--y", "y1", "y2"],
        ["compute", "smoke_joint.csv"],
        ["oracle", "smoke_audit0.csv"],
        ["transforms", "smoke_audit0.csv", "-k", "4"],
        ["oracle", "smoke_audit1.csv"],
        ["transforms", "smoke_audit1.csv", "-k", "4"],
        ["gaussian", "smoke_cov.csv", "--dim-x", "1", "--lambdas", *lambdas],
        # Options away from their defaults.
        ["compute", "smoke_joint.csv", "--max-order", "0"],
        ["compute", "smoke_joint.csv", "--max-order", "3"],
        ["oracle", "smoke_audit0.csv", "-m", "1"],
        ["transforms", "smoke_audit1.csv", "-k", "2"],
        ["estimate", "smoke_samples.csv", "--x", "x", "--y", "y1", "--strategy", "uniform-width"],
        ["estimate", "label_samples.csv", "--x", "g", "--y", "v", "--strategy", "categorical"],
        ["gaussian", "smoke_cov.csv", "--dim-x", "1"],
        ["gaussian", "smoke_cov.csv", "--dim-x", "1", "--lambdas", "-1e-3", "0.5"],
        # Rank 1 on 3 x 3: sigma_2 is rounding residue (2.7e-17), zero at tol 0.
        ["compute", "rank_deficient.csv", "--tol", "0"],
        ["transforms", "rank_deficient.csv", "-k", "2", "--tol", "0"],
        # Orders past the alphabet: D ends at its first structural zero, d = 0.
        ["compute", "fixture.csv", "--max-order", "1000000"],
        ["oracle", "fixture.csv", "-m", "100000000000"],
        ["estimate", "smoke_samples.csv", "--x", "x", "--y", "y1", "--max-order", "1000000"],
        # A bin count past the row count, here 2: quantile bins are categorical,
        # and uniform-width counts edges it never builds.
        ["estimate", "fixture.csv", "--x", "0", "--y", "1", "--bins", "100000000000"],
        ["estimate", "fixture.csv", "--x", "0", "--y", "1", "--strategy", "uniform-width",
         "--bins", "100000000000"],
        # Errors: exit 2, then exit 3.
        ["gaussian", "block.csv", "--dim-x", "2", "--lambdas", "0", "1"],
        ["gaussian", "block.csv", "--dim-x", "3"],
        ["gaussian", "not_pd.csv", "--dim-x", "1"],
        ["compute", "missing.csv"],
        ["compute", "fixture.csv", "--bogus"],
        ["transforms", "smoke_audit0.csv", "--max-iter", "1"],
        # Per-cell quirks under every loader.
        *(argv for case in PER_CELL for argv in (
            ["compute", f"{case}_joint.csv"],
            ["oracle", f"{case}_joint.csv"],
            ["transforms", f"{case}_joint.csv"],
            ["estimate", f"{case}_samples.csv", "--x", "0", "--y", "1"],
            ["gaussian", f"{case}_cov.csv", "--dim-x", "1"],
        )),
        # Rows of blank cells, skipped before the widths are compared.
        ["estimate", "blank_wide.csv", "--x", "x", "--y", "y"],
        ["estimate", "blank_padding.csv", "--x", "x", "--y", "y"],
        ["estimate", "blank_only.csv", "--x", "0", "--y", "1"],
        # A labelled samples file, binned jointly.
        ["estimate", "labelled.csv", "--x", "x", "--y", "y1", "y2"],
        ["estimate", "labelled.csv", "--x", "y1", "--y", "x"],
    ]


def invocations() -> list[list[str]]:
    """Every case, in JSON and then in CSV."""
    return [[*argv, "--format", fmt] for argv in cases() for fmt in ("json", "csv")]


def replay(argvs: list[list[str]]) -> tuple[dict, list[dict]]:
    """The stamp and one record per argv, all run in one child interpreter
    that starts OpenBLAS at one thread, as the CLI does, and runs in the
    inputs directory, so that no message carries a temporary path."""
    path = [str(SRC), str(HERE), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(path))
    child = subprocess.run(
        [sys.executable, "-c", "import regen; regen._child()"], input=json.dumps(argvs),
        capture_output=True, text=True, cwd=INPUTS, env=env, timeout=300)
    if child.returncode != 0:
        raise RuntimeError(f"the replay child failed:\n{child.stderr}")
    out = json.loads(child.stdout)
    return out["stamp"], out["records"]


def _child() -> None:
    """Run ``cli.main`` on each argv of the JSON list on stdin; write the
    stamp and the records to stdout as JSON."""
    from contextlib import redirect_stderr, redirect_stdout
    from io import StringIO

    from depscale import cli

    records = []
    for argv in json.load(sys.stdin):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        records.append({"argv": argv, "exit": code, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
    json.dump({"stamp": _stamp(), "records": records}, sys.stdout)


def _stamp() -> dict:
    """The versions a report's last bits can depend on."""
    import ctypes
    import platform

    import numpy as np

    openblas = None
    for lib in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*")):
        try:
            config = ctypes.CDLL(str(lib)).scipy_openblas_get_config64_
        except (OSError, AttributeError):  # not a library numpy's OpenBLAS is in
            continue
        config.restype = ctypes.c_char_p
        openblas = config().decode()
    return {"python": platform.python_version(), "numpy": np.__version__, "openblas": openblas}


def name(argv: list[str]) -> str:
    """The argv as one shell line, cut to 100 characters."""
    line = shlex.join(argv)
    return line if len(line) <= 100 else line[:97] + "..."


def changed(old: list[dict], new: list[dict]) -> list[list[str]]:
    """The argv of every new record that differs from the old record of the
    same argv, or that has none."""
    before = {tuple(r["argv"]): r for r in old}
    return [r["argv"] for r in new if before.get(tuple(r["argv"])) != r]


def main() -> None:
    old = json.loads(RECORDS.read_text(encoding="utf-8"))["records"] if RECORDS.exists() else []
    stamp, records = replay(invocations())
    text = json.dumps({"stamp": stamp, "records": records}, indent=1, sort_keys=True,
                      ensure_ascii=False)
    RECORDS.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {RECORDS}")
    print("\n".join(map(name, changed(old, records))) or "no report changed")


if __name__ == "__main__":
    main()
