"""Paired benchmark runs of two trees, written as one BENCH file.

    python3 tools/bench_pair.py --against REV --out BENCH_<pr>.json [--pairs 10]
        [--workload NAME ...] [--variant 'OLD LINE => NEW LINE' ...]

Run it from the repository root.  The base tree is ``REV`` exported with
``git archive``; the candidate is the working tree's tracked files as they
are on disk, uncommitted edits included.  Each ``--variant`` then rewrites
one line of the candidate's ``src/``: the line whose text, leading and
trailing blanks aside, is ``OLD LINE`` becomes ``NEW LINE`` at the same
indentation, and the driver stops if that text matches no line or more
than one.  Both copies get ``python -m compileall -q src``, so that no timed
start compiles the package.

For each workload (all of ``BENCHMARK.json``'s by default) the driver runs
each tree's own, unmodified ``perfbench/run.py --workload W --seed 1
--seconds 20 --trace 0``, one tree after the other: the run length of
``BENCHMARK.json``, and the same inputs on both sides.  The tree that goes
first alternates from pair to pair, so a drifting host loads both alike.
Each run's last stdout line is its result; its ``env`` line, the
interpreter's ``.pth`` files and ``/proc/loadavg`` before and after it are
kept beside it.

For each end-to-end metric the BENCH file gives both trees' values, their
median, quartiles and 90th percentile, how many pairs each tree won, and
how much worse the candidate's median is than the base's, as a fraction,
beside the metric's bound in ``BENCHMARK.json``.  The verdict is ``better``
or ``worse`` when the candidate wins or loses at least nine pairs in ten
and its median moves by more than the base's interquartile range;
otherwise it is ``no difference``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import site
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("base", "candidate")
SECONDS, SEED = 20, 1


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          check=True).stdout


def export_base(rev: str, dest: Path) -> None:
    """``rev``'s tree, by ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def export_candidate(dest: Path) -> None:
    """The working tree's tracked files, as they are on disk."""
    for name in git("ls-files", "-z").decode().split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def apply_variant(tree: Path, variant: str) -> str:
    """Rewrite the one ``src/`` line that ``variant``'s left side names."""
    old, sep, new = variant.partition(" => ")
    if not sep:
        raise SystemExit(f"--variant needs 'OLD => NEW': {variant!r}")
    hits = []
    for path in sorted((tree / "src").rglob("*.py")):
        lines = path.read_text().splitlines(keepends=True)
        hits += [(path, lines, i) for i, line in enumerate(lines) if line.strip() == old.strip()]
    if len(hits) != 1:
        raise SystemExit(f"--variant matches {len(hits)} lines of src/, not 1: {old!r}")
    path, lines, i = hits[0]
    indent = lines[i][: len(lines[i]) - len(lines[i].lstrip())]
    lines[i] = indent + new.strip() + "\n"
    path.write_text("".join(lines))
    return f"{path.relative_to(tree)}:{i + 1}"


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def run_once(tree: Path, workload: str) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line and env stamp."""
    before, start = loadavg(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, timeout=10 * SECONDS + 600)
    record = {"elapsed_s": round(time.perf_counter() - start, 2),
              "loadavg_before": before, "loadavg_after": loadavg(),
              "exit_code": proc.returncode}
    lines = proc.stdout.splitlines()
    env = [line[4:] for line in lines if line.startswith("env ")]
    record["env"] = json.loads(env[0]) if env else None
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = (proc.stderr or proc.stdout)[-2000:]
        return record
    record.update({k: result[k] for k in ("correct", "attempted", "failed")})
    record["metrics"] = {k: m["value"] for k, m in result["metrics"].items()}
    return record


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = p90 = values[0] if values else None
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    return {"values": values, "median": median, "q1": q1, "q3": q3, "p90": p90}


def compare(pairs: list[dict], name: str, better: str, bound: float) -> dict:
    """Both trees' values of one metric, pair by pair, and the verdict."""
    both = [(p["base"]["metrics"][name], p["candidate"]["metrics"][name]) for p in pairs
            if all(p[t].get("metrics", {}).get(name) is not None for t in TREES)]
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - b) > 0 for b, c in both)
    lost = sum(sign * (c - b) < 0 for b, c in both)
    out = {"base": summary([b for b, _ in both]), "candidate": summary([c for _, c in both]),
           "pairs": len(both), "candidate_won": won, "base_won": lost}
    verdict = "no difference"
    if both:
        base, cand = out["base"], out["candidate"]
        # The candidate's median against the base's, as a fraction of it,
        # positive when the candidate is worse; BENCHMARK.json bounds it.
        worse = -sign * (cand["median"] - base["median"]) / abs(base["median"] or 1)
        out.update(worse_by=worse, bound=bound, within_bound=worse <= bound)
        moved = abs(cand["median"] - base["median"]) > base["q3"] - base["q1"]
        if moved and won >= 0.9 * len(both):
            verdict = "better"
        elif moved and lost >= 0.9 * len(both):
            verdict = "worse"
    out["verdict"] = verdict
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the base revision")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--variant", action="append", default=[])
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        trees = {t: Path(tmp) / t for t in TREES}
        for tree in trees.values():
            tree.mkdir()
        export_base(args.against, trees["base"])
        export_candidate(trees["candidate"])
        rewritten = [apply_variant(trees["candidate"], v) for v in args.variant]
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree,
                           check=True)
        report = {}
        for workload in workloads:
            pairs = []
            for p in range(args.pairs):
                order = TREES if p % 2 == 0 else TREES[::-1]
                pair = {"first": order[0]}
                for t in order:
                    pair[t] = run_once(trees[t], workload)
                pairs.append(pair)
                print(workload, p, {t: pair[t].get("metrics", {}).get("wall_s") for t in TREES},
                      flush=True)
            metrics = {m["name"]: {"unit": m["unit"], "better": m["better"],
                                   **compare(pairs, m["name"], m["better"], m["bound"])}
                       for m in spec["end_to_end"]}
            report[workload] = {"metrics": metrics, "pairs": pairs}
            print(workload, {k: m["verdict"] for k, m in metrics.items()}, flush=True)

    head = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    out = {
        "command": ["tools/bench_pair.py", *sys.argv[1:]],
        "base": {"rev": git("rev-parse", args.against).decode().strip()},
        "candidate": {"head": head, "uncommitted_edits": dirty,
                      "variants": dict(zip(rewritten, args.variant))},
        "settings": {"pairs": args.pairs, "seconds": SECONDS, "seed": SEED, "trace": 0},
        "host": {"nproc": len(os.sched_getaffinity(0)),
                 "pth": sorted(p.name for d in site.getsitepackages() if os.path.isdir(d)
                               for p in Path(d).glob("*.pth"))},
        "elapsed_s": round(time.perf_counter() - started, 1),
        "workloads": report,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
