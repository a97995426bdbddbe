"""`tools/bench_pair.py`'s verdict, failed runs and line rewriting, without a benchmark run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def _run(wall):
    """A run record as ``run_once`` writes it; ``None`` is a failed run."""
    return {"error": "exit 1"} if wall is None else {"metrics": {"wall_s": wall}}


def _verdict(base, candidate):
    pairs = [{"base": _run(b), "candidate": _run(c)} for b, c in zip(base, candidate)]
    return bench_pair.compare(pairs, "wall_s", "lower", 0.25)


class TestCompare:
    def test_ties_count_for_neither_tree_but_stay_in_the_pairs_run(self):
        # Eight wins and two ties: under nine in ten of the pairs run.
        out = _verdict([1.0] * 10, [0.5] * 8 + [1.0] * 2)
        assert (out["candidate_won"], out["base_won"], out["pairs"]) == (8, 0, 10)
        assert out["verdict"] == "no difference"

    def test_a_failed_candidate_run_loses_its_pair(self):
        out = _verdict([1.0] * 10, [0.5] * 5 + [None] * 5)
        assert (out["candidate_won"], out["base_won"]) == (5, 5)
        assert out["failed"] == {"base": 0, "candidate": 5}
        assert out["candidate"]["values"] == [0.5] * 5
        assert out["verdict"] == "no difference"

    def test_two_failed_runs_tie(self):
        out = _verdict([None] * 10, [None] * 10)
        assert (out["candidate_won"], out["base_won"]) == (0, 0)
        assert out["failed"] == {"base": 10, "candidate": 10}
        assert out["verdict"] == "no difference"

    def test_a_candidate_that_always_fails_is_worse(self):
        out = _verdict([1.0] * 10, [None] * 10)
        assert out["base_won"] == 10 and out["verdict"] == "worse"

    @pytest.mark.parametrize(
        "shifts, verdict",
        [
            ([-0.5] * 9 + [1.0], "better"),  # nine wins, median past the base's IQR
            ([-0.5] * 8 + [1.0] * 2, "no difference"),  # eight wins
            ([-0.01] * 9 + [1.0], "no difference"),  # nine wins inside the base's IQR
            ([0.5] * 9 + [-1.0], "worse"),
        ],
        ids=["nine-wins", "eight-wins", "inside-iqr", "nine-losses"],
    )
    def test_nine_in_ten_and_a_move_past_the_base_iqr(self, shifts, verdict):
        base = [0.9, 1.1] * 5  # quartiles 0.9 and 1.1, median 1.0
        assert _verdict(base, [b + s for b, s in zip(base, shifts)])["verdict"] == verdict


class TestRunOnce:
    @pytest.mark.parametrize(
        "outcome",
        [
            subprocess.TimeoutExpired(["run.py"], 800),
            subprocess.CompletedProcess(["run.py"], 1, '{"correct": 1, "attempted": 1, '
                                        '"failed": 0, "metrics": {}}\n', "boom"),
            subprocess.CompletedProcess(["run.py"], 0, "env {}\nnot json\n", ""),
        ],
        ids=["timeout", "nonzero-exit", "malformed-last-line"],
    )
    def test_a_failed_run_is_recorded_without_metrics(self, monkeypatch, tmp_path, outcome):
        def fake_run(*args, **kwargs):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(bench_pair.subprocess, "run", fake_run)
        record = bench_pair.run_once(tmp_path, "ingest-250k")
        assert "error" in record and "metrics" not in record


class TestApplyVariant:
    def _tree(self, tmp_path):
        (tmp_path / "src" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "pkg" / "a.py").write_text("def f():\n    x = 1\n    y = 2\n")
        (tmp_path / "src" / "pkg" / "b.py").write_text("y = 2\n")
        return tmp_path

    @pytest.mark.parametrize("old", ["z = 3", "y = 2"], ids=["no-line", "two-lines"])
    def test_stops_unless_exactly_one_line_matches(self, tmp_path, old):
        with pytest.raises(SystemExit, match="matches [02] lines"):
            bench_pair.apply_variant(self._tree(tmp_path), f"{old} => w = 0")

    def test_rewrites_the_one_line_at_its_indentation(self, tmp_path):
        tree = self._tree(tmp_path)
        assert bench_pair.apply_variant(tree, "x = 1 => x = 5") == "src/pkg/a.py:2"
        assert (tree / "src" / "pkg" / "a.py").read_text() == "def f():\n    x = 5\n    y = 2\n"
