"""Every report in the golden corpus, byte for byte.

``tests/golden/records.json`` holds the exit code, stdout and stderr of
each invocation in ``tests/golden/regen.py``; this test replays them all in
one child interpreter and compares.  A change that moves a report on
purpose rewrites the records with ``python tests/golden/regen.py``.
"""

from __future__ import annotations

import difflib
import json

import pytest

from golden.regen import RECORDS, changed, invocations, name, replay


def _lines(record: dict) -> list[str]:
    return [f"exit {record['exit']}", "stdout:", *record["stdout"].splitlines(),
            "stderr:", *record["stderr"].splitlines()]


def test_every_report_matches_its_record():
    golden = json.loads(RECORDS.read_text(encoding="utf-8"))
    recorded, argvs = golden["records"], invocations()
    assert [r["argv"] for r in recorded] == argvs, \
        "records.json does not list the cases of regen.py: run python tests/golden/regen.py"
    stamp, records = replay(argvs)
    diffs = [
        f"{name(want['argv'])}\n" + "\n".join(difflib.unified_diff(
            _lines(want), _lines(got), "recorded", "now", lineterm=""))
        for want, got in zip(recorded, records) if got != want
    ]
    if diffs:
        host = "" if stamp == golden["stamp"] else (
            f"\nThis host is {stamp}; the records were made on {golden['stamp']}. "
            "Last bits can differ between hosts without any change to the code.")
        pytest.fail(f"{len(diffs)} of {len(recorded)} reports differ from {RECORDS.name}:\n"
                    + "\n\n".join(diffs) + host)


def test_regen_names_only_the_records_that_changed():
    a = {"argv": ["compute", "a.csv"], "exit": 0, "stdout": "{}\n", "stderr": ""}
    b = {"argv": ["oracle", "a.csv"], "exit": 0, "stdout": "{}\n", "stderr": ""}
    assert changed([a, b], [a, b]) == []
    for field, value in [("exit", 2), ("stdout", "[]\n"), ("stderr", "warning\n")]:
        assert changed([a, b], [a, dict(b, **{field: value})]) == [b["argv"]]
    assert changed([a], [a, b]) == [b["argv"]]  # a new case
