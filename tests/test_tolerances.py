"""Every numerical tolerance of the package lives in one table in ``joints``.

A float literal at or below 1e-6 anywhere else in ``src/depscale`` is a
tolerance chosen on its own, against no stated scale.  This guard fails on
one, so a scattered tolerance cannot return unnoticed.  Zero is not a
tolerance and is allowed everywhere.
"""

import ast
from pathlib import Path

import depscale.ace
import depscale.joints
import depscale.spectral
import depscale.structure

SRC = Path(__file__).resolve().parents[1] / "src" / "depscale"


def _table_values(tree: ast.Module) -> set[int]:
    """The value nodes of the module-level UPPER_CASE assignments."""
    return {
        id(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets)
    }


def test_small_float_literals_live_only_in_the_joints_table():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = _table_values(tree) if path.name == "joints.py" else set()
        stray += [
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) <= 1e-6 and id(node) not in table
        ]
    assert stray == []


def test_moved_tolerances_are_the_table_entries():
    assert depscale.ace.ROUNDOFF is depscale.joints.ROUNDOFF
    assert depscale.spectral.SPECTRUM_SLACK is depscale.joints.SPECTRUM_SLACK
    assert depscale.structure.CONSTRUCTION_MASS_TOL is depscale.joints.CONSTRUCTION_MASS_TOL
