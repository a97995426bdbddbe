"""Names that other code looks up at run time must keep resolving.

``perfbench/traced.py`` wraps library functions through ``getattr`` on the
module attribute the CLI calls them by, so a name can look unused here and
still be needed there.  Its lookups are read from its source, not copied.
"""

import ast
import importlib
from pathlib import Path

import depscale

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def traced_lookups() -> list[tuple[str, str]]:
    """(depscale submodule, attribute) pairs that ``traced.py`` wraps."""
    tree = ast.parse(TRACED.read_text(encoding="utf-8"))
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CLI_SPANS" for t in node.targets
        ):
            pairs += [("cli", attr) for attr in ast.literal_eval(node.value)]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and isinstance(node.args[0], ast.Name)
            and isinstance(node.args[1], ast.Constant)
        ):
            pairs.append((node.args[0].id, node.args[1].value))
    return pairs


def test_every_public_name_resolves():
    assert len(set(depscale.__all__)) == len(depscale.__all__)
    assert [n for n in depscale.__all__ if not hasattr(depscale, n)] == []


def test_every_traced_lookup_resolves():
    pairs = traced_lookups()
    for expected in (
        ("cli", "check_completeness"),
        ("io", "make_joint"),
        ("estimate", "bin_column"),
    ):
        assert expected in pairs
    missing = [
        f"{module}.{attr}"
        for module, attr in pairs
        if not callable(getattr(importlib.import_module(f"depscale.{module}"), attr, None))
    ]
    assert missing == []



def test_every_library_name_the_cli_holds_resolves_to_its_home():
    # The CLI imports most library modules on a name's first call, so a name
    # it holds must name a module and an attribute there that exist.
    from depscale import cli

    library = {
        name: value for name, value in vars(cli).items()
        if callable(value) and getattr(value, "__module__", "").startswith("depscale.")
        and value.__module__ != "depscale.cli"
    }
    assert {attr for module, attr in traced_lookups() if module == "cli"} <= set(library)
    unresolved = [
        name for name, value in library.items()
        if value.__name__ != name
        or not callable(getattr(importlib.import_module(value.__module__), name, None))
    ]
    assert unresolved == []
