"""The names the package exports and the README's library layout lists exist."""

import importlib
import re
from pathlib import Path

import causticlab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_and_documented_names_resolve():
    # a deleted or moved function otherwise lingers in __all__ or the README unnoticed
    for name in causticlab.__all__:
        assert hasattr(causticlab, name), name
    layout = README.read_text(encoding="utf-8").split("## Library layout\n", 1)[1]
    layout = layout.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(causticlab\.\w+)` \| (.*) \|$", layout, flags=re.MULTILINE)
    assert len(rows) == 7
    for modname, contents in rows:
        module = importlib.import_module(modname)
        for name in re.findall(r"`(\w+)`", contents):
            assert hasattr(module, name), (modname, name)
