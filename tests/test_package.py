"""The package root exports exactly what the demos import from it."""
import ast
from pathlib import Path

import qnnwitness

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def root_imports(path):
    tree = ast.parse(path.read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "qnnwitness"
            for alias in node.names}


def test_demo_imports_are_exported_and_exports_resolve():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    for path in demos:
        missing = root_imports(path) - set(qnnwitness.__all__)
        assert not missing, f"{path.name} imports {missing} outside __all__"
    for name in qnnwitness.__all__:
        assert getattr(qnnwitness, name) is not None
