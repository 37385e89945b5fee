"""The package binds every name that the demos and the benchmark's tracer
look up in it."""
import ast
import importlib
from pathlib import Path

import qnnwitness

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


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


def test_every_name_the_tracer_wraps_is_bound():
    """perfbench/spans.py replaces the module attributes listed in WRAPPED,
    so a simplification that stops binding one (say, no longer importing
    catalog into learning) breaks only traced benchmark runs. WRAPPED is
    read from the file's source, which is neither run nor written here.
    ROADMAP item 6 replaces WRAPPED with spans declared in the package, and
    this test goes with it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    wrapped = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "WRAPPED"
                           for t in node.targets))
    assert wrapped
    for module, attr, _ in wrapped:
        bound = getattr(importlib.import_module(f"qnnwitness.{module}"),
                        attr, None)
        assert callable(bound), f"qnnwitness.{module} binds no {attr}"
