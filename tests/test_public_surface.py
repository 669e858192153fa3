"""Every name the package exports is used by code outside the module that defines it."""

import ast
from pathlib import Path

import lightwalk

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lightwalk"
# the documented constants and return types: exported for those who read results
DOCUMENTED_ONLY = {"H_PLANCK", "U_CODATA", "SeparationReport", "Trajectory"}


def _names_used(tree: ast.AST) -> set[str]:
    """Names, attributes and imported names the code refers to, minus its own
    top-level definitions: perfbench's own ``H_PLANCK`` is not the package's."""
    used, defined = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return used - defined


def _span_table_strings() -> set[str]:
    """The attribute names perfbench's traced run wraps, written as strings."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    installed = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "installed")
    return {node.value for node in ast.walk(installed)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_exported_name_has_a_caller_outside_its_module():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    home = {alias.name: node.module for node in init.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules = {path.stem: _names_used(ast.parse(path.read_text(encoding="utf-8")))
               for path in PACKAGE.glob("*.py") if path.name != "__init__.py"}
    outside = _span_table_strings()
    for path in [*ROOT.joinpath("scripts").glob("*.py"), *ROOT.joinpath("perfbench").glob("*.py")]:
        outside |= _names_used(ast.parse(path.read_text(encoding="utf-8")))

    assert DOCUMENTED_ONLY <= set(lightwalk.__all__)
    uncalled = sorted(
        f"{name} ({home[name]})" for name in set(lightwalk.__all__) - DOCUMENTED_ONLY
        if name not in outside
        and not any(name in used for module, used in modules.items() if module != home[name])
    )
    assert uncalled == []
