"""Every public name the library defines is used by the library itself,
and every name a library module imports is loaded by that module.

A name that only tests load belongs in the tests (tests/oracles.py), not in
gfk. The scans cover the modules of src/gfk except __init__.py, whose
imports re-export names without using them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gfk"

# perfbench/tracer.py wraps eval.iou_bev and eval.iou_3d by name to count
# calls per IoU kind, so they stay although evaluate shares one clip per pair.
ALLOWED = {"iou_bev", "iou_3d"}

# perfbench/tracer.py wraps io_cli.read_predictions by name, so io_cli
# imports it without calling it.
ALLOWED_IMPORTS = {"io_cli.read_predictions"}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _public_definitions(tree: ast.Module, module: str) -> list[str]:
    """module.name for each public module-level definition, and
    module.Class.name for each public method or property."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        out += [f"{module}.{name}" for name in names if not name.startswith("_")]
        if isinstance(node, ast.ClassDef):
            out += [f"{module}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def test_every_public_name_is_loaded_by_the_library():
    defined, loaded = [], set()
    for module, tree in _modules():
        defined += _public_definitions(tree, module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = [name for name in defined
              if name.rpartition(".")[2] not in loaded | ALLOWED]
    assert not unused, f"public names no library code loads: {unused}"


def test_every_imported_name_is_loaded_by_its_module():
    unused = []
    for module, tree in _modules():
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{module}.{name}" for name in sorted(imported - loaded)
                   if f"{module}.{name}" not in ALLOWED_IMPORTS]
    assert not unused, f"imported names their module never loads: {unused}"
