"""numpy is gfk's only runtime dependency: every other import is the standard
library or gfk itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gfk"
ALLOWED = {"numpy", "gfk"}


def test_src_imports_only_stdlib_numpy_and_gfk():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside gfk
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in ALLOWED:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []
