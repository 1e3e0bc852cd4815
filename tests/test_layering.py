"""No flipdist module imports an underscore-prefixed name from another.

Private names stay inside their module, so shared helpers such as the
exact geometry predicates live behind one public interface and cannot be
split into per-module copies again.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "flipdist"


def private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("flipdist")):
            found += [f"{path.name}:{node.lineno} imports {a.name}"
                      for a in node.names if a.name.startswith("_")]
    return found


def test_modules_import_no_private_names():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert [hit for m in modules for hit in private_imports(m)] == []
