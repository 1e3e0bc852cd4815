"""No flipdist module imports an underscore-prefixed name from another,
every function, class and method of flipdist is used somewhere, the CLI
runs on the standard library alone, and the benchmark's tracer finds every
name it wraps.

Private names stay inside their module, so shared helpers such as the
exact geometry predicates live behind one public interface and cannot be
split into per-module copies again; a definition that nothing in `src/`,
`tests/` or `perfbench/` names is dead code.
"""

import ast
import re
import subprocess
import sys
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


ROOT = SRC.parent.parent
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def definitions(path: Path) -> list[tuple[str, int]]:
    """Functions, classes and methods defined in a module, dunders excepted."""
    return [(node.name, node.lineno)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def references(path: Path) -> set[str]:
    """Names a file uses: identifiers, attributes, imported names and the
    parts of dotted name strings (`"Class.method"`)."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and NAME.fullmatch(node.value):
            found.update(node.value.split("."))
    return found


def test_every_definition_is_referenced():
    used = set().union(*(references(p) for d in ("src", "tests", "perfbench")
                         for p in sorted((ROOT / d).rglob("*.py"))))
    unused = [f"{m.name}:{line} {name}" for m in sorted(SRC.glob("*.py"))
              for name, line in definitions(m) if name not in used]
    assert unused == []


def test_cli_import_leaves_out_networkx():
    """networkx is a test dependency only: importing it cost every CLI run
    about 0.2 s and 17 MiB."""
    code = "import sys, flipdist.cli; print('networkx' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent,
                         capture_output=True, text=True, check=True)
    assert run.stdout == "False\n"


def test_benchmark_traced_names_exist():
    """The benchmark's tracer wraps library names by their dotted paths, so
    deleting or renaming one (say `capped_transform_replays`,
    `ConvexRegion.__init__` or `_iorient`) breaks
    `perfbench/run.py --trace 1`."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import flipdist.cli, tracing; tracing.install(tracing.Tracer())")
    subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench")],
                   cwd=SRC.parent, check=True)
