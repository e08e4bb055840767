"""Every name a module of src/ or tests/ imports is used in that module.

No linter runs on this code, so this walks each module's syntax tree: an
import binds names, and a name counts as used when it is read somewhere in
the module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom a import b as c, d\nprint(sys.argv, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_every_module_uses_every_import():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
