"""Every name a module of src/ or tests/ imports is used in that module,
and every private function, method and class of src/ is used in src/.

No linter runs on this code, so this walks each module's syntax tree: an
import binds names, and a name counts as used when it is read somewhere in
the module. A private (`_`-prefixed, not dunder) definition counts as used
when some module of src/ reads its name, bare or as an attribute.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SRC = [p for p in MODULES if p.is_relative_to(ROOT / "src")]


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


def unread_private_definitions(sources):
    """(module, line, name) of each private function, method or class that
    no module of `sources` ({module: source}) reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return sorted((module, n.lineno, n.name) for module, tree in trees.items()
                  for n in ast.walk(tree)
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and n.name.startswith("_") and not n.name.endswith("__")
                  and n.name not in read)


def test_the_scan_finds_an_unread_private_definition():
    sources = {"a": "def _kept():\n    pass\n\n\nclass _Orphan:\n"
                    "    def _used(self):\n        return _kept()\n\n"
                    "    def __len__(self):\n        return 0\n",
               "b": "def _dead():\n    pass\n\n\nx = obj._used\n"}
    assert unread_private_definitions(sources) == [("a", 5, "_Orphan"), ("b", 1, "_dead")]


def test_every_private_definition_of_src_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC}
    assert unread_private_definitions(sources) == []
