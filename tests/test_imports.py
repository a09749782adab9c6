"""Every import in the package and the test suite is used, and every
public function or class of the package is used by the package itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bound_names(node):
    """(name, line) for each name an import statement binds."""
    if isinstance(node, ast.Import):
        for a in node.names:
            yield (a.asname or a.name.split(".")[0]), node.lineno
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        for a in node.names:
            yield (a.asname or a.name), node.lineno


def _used_names(tree):
    """Names read anywhere, including inside string annotations and
    __all__ entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used_names(ast.parse(sub.value, mode="eval"))
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts}
    return used


def test_no_unused_imports():
    paths = [p for p in sorted((ROOT / "src" / "nlca").glob("*.py"))
             if p.name != "__init__.py"]  # __init__ re-exports
    paths += sorted((ROOT / "tests").glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        used = _used_names(tree)
        for node in ast.walk(tree):
            for name, line in _bound_names(node):
                if name not in used:
                    found.append("%s:%d: %s" % (path.name, line, name))
    assert found == []


def test_no_library_code_only_tests_use():
    """Each public module-level function or class of src/nlca is read
    somewhere in the package, or exported in nlca.__all__ (read by
    _used_names from __init__.py)."""
    trees = {p.name: ast.parse(p.read_text(), str(p))
             for p in sorted((ROOT / "src" / "nlca").glob("*.py"))}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    found = ["%s:%d: %s" % (name, node.lineno, node.name)
             for name, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and not node.name.startswith("_") and node.name not in used]
    assert found == []
