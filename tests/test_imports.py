"""Every import in the package and the test suite is used, every public
function or class of the package is used by the package itself, and
sympy is imported only where it is first needed, never on the import or
parse path."""

import ast
import json
import os
import subprocess
import sys
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


def _import_time_nodes(node):
    """node's descendants that run when the module is imported: all but
    the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _import_time_nodes(child)


def test_no_module_level_sympy_import():
    """Importing nlca loads no sympy: a module may import it inside a
    function only, where it is first needed."""
    found = []
    for path in sorted((ROOT / "src" / "nlca").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in _import_time_nodes(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "sympy" for m in mods):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


def _fresh(code, *args):
    """The JSON that code prints, run with args in a fresh interpreter on
    the source tree."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SYMPY_FREE = """
import json, sys
from pathlib import Path
import nlca.cli
from nlca.frontend import parse_path

algebras = Path(nlca.cli.__file__).parent / "algebras"
for path in sorted(algebras.glob("*.nlca")):
    parse_path(path)
codes = []
for argv in json.loads(sys.argv[1]):
    argv = [str(algebras / a) if a.endswith(".nlca") else a for a in argv]
    codes.append(nlca.cli.main(argv))
print(json.dumps([codes, "sympy" in sys.modules]))
"""


def test_sympy_stays_out_of_import_parsing_and_free_fields(tmp_path):
    bad = tmp_path / "bad.nlca"
    bad.write_text("generator L parity=even degree=2;\nbracket [L,L] = ;\n")
    runs = [(["character", "virasoro.nlca", "--max-weight", "24"], 0),
            (["basis", "virasoro.nlca", "--weight", "6"], 0),
            (["check", "free_boson.nlca"], 0),
            (["check", "free_fermion.nlca"], 0),
            (["ope", "free_boson.nlca", ":a a:", ":T a a:"], 0),
            (["reduce", "free_boson.nlca", ":T^3 a T a a:"], 0),
            (["check", str(bad)], 2)]
    codes, loaded = _fresh(SYMPY_FREE, json.dumps([a for a, _ in runs]))
    assert codes == [code for _, code in runs]
    assert not loaded


def test_a_quadratic_denominator_loads_sympy_to_factor_it():
    """factor_list splits c^2 - 1 while parsing; the scalar renders as it
    did when sympy was imported with nlca."""
    code = """
import json, sys
from nlca.frontend import parse_source, render_presentation
pres = parse_source(
    "param c;\\ngenerator L parity=even degree=2 weight=2;\\n"
    "bracket [L,L] = ((c + 1)/(c^2 - 1) + 1/(2*c^2 + 2))*lambda^3*1;\\n")
print(json.dumps(["sympy" in sys.modules, render_presentation(pres)]))
"""
    loaded, text = _fresh(code)
    assert loaded
    assert ("bracket [L,L] = ((2*c^2 + c + 1)/(2*c^3 - 2*c^2 + 2*c - 2))"
            "*lambda^3*1;") in text
