"""Every function, class and method of the library is reached from the
library itself, the demos or the benchmark.

A name counts as reached when some module of src/, demos/ or perfbench/
mentions it, as a plain name, an attribute or an imported name, other than
in its own definition.  The match is by bare name, so a name shared by two
definitions covers both; the guard catches code that nothing mentions at
all, which is what a refactor leaves behind.

Every name a library module imports is also used in that module, unless
the module re-exports it through __all__.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "crepant"
CALLERS = [ROOT / "src", ROOT / "demos", ROOT / "perfbench"]

# Reached from outside the scanned code, each for the reason given.
ALLOWED = {
    "cli._Parser.error": "called by argparse",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def definitions(tree, prefix):
    """(qualified name, bare name) of every def and class, nested ones
    included; dunder methods are called by Python itself and are skipped."""
    for node in tree.body:
        if isinstance(node, DEFS):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield f"{prefix}.{node.name}", node.name
            yield from definitions(node, f"{prefix}.{node.name}")


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_library_name_is_reached():
    referenced = set()
    for base in CALLERS:
        for path in sorted(base.rglob("*.py")):
            referenced.update(references(ast.parse(path.read_text(), str(path))))
    defined = {}
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined.update(definitions(tree, path.stem))
    unreached = {q for q, name in defined.items() if name not in referenced}
    assert sorted(unreached - ALLOWED.keys()) == []
    # An allowlisted name that is now reached, or gone, leaves the list.
    assert ALLOWED.keys() <= unreached


def imported_names(tree):
    """Names bound by a module's imports, __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_library_import_is_used():
    unused = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}.{name}"
            for name in set(imported_names(tree)) - used - exported_names(tree)
        ]
    assert sorted(unused) == []
