"""Every definition in fwbench has a reader in the program.

A module-level function or class counts as used when it is read, as a name
or an attribute, somewhere in src/ or scripts/ outside its own definition,
or when the benchmark's span table (fwperf/spans.py) wraps it by its
"fwbench.module:name" path: the benchmark reports that function's metrics,
so moving it would change the benchmark.  A method or property of a class
counts as used when an attribute of that name is read in src/ or scripts/
off anything but an imported module: matching is by name only, so any
object's attribute of the same name counts, but np.linalg.norm does not
make a method named norm used.  Reads from the tests do not count: a
definition only the tests read is a test oracle and belongs in tests/.  The
re-exports in fwbench/__init__.py do not count as uses either.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fwbench"


def _modules_bound(tree) -> set:
    """Names that `import x [as y]` or `from . import x [as y]` bind."""
    return {alias.asname or alias.name.split(".")[0]
            for n in ast.walk(tree)
            if isinstance(n, ast.Import) or (isinstance(n, ast.ImportFrom) and n.module is None)
            for alias in n.names}


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _names_read(node, modules: set) -> tuple:
    """(names read as a name or an attribute, attribute names read off
    anything but an imported module)."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
            root = _root(n.value)
            if not (isinstance(root, ast.Name) and root.id in modules):
                attrs.add(n.attr)
    return names, attrs


def _benchmark_targets() -> set:
    """The "module.py:name" keys of the fwbench definitions that the
    benchmark's span table names."""
    text = (ROOT / "fwperf" / "spans.py").read_text()
    return {f"{mod}.py:{name}" for mod, name in re.findall(r'"fwbench\.(\w+):(\w+)"', text)}


def _scan() -> tuple:
    """(module-level definitions, class members, names read, attributes read
    off non-modules), where the definitions map "module:name" and the members
    "module:Class.name" to the name, and the names read exclude each
    definition's own name."""
    defined, members, used, attrs_used = {}, {}, set(), set()
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]:
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        modules = _modules_bound(tree)
        for stmt in tree.body:
            names, attrs = _names_read(stmt, modules)
            if path.parent == PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.name}:{stmt.name}"] = stmt.name
                names.discard(stmt.name)
            if path.parent == PACKAGE and isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        members[f"{path.name}:{stmt.name}.{item.name}"] = item.name
            used |= names
            attrs_used |= attrs
    return defined, members, used, attrs_used


def test_every_public_definition_has_a_caller():
    defined, _, used, _ = _scan()
    traced = _benchmark_targets()
    unused = sorted(key for key, name in defined.items()
                    if name not in used and key not in traced)
    assert not unused, f"definitions only the tests read, or nothing: {unused}"


def test_every_method_and_property_has_a_caller():
    _, members, _, attrs_used = _scan()
    unused = sorted(key for key, name in members.items() if name not in attrs_used)
    assert not unused, f"methods only the tests read, or nothing: {unused}"

