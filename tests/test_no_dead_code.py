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
re-exports in fwbench/__init__.py do not count as uses either.  An
OperatorFamily member counts as used when its name is read as an attribute
in src/ or scripts/ outside phase_ops.py, which reads every member to build
it.
"""

import ast
import importlib
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


def test_every_benchmark_traced_name_resolves():
    # the benchmark skips a traced name that no longer exists and reports its
    # metrics as absent; a rename fails here instead
    targets = [key.split(".py:") for key in sorted(_benchmark_targets())]
    assert targets
    missing = [f"fwbench.{module}:{name}" for module, name in targets
               if not callable(getattr(importlib.import_module(f"fwbench.{module}"), name, None))]
    assert not missing, f"names the benchmark traces that fwbench lacks: {missing}"


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


# Families that no product code reads yet: the Dirac-representation forms of
# the sets, waiting for the Dirac-representation sets and their covariance
# oracle (ROADMAP item 6).
PENDING_FAMILIES = {
    "NW_POSITION_DIRAC", "MEAN_SPIN_DIRAC", "BOOST_DIRAC", "COM_POSITION_DIRAC",
    "LAB_SPIN_DIRAC", "PROJECTED_POSITION_DIRAC", "PROJECTED_SPIN_DIRAC",
}


def _enum_members(tree, class_name: str) -> set:
    """The member names assigned in the body of the named class."""
    return {target.id
            for stmt in tree.body if isinstance(stmt, ast.ClassDef) and stmt.name == class_name
            for item in stmt.body if isinstance(item, ast.Assign)
            for target in item.targets if isinstance(target, ast.Name)}


def _attributes_read_outside(excluded: Path) -> set:
    """Attribute names read in src/ and scripts/ outside the excluded file
    and fwbench/__init__.py."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
    return {n.attr
            for path in paths if path not in (excluded, PACKAGE / "__init__.py")
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


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


def test_every_operator_family_has_a_reader():
    phase_ops = PACKAGE / "phase_ops.py"
    members = _enum_members(ast.parse(phase_ops.read_text()), "OperatorFamily")
    assert PENDING_FAMILIES <= members
    read_outside = _attributes_read_outside(phase_ops)
    unread = sorted(members - PENDING_FAMILIES - read_outside)
    assert not unread, f"OperatorFamily members no product code reads: {unread}"
    read = sorted(PENDING_FAMILIES & read_outside)
    assert not read, f"pending families that now have a reader; unlist them: {read}"
