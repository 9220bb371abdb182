"""Every definition in fwbench has a reader in the program.

A module-level function, class or assigned name (a constant or table)
counts as used when it is read, as a name or an attribute, somewhere in
src/ or scripts/ outside its own definition or assignment, when the
benchmark's span table (fwperf/spans.py) wraps it by its
"fwbench.module:name" path, or when the benchmark's driver (fwperf/run.py or
fwperf/workloads.py) reads it off an imported fwbench module: the benchmark
reports that function's metrics or calls it, so moving it would change or
break the benchmark.  A method or property of a class counts as used when
an attribute of that name is read in src/ or scripts/ off anything but an
imported module: matching is by name only, so any object's attribute of the
same name counts, but np.linalg.norm does not make a method named norm
used.  Reads from the tests do not count: a definition only the tests read
is a test oracle and belongs in tests/.  An OperatorFamily member
counts as used when its name is read as an attribute in src/ or scripts/
outside phase_ops.py, which defines it.
"""

import ast
import importlib
import re
import sys
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


def _benchmark_reads() -> set:
    """(module, name) for every attribute that fwperf/run.py and
    fwperf/workloads.py read off an imported fwbench module, such as
    ("fwbench.algebra", "identities_for_set") for algebra.identities_for_set
    after `import fwbench.algebra as algebra`."""
    reads = set()
    for script in ("run.py", "workloads.py"):
        tree = ast.parse((ROOT / "fwperf" / script).read_text())
        bound = {}
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                for alias in n.names:
                    if alias.name.split(".")[0] == "fwbench":
                        # `import fwbench.x` binds fwbench, `import fwbench.x as y` binds y
                        importlib.import_module(alias.name)
                        name = alias.asname or "fwbench"
                        bound[name] = alias.name if alias.asname else name
        for n in ast.walk(tree):
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                root, _, rest = ast.unparse(n.value).partition(".")
                module = ".".join(filter(None, (bound.get(root), rest)))
                if root in bound and module in sys.modules:
                    reads.add((module, n.attr))
    return reads


def test_every_benchmark_read_resolves():
    # a name the benchmark's driver reads that fwbench lacks ends the run as
    # run_failed; a removal or rename fails here instead
    reads = _benchmark_reads()
    assert {("fwbench.algebra", "identities_for_set"),
            ("fwbench.zitter", "record_evolution"), ("fwbench.cli", "main")} <= reads
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(sys.modules[module], name))
    assert not missing, f"names the benchmark reads that fwbench lacks: {missing}"


def _assigned(stmt) -> set:
    """The names a module-level assignment binds."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return set()
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _scan() -> tuple:
    """(module-level definitions, class members, names read, attributes read
    off non-modules), where the definitions map "module:name" and the members
    "module:Class.name" to the name, and the names read exclude each
    definition's own name."""
    defined, members, used, attrs_used = {}, {}, set(), set()
    for path in [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]:
        tree = ast.parse(path.read_text())
        modules = _modules_bound(tree)
        for stmt in tree.body:
            names, attrs = _names_read(stmt, modules)
            if path.parent == PACKAGE and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path.name}:{stmt.name}"] = stmt.name
                names.discard(stmt.name)
            if path.parent == PACKAGE:
                for name in _assigned(stmt):
                    defined[f"{path.name}:{name}"] = name
                    names.discard(name)
            if path.parent == PACKAGE and isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        members[f"{path.name}:{stmt.name}.{item.name}"] = item.name
            used |= names
            attrs_used |= attrs
    return defined, members, used, attrs_used


def _enum_members(tree, class_name: str) -> set:
    """The member names assigned in the body of the named class."""
    return {target.id
            for stmt in tree.body if isinstance(stmt, ast.ClassDef) and stmt.name == class_name
            for item in stmt.body if isinstance(item, ast.Assign)
            for target in item.targets if isinstance(target, ast.Name)}


def _attributes_read_outside(excluded: Path) -> set:
    """Attribute names read in src/ and scripts/ outside the excluded file."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "scripts").glob("*.py"))]
    return {n.attr
            for path in paths if path != excluded
            for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_every_public_definition_has_a_caller():
    defined, _, used, _ = _scan()
    used |= {name for _, name in _benchmark_reads()}
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
    assert members
    unread = sorted(members - _attributes_read_outside(phase_ops))
    assert not unread, f"OperatorFamily members no product code reads: {unread}"
