"""Every module-level function and class of fwbench, public or private,
has a caller.

A name counts as used when it is read, as a name or an attribute, somewhere
in src/, scripts/ or tests/ outside its own definition.  The re-exports in
fwbench/__init__.py do not count as uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fwbench"


def _names_read(node) -> set:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_public_definition_has_a_caller():
    files = [path for pattern in ("src/fwbench/*.py", "scripts/*.py", "tests/*.py")
             for path in sorted(ROOT.glob(pattern))]
    defined, used = {}, set()
    for path in files:
        if path == PACKAGE / "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _names_read(stmt)
            if (path.parent == PACKAGE
                    and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))):
                defined[stmt.name] = path.name
                names.discard(stmt.name)
            used |= names
    unused = sorted(f"{module}:{name}" for name, module in defined.items()
                    if name not in used)
    assert not unused, f"definitions nothing calls: {unused}"
