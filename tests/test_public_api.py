"""Every public top-level name of every package module is used outside the
tests: by the package itself, by the benchmark in ``perfbench/`` or in
README.md.  A name that only tests read is test-only API; the test that
needs it keeps a private copy or takes it from an independent oracle."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vortexscatter"


def defined_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names a module reads, bare or as an attribute; binding one is not a read."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_name_is_used_outside_the_tests():
    modules = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    public = {name for tree in modules.values() for name in defined_names(tree)
              if not name.startswith("_")}
    # the package's __init__ only re-exports; that is not a use
    users = [tree for p, tree in modules.items() if p.name != "__init__.py"]
    users += [ast.parse(p.read_text()) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    read = set().union(*map(read_names, users))
    readme = (ROOT / "README.md").read_text()
    unused = sorted(name for name in public
                    if name not in read and not re.search(rf"\b{name}\b", readme))
    assert unused == []
