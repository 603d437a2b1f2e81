"""Source hygiene: every import in the package is used in its module."""

import ast
from pathlib import Path

import besselweights

PACKAGE = Path(besselweights.__file__).parent


def _bound_names(node):
    """(name bound in the module, line) for each name an import statement binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno
    elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
        for alias in node.names:
            if alias.name != "*":
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each import whose bound name the module never reads.
    Names listed in __all__ count as read."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
    bound = [b for node in ast.walk(tree) for b in _bound_names(node)]
    return [(name, line) for name, line in bound if name not in used]


def test_scan_flags_an_unused_import():
    src = "import os\nimport math\nfrom x import y as z\n__all__ = ['z']\nmath.pi\n"
    assert unused_imports(src) == [("os", 1)]


def test_no_unused_imports_in_the_package():
    hits = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name, line in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert hits == []
