"""Checks on the source text of the package itself."""

import ast
from pathlib import Path

import epa

PACKAGE = Path(epa.__file__).resolve().parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_every_imported_name_is_used():
    """A name a module imports is read somewhere in that module.  The
    package's ``__init__.py`` imports names to re-export them and is
    left out."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert not unused, unused
