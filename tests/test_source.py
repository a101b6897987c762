"""Checks on the source text of the package itself."""

import ast
from collections import Counter
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


def _private_definitions(tree: ast.Module):
    """Each module-level function, class or constant whose name starts
    with one underscore, with the statement that binds it."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _reads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a name or as an
    attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)) or isinstance(n, ast.Attribute)
    )


def test_every_private_definition_is_read():
    """A module-level ``_private`` function, class or constant is read
    somewhere in the package, outside the statement that defines it."""
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}
    reads = {name: _reads(tree) for name, tree in trees.items()}
    orphans = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            outside = reads[module][name] - _reads(node)[name]
            if outside <= 0 and not any(reads[m][name] for m in trees if m != module):
                orphans.append(f"{module}:{node.lineno}: {name}")
    assert not orphans, orphans


def test_one_form_of_the_clique_contraction():
    """The contraction G<Y> is ``graphs.contraction_rows``: no other
    module builds it with ``Graph.contract_with_pendant``, and the
    connected cover layer builds no derived graph at all."""
    reads = {path.name: _reads(ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    builders = [name for name, counts in reads.items()
                if name != "graphs.py" and counts["contract_with_pendant"]]
    assert not builders, builders
    derived = [name for name in ("induced_subgraph", "relabeled", "complement")
               if reads["connected_vc.py"][name]]
    assert not derived, derived


def _functions(module: str) -> dict[str, ast.FunctionDef]:
    path = PACKAGE / module
    return {node.name: node for node in ast.parse(path.read_text(), str(path)).body
            if isinstance(node, ast.FunctionDef)}


def test_one_packing_search_and_one_maximal_loop():
    """``oracle`` answers triangle packing and matching with one search,
    ``_max_packing``; ``packing`` builds a maximal packing and re-extends
    one after a swap in one loop, the only reader of ``first_triangle``."""
    readers = [name for name, node in _functions("packing.py").items()
               if _reads(node)["first_triangle"]]
    assert readers == ["_extend"], readers
    oracle = _functions("oracle.py")
    assert all(_reads(oracle[name])["_max_packing"]
               for name in ("exact_max_tp", "exact_max_matching_size"))


def test_vertex_cover_builds_no_derived_graph():
    """Every residual of the vertex cover rows is solved on a vertex mask
    in G's ids: ``vertex_cover`` reads no ``induced_subgraph``,
    ``relabeled`` or ``complement``."""
    path = PACKAGE / "vertex_cover.py"
    reads = _reads(ast.parse(path.read_text(), str(path)))
    derived = [name for name in ("induced_subgraph", "relabeled", "complement") if reads[name]]
    assert not derived, derived


def _attributes(node: ast.AST) -> Counter:
    """How often each attribute is read under ``node``.  Unlike
    ``_reads``, a local name such as ``adj`` does not count."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _edge_walks(node: ast.AST) -> int:
    """How many ``.edges()`` calls without arguments are under ``node``;
    ``certify``'s pattern table has an ``edges(k)`` of its own."""
    return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
               and n.func.attr == "edges" and not n.args for n in ast.walk(node))


def test_one_adjacency_form_in_the_algorithm_layer():
    """Every module but ``graphs`` reads the adjacency masks only: no
    ``.adj`` tuples and no ``.edges()``.  ``generator`` self-checks under
    a vertex mask and reads no ``induced_subgraph``; ``coloring`` reads
    it once, in ``color_with_class_oracle``."""
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "graphs.py"}
    found = [f"{name}.py: .adj" for name, tree in trees.items() if _attributes(tree)["adj"]]
    found += [f"{name}.py: .edges()" for name, tree in trees.items() if _edge_walks(tree)]
    assert not found, found
    assert not _attributes(trees["generator"])["induced_subgraph"]
    oracle = next(node for node in trees["coloring"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "color_with_class_oracle")
    assert _attributes(trees["coloring"])["induced_subgraph"] == 1
    assert _attributes(oracle)["induced_subgraph"] == 1


def test_one_edge_line_check_in_the_line_loop():
    """``instances._read_lines`` compares a line kind with ``"e"`` once:
    one branch checks an edge line."""
    loop = _functions("instances.py")["_read_lines"]
    compares = [node for node in ast.walk(loop) if isinstance(node, ast.Compare)
                and any(isinstance(c, ast.Constant) and c.value == "e"
                        for c in [node.left, *node.comparators])]
    assert len(compares) == 1, [node.lineno for node in compares]


def test_one_post_order_walk_of_a_cotree():
    """In ``recognize`` and ``solvers`` only ``Cotree._preorder`` and
    ``Cotree.fold`` read ``.children``: repr reads the preorder list, and
    evaluate and the cograph DP are combiners of the one fold."""
    readers = []
    for module in ("recognize.py", "solvers.py"):
        path = PACKAGE / module
        tree = ast.parse(path.read_text(), str(path))
        functions = [(f"{cls.name}.{node.name}", node) for cls in tree.body
                     if isinstance(cls, ast.ClassDef) for node in cls.body
                     if isinstance(node, ast.FunctionDef)]
        functions += [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        readers += [f"{module}: {name}" for name, node in functions if _attributes(node)["children"]]
    assert readers == ["recognize.py: Cotree._preorder", "recognize.py: Cotree.fold"], readers


def test_weights_are_scaled_in_one_place():
    """``reports.run_algorithm`` hands the solvers integer weights, so no
    solver module rescales them: ``solvers`` and ``vertex_cover`` read no
    ``lcm``, and ``vertex_cover`` reads no ``Fraction``."""
    reads = {module: _reads(ast.parse((PACKAGE / module).read_text()))
             for module in ("solvers.py", "vertex_cover.py")}
    found = [f"{module}: lcm" for module, counts in reads.items() if counts["lcm"]]
    found += ["vertex_cover.py: Fraction"] if reads["vertex_cover.py"]["Fraction"] else []
    assert not found, found
