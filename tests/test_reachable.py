"""Every function, class and method of `src/dpkam` is read by the package or
by the benchmark scripts `perfbench/*.py`, which are parsed, not imported.
Oracles and formulas that only tests read live in `tests/`."""
import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _names(node: ast.AST):
    """The names that `node` reads: Name ids, Attribute attrs and import aliases."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from {sub.name.rpartition(".")[2], sub.asname} - {None}


def unreached(root: pathlib.Path) -> list[str]:
    """`module.name` of each function, class or method of `root/src/dpkam`
    (dunders excluded) whose name is read nowhere outside its own definition."""
    package = sorted((root / "src" / "dpkam").glob("*.py"))
    trees = {path: ast.parse(path.read_text())
             for path in package + sorted((root / "perfbench").glob("*.py"))}
    reads = Counter(name for tree in trees.values() for name in _names(tree))
    return [f"{path.stem}.{node.name}" for path in package for node in ast.walk(trees[path])
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and reads[node.name] == sum(name == node.name for name in _names(node))]


def test_every_package_name_is_reached():
    assert unreached(ROOT) == []
