"""``src/termeval`` holds only what the program runs.

Every public top-level function, class and constant must be read somewhere
in ``src/`` outside its own definition.  Code that only tests call belongs
in ``tests/``; reference implementations live in ``tests/reference.py``.
A use is matched by name (a bare name, or an attribute such as
``oracle.generate``), which is enough to catch a definition nobody reads.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "termeval"

# public names that nothing in src/ reads, and why each stays
ENTRY_POINTS = {
    "cli.ingest": "click command `termeval ingest`",
    "cli.run": "click command `termeval run`",
    "cli.check_witness": "click command `termeval check-witness`",
    "cli.score": "click command `termeval score`",
    "cli.precond_cmd": "click command `termeval precond`",
    "lasso.run_program": "runs the checker's interpreter on one assignment; "
                         "the gcc differential tests compare it with C",
    "precond.check_equivalence": "compares two formulas that are both "
                                 "checked against the variables; bench/ "
                                 "re-checks counterexamples with it",
}


def _definitions(tree: ast.Module):
    """(name, node) for every public top-level def, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node


def _reads(node: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read under ``node``, leaving out the subtree ``skip``."""
    names = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        stack.extend(ast.iter_child_nodes(sub))
    return names


def _public_names() -> tuple[set[str], set[str]]:
    """(every public top-level name, those never read in src/), as
    ``module.name``."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    reads = {module: _reads(tree) for module, tree in trees.items()}
    defined, unread = set(), set()
    for module, tree in trees.items():
        elsewhere = set().union(*(r for m, r in reads.items() if m != module))
        for name, node in _definitions(tree):
            defined.add(f"{module}.{name}")
            if name not in elsewhere and name not in _reads(tree, skip=node):
                unread.add(f"{module}.{name}")
    return defined, unread


def test_every_public_name_has_a_caller_in_src():
    defined, unread = _public_names()
    assert ENTRY_POINTS.keys() <= defined
    unread -= ENTRY_POINTS.keys()
    assert not unread, (
        f"defined in src/termeval but never read there: {sorted(unread)}; "
        "move test-only code to tests/ (reference code to tests/reference.py)")
