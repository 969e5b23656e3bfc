"""Static checks of the package source."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quasizeros"


def _private_definitions(tree):
    """The module-level private functions and classes of a module tree."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _references(node, skip):
    """The names that node reads, by bare name or as an attribute, outside
    the subtrees in skip."""
    if node in skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def test_every_private_symbol_is_used():
    # a helper left behind by a deletion or an inlining is referenced only
    # by its own definition
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    unused = []
    for name, tree in trees.items():
        for definition in _private_definitions(tree):
            if not any(definition.name in _references(other, {definition})
                       for other in trees.values()):
                unused.append(f"{name}: {definition.name}")
    assert unused == []


def _functions_reading(tree, name):
    """The functions of a module tree whose bodies read name, by bare name or
    as an attribute."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and name in _references(node, set())]


def test_one_certification_decision():
    # the residual gate and the Rouche list are read in one function, which
    # decides every certificate, so a change to either is made once
    tree = ast.parse((PACKAGE / "certify.py").read_text())
    gate = _functions_reading(tree, "RESIDUAL_GATE")
    assert len(gate) == 1
    assert _functions_reading(tree, "rouche_holds_list") == gate


def test_one_walk_tail():
    # the ladder and the box walk end in one function, which alone polishes
    # a walk's seeds, mirrors the conjugates and checks the indices, so the
    # polish's acceptance and its failure are written once
    trees = [ast.parse((PACKAGE / name).read_text()) for name in ("zeros.py", "certify.py")]

    def readers(name):
        return sorted(f for tree in trees for f in _functions_reading(tree, name))

    tail = readers("_mirror")
    assert len(tail) == 1
    assert readers("_check_indices") == tail
    assert readers("_newton_polish") == sorted([*tail, "newton_refine"])


def test_one_document_writer():
    # main alone builds the quasi-polynomial, writes the document and picks
    # the exit code, so a change to what every command writes or how it
    # exits is made once; the handlers only compute
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    for name in ("document", "_write", "EXIT_VERIFICATION", "QuasiPolynomial"):
        assert _functions_reading(tree, name) == ["main"], name
