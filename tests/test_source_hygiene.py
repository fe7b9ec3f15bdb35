"""Static checks on the source: no unused import, no unnamed definition, no int
division, no Groebner kernel called outside `groebner.py`, no weight class
internals named outside `cocycle.py`.

All read the abstract syntax tree, so comments and docstrings never count
as a use.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "unitwist"
READERS = ("src", "tests", "demos", "perfbench")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _docstrings(tree):
    """The string constants that are docstrings, by identity."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                out.add(id(body[0].value))
    return out


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"), ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _tree(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(n for n in bound if n not in used) == []


def _references():
    """Every identifier the readers name, with the definition nodes it sits in.

    A name counts where it is a variable, an attribute, an imported name or a
    word of a string that is not a docstring (a traced boundary, a getattr).
    """
    refs = {}
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = _tree(path)
            docs = _docstrings(tree)

            def visit(node, inside):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inside = inside | {(path, node.lineno)}
                words = ()
                if isinstance(node, ast.Name):
                    words = (node.id,)
                elif isinstance(node, ast.Attribute):
                    words = (node.attr,)
                elif isinstance(node, ast.alias):
                    words = (node.name.split(".")[-1],)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and id(node) not in docs:
                    words = re.findall(r"[A-Za-z_][A-Za-z_0-9]*", node.value)
                for w in words:
                    refs.setdefault(w, []).append(inside)
                for child in ast.iter_child_nodes(node):
                    visit(child, inside)

            visit(tree, frozenset())
    return refs


def test_every_definition_is_named_elsewhere():
    refs = _references()
    unnamed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # a recursive call inside the definition itself does not count
            if not any((path, node.lineno) not in inside for inside in refs.get(name, ())):
                unnamed.append("%s:%d %s" % (path.relative_to(ROOT), node.lineno, name))
    assert unnamed == []


@pytest.mark.parametrize("top", ["src", "tests"])
def test_no_division_of_the_int_constants(top):
    # poly.ONE and poly.ZERO are ints, so ONE / x is a float division when x is an int
    found = []
    for path in sorted((ROOT / top).rglob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                left = node.left
                name = left.id if isinstance(left, ast.Name) else getattr(left, "attr", None)
                if name in ("ONE", "ZERO"):
                    found.append("%s:%d" % (path.relative_to(ROOT), node.lineno))
    assert found == []


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "groebner.py"), ids=lambda p: p.name)
def test_ideal_work_goes_through_ideal(path):
    # an ideal's reduced basis and normal forms come from `Ideal` (or
    # `eliminate`), which computes the basis once under the order it owns
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("buchberger", "normal_form"):
                found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []


# the pivot form, the support walk's tables and the sum monoid that
# `WeightIndex` reads, behind `WeightGrading` and `Support`
GRADING_INTERNALS = {"class_memos", "_delta_classes", "_graded_terms", "form", "step", "height",
                     "leg_groups", "_groups", "level", "_levels", "_found", "_partners",
                     "monoid", "closure", "sums", "_sums"}


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "cocycle.py"), ids=lambda p: p.name)
def test_grading_internals_stay_in_cocycle(path):
    # other modules read a grading, a support and an index through their
    # public methods (`weight`, `lengths`, `term_pairs`, `upto`, `partners`,
    # `triples`), never their pivot forms, steps, levels, sums, tables or
    # memos, and define no walk of their own under those names
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in GRADING_INTERNALS:
            found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert found == []
