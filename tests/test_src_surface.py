"""src/ holds only what a command runs: every top-level function and class
of src/voxuq, and every method of such a class, is named by some src/ code,
or is a click command. Code that only tests call belongs in tests/oracles.py.

The scan reads names, not behaviour: a definition counts as used when its
name appears as a Name or an Attribute node anywhere in src/voxuq, docstrings
and comments excluded. Dunder methods, which Python calls by protocol, are
exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voxuq"

# apply_corruption has no caller in src/: tests/test_tracer_observers.py wraps
# it through perfbench/tracer.py, whose corruption observer reads its spans,
# until the stage trace comes from inside the program (ROADMAP item 1b).
ALLOWED = {"synthworld.apply_corruption"}


def _is_click_command(node):
    """True when a decorator of `node` is a call of .command or .group."""
    for decorator in node.decorator_list:
        func = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("command", "group"):
            return True
    return False


def _definitions(module, tree):
    """(qualified name, bare name) of each definition the rule covers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not _is_click_command(node):
                yield "%s.%s" % (module, node.name), node.name
        elif isinstance(node, ast.ClassDef):
            yield "%s.%s" % (module, node.name), node.name
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield "%s.%s.%s" % (module, node.name, item.name), item.name


def unreferenced_definitions(src=SRC):
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return {qualified for module, tree in trees.items()
            for qualified, name in _definitions(module, tree) if name not in referenced}


def test_every_src_definition_is_used_by_src():
    assert sorted(unreferenced_definitions()) == sorted(ALLOWED)


def test_scan_flags_a_function_that_nothing_names(tmp_path):
    """The scan itself: a module-level function, a method and a class that no
    Name or Attribute node names are flagged, also when a docstring names them."""
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "extra.py").write_text(
        '"""orphan, Orphan and orphan_method are named here only."""\n\n\n'
        "def orphan():\n    pass\n\n\n"
        "class Orphan:\n    def __init__(self):\n        pass\n\n"
        "    def orphan_method(self):\n        pass\n")
    assert unreferenced_definitions(tmp_path) - ALLOWED == {
        "extra.orphan", "extra.Orphan", "extra.Orphan.orphan_method"}
