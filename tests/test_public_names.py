"""Every module-level public name of ``src/dexter`` is reached from code
outside the tests: from its own module or another module of the package
(``__init__.py``'s re-exports do not count), from the benchmark in
``perfbench/``, or from the README's "Library quickstart". A reference is a
name or an attribute of that spelling in the parsed code, outside the
name's own definition. A public wrapper that only tests call therefore
fails here."""

import ast
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "dexter")
PERFBENCH = os.path.join(ROOT, "perfbench")


def parse_file(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read())


def public_definitions(tree: ast.Module) -> dict:
    """Name -> defining statement for the module's public functions,
    classes and assigned names."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        found.update((name, node) for name in names if not name.startswith("_"))
    return found


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """The names read and the attribute names in ``tree``, outside ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def quickstart_code() -> list:
    """The code of the README's "Library quickstart", parsed: its ``python``
    blocks and each inline code span of the prose that is Python."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("## Library quickstart", 1)[1].split("\n## ", 1)[0]
    parts = section.split("```python\n")
    trees = [ast.parse(part.split("```", 1)[0]) for part in parts[1:]]
    prose = [parts[0]] + [part.split("```", 1)[1] for part in parts[1:]]
    for span in re.findall(r"`([^`\n]+)`", "".join(prose)):
        try:
            trees.append(ast.parse(span))
        except SyntaxError:
            pass
    return trees


def unreached(modules: dict, outside: list) -> list:
    """``module.name`` for each public name of ``modules`` (file name ->
    parsed module) that no module of ``modules`` but ``__init__.py`` and
    no tree of ``outside`` references outside its own definition."""
    outside_names = set().union(*(referenced_names(tree) for tree in outside))
    missing = []
    for module, tree in sorted(modules.items()):
        for name, node in public_definitions(tree).items():
            if name in outside_names:
                continue
            if not any(name in referenced_names(other, skip=node if other is tree else None)
                       for other_module, other in modules.items() if other_module != "__init__.py"):
                missing.append(f"{module[:-3]}.{name}")
    return sorted(missing)


def test_unreached_sees_only_references_outside_the_definition():
    modules = {
        "a.py": ast.parse("def used():\n    pass\n\ndef recursive():\n    recursive()\n\nX = 1\n"
                          "LIMIT = 2\nSHADOW = 3\n"),
        "b.py": ast.parse("from .a import used\nused()\n_limit = obj.LIMIT\nSHADOW = 4\n"),
        "__init__.py": ast.parse("from .a import X\n__all__ = ['X']\n"),
    }
    outside = [ast.parse("import a\nprint(a.recursive)\n")]
    assert unreached(modules, []) == ["a.SHADOW", "a.X", "a.recursive", "b.SHADOW"]
    assert unreached(modules, outside) == ["a.SHADOW", "a.X", "b.SHADOW"]


def test_every_public_name_is_reached_outside_the_tests():
    modules = {name: parse_file(os.path.join(SRC, name))
               for name in os.listdir(SRC) if name.endswith(".py")}
    benchmark = [parse_file(os.path.join(PERFBENCH, name))
                 for name in os.listdir(PERFBENCH) if name.endswith(".py")]
    quickstart = quickstart_code()
    assert "cli.py" in modules and benchmark and quickstart
    assert unreached(modules, benchmark + quickstart) == []
