"""Every top-level function and class in src/lh2, public or
underscore-prefixed, is reached from somewhere in the package besides its
own definition.

A name counts as reached when it is read as a Name or an Attribute; an
import alias alone does not count, so a definition that only the tests
call fails here, and so does a helper whose last caller went away.  In the
same way, every RunConfig field but n is read somewhere besides io_formats,
which parses and checks it."""

import ast
import dataclasses
from collections import defaultdict
from pathlib import Path

from lh2.io_formats import RunConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lh2"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreached_definitions(package=PACKAGE):
    """Sorted "module.name" of the top-level definitions that no Name or
    Attribute outside their own definition reads."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
             for path in sorted(Path(package).glob("*.py"))}
    # name -> the (module, enclosing top-level definition) of each read
    reads = defaultdict(set)
    for module, tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, _DEFINITIONS) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    reads[node.id].add((module, owner))
                elif isinstance(node, ast.Attribute):
                    reads[node.attr].add((module, owner))
    return sorted(f"{module}.{top.name}"
                  for module, tree in trees.items() for top in tree.body
                  if isinstance(top, _DEFINITIONS)
                  and not reads[top.name] - {(module, top.name)})


def test_every_public_definition_is_reached():
    assert [name for name in unreached_definitions()
            if not name.split(".")[1].startswith("_")] == []


def test_every_private_helper_is_reached():
    assert [name for name in unreached_definitions()
            if name.split(".")[1].startswith("_")] == []


def test_scan_ignores_imports_and_self_reference(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return _helper()\n\n\n"
        "def _helper():\n    return 1\n\n\n"
        "def _orphan():\n    return 2\n\n\n"
        "def only_imported():\n    return only_imported()\n\n\n"
        "class Node:\n    def copy(self):\n        return Node()\n")
    (tmp_path / "b.py").write_text("from .a import only_imported, used\n\n"
                                   "value = used()\n")
    assert unreached_definitions(tmp_path) == ["a.Node", "a._orphan", "a.only_imported"]


def test_every_config_field_but_n_is_read():
    read = {node.attr for path in sorted(PACKAGE.glob("*.py")) if path.stem != "io_formats"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            if isinstance(node, ast.Attribute)}
    # n has no effect on a run; perfbench's workload configs still set it
    assert {f.name for f in dataclasses.fields(RunConfig)} - read == {"n"}
