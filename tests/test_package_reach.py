"""Every top-level function and class in src/lh2, public or
underscore-prefixed, is reached from somewhere in the package besides its
own definition.

A name counts as reached when it is read as a Name or an Attribute; an
import alias alone does not count, so a definition that only the tests
call fails here, and so does a helper whose last caller went away.  In the
same way, every RunConfig field but n is read somewhere besides io_formats,
which parses and checks it, every parameter of a function, method or
lambda is read in its body, and every key a LossReport's stats dict is
built with is read by a subscript."""

import ast
import dataclasses
import math
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


def unread_stats_keys(package=PACKAGE):
    """Sorted constant keys of the dict displays passed as a LossReport's
    stats (its third positional argument or the stats keyword) that no
    subscript with that constant reads anywhere in the package."""
    built, read = set(), set()
    for path in sorted(Path(package).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "LossReport":
                stats = node.args[2:3] + [k.value for k in node.keywords if k.arg == "stats"]
                built |= {key.value for d in stats if isinstance(d, ast.Dict)
                          for key in d.keys if isinstance(key, ast.Constant)}
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                read.add(node.slice.value)
    return sorted(built - read)


def test_every_stats_key_is_read():
    assert unread_stats_keys() == []


def test_stats_key_scan_flags_keys_nothing_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def loss():\n"
        "    return LossReport(1.0, {\"t\": 1.0}, {\"read\": 1, \"orphan\": 2, **{}})\n\n\n"
        "def other():\n"
        "    return LossReport(1.0, {}, stats={\"kw_read\": 3, \"kw_orphan\": 4})\n")
    (tmp_path / "b.py").write_text("rep = loss()\nvalue = rep.stats[\"read\"]\n"
                                   "other = {\"orphan\": 0}\nx = other().stats[\"kw_read\"]\n")
    assert unread_stats_keys(tmp_path) == ["kw_orphan", "orphan"]


def unread_parameters(package=PACKAGE):
    """Sorted "module.function(line).parameter" of the parameters that their
    function's body never reads before it rebinds them: a Name must load
    the parameter no later than the last line of the first statement that
    assigns it.  self is exempt, and so are the lambdas handed to
    train_harness._z_and_W_pairs, which calls every loss as
    loss(batch, proxies) whether it reads both or not."""
    found = []
    for path in sorted(Path(package).glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        fixed = {id(node.args[0]) for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                 and node.func.id == "_z_and_W_pairs" and node.args}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                    or id(node) in fixed:
                continue
            args = node.args
            body = node.body if isinstance(node.body, list) else [node.body]
            loads, rebound = defaultdict(list), defaultdict(list)
            for inner in (n for stmt in body for n in ast.walk(stmt)):
                if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Load):
                    loads[inner.id].append(inner.lineno)
                elif isinstance(inner, ast.stmt):
                    for name in ast.walk(inner):
                        if isinstance(name, ast.Name) and not isinstance(name.ctx, ast.Load):
                            rebound[name.id].append(inner.end_lineno)
            for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if a is None or a.arg == "self":
                    continue
                deadline = min(rebound[a.arg], default=math.inf)
                if not any(line <= deadline for line in loads[a.arg]):
                    found.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}"
                                 f"({node.lineno}).{a.arg}")
    return sorted(found)


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_parameter_scan_flags_unread_parameters(tmp_path):
    (tmp_path / "a.py").write_text(
        "def f(a, b, *args, c=1, **kw):\n    return a\n\n\n"
        "def g(u, v, w):\n    u = 2\n    v = (1,\n         v)\n    return u + v + w\n\n\n"
        "class K:\n    def m(self, x):\n        return lambda y: x\n\n\n"
        "pairs = _z_and_W_pairs(lambda b, p: p, 1)\n")
    assert unread_parameters(tmp_path) == ["a.<lambda>(14).y", "a.f(1).args", "a.f(1).b",
                                           "a.f(1).c", "a.f(1).kw", "a.g(5).u"]
