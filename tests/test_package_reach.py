"""Every top-level function and class in src/lh2, public or
underscore-prefixed, is reached from somewhere in the package besides its
own definition.

A name counts as reached when it is read as a Name or an Attribute; an
import alias alone does not count, so a definition that only the tests
call fails here, and so does a helper whose last caller went away.  A
definition must also be reached, transitively, from the commands in cli.py
other than grad-check, save three named groups.  In the same way, every
RunConfig field but n is read somewhere besides io_formats,
which parses and checks it, every parameter of a function, method or
lambda is read in its body, and every key a LossReport's stats dict is
built with is read by a subscript.  And one definition alone makes an
object without its constructor: train_harness._raw_proxies, whose W probes
step the proxies off the sphere."""

import ast
import dataclasses
import math
from collections import defaultdict
from pathlib import Path

from lh2.io_formats import RunConfig

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lh2"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(package):
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(Path(package).glob("*.py"))}


def _read_names(node):
    """The names node reads as a Name or an Attribute."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr


def unreached_definitions(package=PACKAGE):
    """Sorted "module.name" of the top-level definitions that no Name or
    Attribute outside their own definition reads."""
    trees = _trees(package)
    # name -> the (module, enclosing top-level definition) of each read
    reads = defaultdict(set)
    for module, tree in trees.items():
        for top in tree.body:
            owner = top.name if isinstance(top, _DEFINITIONS) else None
            for name in _read_names(top):
                reads[name].add((module, owner))
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


def constructor_bypasses(package=PACKAGE):
    """Sorted "module.definition" of the top-level definition around each
    call of some X.__new__, which makes an object without running its
    constructor's checks; a definition appears once per such call."""
    return sorted(f"{module}.{getattr(top, 'name', '<module>')}"
                  for module, tree in _trees(package).items() for top in tree.body
                  for node in ast.walk(top)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "__new__")


def test_only_the_raw_proxies_bypass_a_constructor():
    assert constructor_bypasses() == ["train_harness._raw_proxies"]


def test_bypass_scan_flags_every_new_call(tmp_path):
    (tmp_path / "a.py").write_text(
        "class K:\n    @staticmethod\n    def make():\n        return K.__new__(K)\n\n\n"
        "def _raw():\n    k = K.__new__(K)\n    return k, object.__new__(K)\n\n\n"
        "def named():\n    return K.__new__\n\n\n"
        "CACHED = K.__new__(K)\n")
    (tmp_path / "b.py").write_text("from .a import K\n\nvalue = K()\n")
    assert constructor_bypasses(tmp_path) == ["a.<module>", "a.K", "a._raw", "a._raw"]


# the grad-check's entry points: neither a root nor followed
_GRAD_CHECK_ENTRIES = {"_cmd_grad_check", "grad_check"}


def unreached_from_commands(package=PACKAGE):
    """Sorted "module.name" of the top-level definitions that the commands
    do not reach.  The roots are the top-level definitions of cli.py; a
    reached definition reaches every top-level definition, in any module,
    whose name it reads as a Name or an Attribute.  The grad-check's entry
    points are cut out, so what only the grad-check reads is unreached."""
    tops = [(module, top) for module, tree in _trees(package).items() for top in tree.body
            if isinstance(top, _DEFINITIONS)]
    followed = defaultdict(list)
    for module, top in tops:
        if top.name not in _GRAD_CHECK_ENTRIES:
            followed[top.name].append(top)
    todo = [top for module, top in tops if module == "cli" and top.name in followed]
    reached = set(map(id, todo))
    while todo:
        for name in _read_names(todo.pop()):
            for top in followed.get(name, ()):
                if id(top) not in reached:
                    reached.add(id(top))
                    todo.append(top)
    return sorted(f"{module}.{top.name}" for module, top in tops if id(top) not in reached)


def test_the_commands_reach_every_definition_but_three_groups():
    # the gradcheck benchmark workload runs the four recon ops
    recon = {f"recon_losses.{name}" for name in (
        "PerceptualExtractor", "_masked_channels", "laplace_nll", "laplace_nll_grad",
        "_feature_residual", "perceptual_nll", "perceptual_nll_grad", "smoothness_grad",
        "smoothness_loss", "_view_gaps", "view_variance_grad", "view_variance_loss")}
    # the vMF similarity, which the margin softmax cancels to S; the choice
    # of margin decides whether training reads it
    vmf = {"sphere_math.vmf_similarity_batch", "sphere_math._log_normalizer",
           "sphere_math._log_bessel", "sphere_math._debye_tables",
           "sphere_math._debye_coefficients", "sphere_math._recurrence_table",
           "sphere_math._similarity_adjoint", "train_harness._similarity_sum"}
    # the grad-check itself
    grad_check = {"cli._cmd_grad_check", "train_harness.grad_check",
                  "train_harness._gradcheck_cases", "train_harness._z_and_W_pairs",
                  "train_harness._raw_proxies", "train_harness._central_diff",
                  "train_harness._max_rel_err", "train_harness._error_scale",
                  "train_harness._away_from"}
    assert unreached_from_commands() == sorted(recon | vmf | grad_check)


def test_command_reach_flags_what_only_the_grad_check_reads(tmp_path):
    (tmp_path / "cli.py").write_text(
        "def main():\n    return _cmd_train() + _cmd_grad_check()\n\n\n"
        "def _cmd_train():\n    return train()\n\n\n"
        "def _cmd_grad_check():\n    return grad_check()\n")
    (tmp_path / "harness.py").write_text(
        "def train():\n    return Model().step()\n\n\n"
        "class Model:\n    def step(self):\n        return _shared()\n\n\n"
        "def _shared():\n    return 1\n\n\n"
        "def grad_check():\n    return _probe()\n\n\n"
        "def _probe():\n    return _shared() + _probe_only()\n\n\n"
        "def _probe_only():\n    return 2\n")
    assert unreached_from_commands(tmp_path) == ["cli._cmd_grad_check", "harness._probe",
                                                 "harness._probe_only", "harness.grad_check"]


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
