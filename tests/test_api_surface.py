"""Every public name of the package must have a user outside the tests.

The check parses ``src/m3ad/*.py`` and ``bench/*.py`` with ``ast``,
leaving out the benchmark's own ``test_*.py`` files. A public top-level
function or class, or a public method of a class, is in use when some
code in either tree refers to it other than by defining it: as a bare
name (``ast.Name``), as an attribute (``ast.Attribute``), or as a part
of a dotted string in ``bench/``, which is how the tracer names the
callables it wraps. A name that only tests reach is dead weight: delete
it with its tests.

Blind spot: names are matched without their owner, so a method that
shares its name with one in use, such as a ``zero_grad`` on ``Tensor``
next to ``Module.zero_grad``, is not caught.

The second check applies the same rule to defaulted parameters. Every
parameter with a default of a public function, a public method or an
``__init__`` (skipping ``__call__``, whose calls name an instance, not
the callable) must be passed, by keyword or by position, by some call in
either tree that names the function, or the class for ``__init__``. A
default that no call overrides is a constant, or an option only tests
use. ``_TEST_SEAMS`` names the parameters that exist for the tests to
drive. Blind spots: calls match by bare name, so numpy's ``.sum(axis=...)``
calls hide ``Tensor.sum``'s parameters; a call that unpacks ``*args`` or
``**kwargs`` counts as passing every parameter it could fill; and a
callable passed by value and called under another name is not seen.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _trees(folder: str) -> dict[str, ast.Module]:
    return {str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / folder).glob("*.py"))
            if not path.name.startswith("test_")}


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name) of each public top-level function or
    class and each public method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module, strings: bool) -> set[str]:
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and _DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def test_every_public_name_has_a_user_outside_the_tests():
    package, bench = _trees("src/m3ad"), _trees("bench")
    assert package, "no package sources found"
    used: set[str] = set()
    for tree in package.values():
        used |= _references(tree, strings=False)
    for tree in bench.values():
        used |= _references(tree, strings=True)
    unused = [f"{path}: {qualified}"
              for path, tree in {**package, **bench}.items()
              for qualified, bare in _public_definitions(tree) if bare not in used]
    assert not unused, "public names that only tests reach:\n" + "\n".join(unused)


# parameters whose defaults only the tests override: the argument vector
# of the CLI entry point and the seed gradient of a non-scalar backward
_TEST_SEAMS = {"src/m3ad/cli.py: main(argv)", "src/m3ad/numerics.py: Tensor.backward(grad)"}


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, name callers use, {parameter: position or None})
    of each public function, public method and ``__init__``; a
    keyword-only parameter has no position."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = [(node.name, node.name, node, False)]
        elif isinstance(node, ast.ClassDef):
            functions = [(f"{node.name}.{item.name}",
                          node.name if item.name == "__init__" else item.name, item,
                          not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                  for d in item.decorator_list))
                         for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and (item.name == "__init__" or not item.name.startswith("_"))]
        else:
            continue
        for qualified, called_as, fn, bound in functions:
            if called_as.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            params = {arg.arg: i - bound
                      for i, arg in enumerate(positional)
                      if i >= len(positional) - len(fn.args.defaults)}
            params.update({arg.arg: None for arg, default in
                           zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None})
            if params:
                yield qualified, called_as, params


def _passed(trees) -> dict[str, set]:
    """Per called name, the keywords and positions its calls pass; "*"
    and "**" stand for unpacked arguments."""
    out: dict[str, set] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            seen = out.setdefault(name, set())
            for i, arg in enumerate(node.args):
                seen.add("*" if isinstance(arg, ast.Starred) else i)
            seen.update(kw.arg or "**" for kw in node.keywords)
    return out


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    package, bench = _trees("src/m3ad"), _trees("bench")
    passed = _passed([*package.values(), *bench.values()])
    unused = []
    for path, tree in package.items():
        for qualified, called_as, params in _defaulted_parameters(tree):
            seen = passed.get(called_as, set())
            for param, position in params.items():
                if param in seen or "**" in seen:
                    continue
                if position is not None and (position in seen or "*" in seen):
                    continue
                unused.append(f"{path}: {qualified}({param})")
    unused = sorted(set(unused) - _TEST_SEAMS)
    assert not unused, "defaulted parameters that only tests pass:\n" + "\n".join(unused)
