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
