"""Every name imported into a hopfgal module is used by that module.

A standard-library stand-in for a linter's unused-import rule.  A name
counts as used when the module's code or one of its doctests refers to
it: `groups` imports `PrimeSet` for its doctests only.
"""

import ast
import doctest
import pathlib

import pytest

MODULES = sorted(
    (pathlib.Path(__file__).parent.parent / "src" / "hopfgal").glob("*.py"))


def _imported(tree):
    """(bound name, line) of every import outside `__future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _referenced(tree):
    used = _names(tree)
    parser = doctest.DocTestParser()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            for example in parser.get_examples(doc or ""):
                used |= _names(ast.parse(example.source))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _referenced(tree)
    unused = ["%s (line %d)" % (name, line)
              for name, line in _imported(tree) if name not in used]
    assert not unused, "unused imports in %s: %s" % (path.name,
                                                     ", ".join(unused))
