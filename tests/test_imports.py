"""Every name imported into a hopfgal module is used by that module, and
every public function and class has a caller in src/.

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


# Public module-level names that nothing else in src/ refers to, each with
# the reason it stays.
UNCALLED_BY_DESIGN = {
    "bar.unnormalized_homology":
        "reference route: tests compare bar homology with it",
    "cubes.is_double_extension":
        "reference route: tests compare is_n_extension on squares with it",
    "freenil.witt_number":
        "reference route: tests count Hall basis letters with it",
    "pcseq.derived_subgroup":
        "reference route: tests compare derived_in with this closed form",
    "galois.galois_groupoid": "ROADMAP item 2 runs it on Schur covers",
    "galois.normal_radical_check": "ROADMAP item 2 runs it on Schur covers",
    "pcseq.materialize_quotient": "ROADMAP item 2 builds Schur covers with it",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            yield node


def _names_outside(tree, skip):
    """Names read anywhere in `tree` except inside the node `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_public_names_have_a_caller_in_src():
    """A public function or class that only tests call is dead weight.

    Doctests do not count as callers, and neither does an import.
    """
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in MODULES}
    names = {stem: _names_outside(tree, None) for stem, tree in trees.items()}
    uncalled = set()
    for stem, tree in trees.items():
        for node in _public_definitions(tree):
            elsewhere = [names[other] for other in trees if other != stem]
            elsewhere.append(_names_outside(tree, node))
            if not any(node.name in used for used in elsewhere):
                uncalled.add("%s.%s" % (stem, node.name))
    assert uncalled - set(UNCALLED_BY_DESIGN) == set(), \
        "public names with no caller in src/"
    assert set(UNCALLED_BY_DESIGN) - uncalled == set(), \
        "stale entries: these now have a caller in src/ or are gone"
