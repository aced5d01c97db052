"""Every name imported into a hopfgal module is used by that module,
every public function, class and method has a caller in src/, and every
function the benchmark's tracer wraps exists under its name.

A standard-library stand-in for a linter's unused-import rule.  A name
counts as used when the module's code or one of its doctests refers to
it: `groups` imports `PrimeSet` for its doctests only.
"""

import ast
import doctest
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent
MODULES = sorted((ROOT / "src" / "hopfgal").glob("*.py"))


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
    "freenil.witt_number":
        "reference route: tests count Hall basis letters with it",
    "pcseq.derived_subgroup":
        "reference route: tests compare the member commutators of the "
        "whole group with this closed form",
    "pcseq.materialize_quotient":
        "ROADMAP items 2 and 3 certify presentations and build tables "
        "with it",
}


# Public methods whose attribute name nothing else in src/ reads, each
# with the reason it stays.
METHODS_UNCALLED_BY_DESIGN = {
    "abelian.FgAbelianGroup.torsion_part":
        "reference route: tests check quotient_by_torsion against it",
    "groups.FiniteGroup.abelianization":
        "reference route: tests compare bar H1 and derived_subgroup with it",
    "freenil.NilWord.exps":
        "reference route: tests and doctests compare dense exponent "
        "vectors with it; src/ builds matrix rows from the syllables",
    "hopf.HopfResult.to_json":
        "ROADMAP item 8 puts the whole result in the homology report",
}


# Public methods whose name another class also defines, as a method or
# in `__slots__`, each with the scope in src/ that calls it.  A read of
# such a name may be of the other owner, so only the named scope counts.
SHARED_NAME_CALLERS = {
    "abelian.FgAbelianGroup.to_json": "cli._factors_json",
    "checks.CheckReport.ok": "checks.CheckReport.summary",
    "cli.RunReport.to_json": "cli.RunReport.render",
    "freenil.FreeNilGroup.identity": "freenil.NilWord.pow",
    "freenil.FreeNilGroup.inverse": "freenil.NilWord.inverse",
    "freenil.NilWord.inverse": "pcseq.split_kernel",
    "freenil.NilWord.mul": "pcseq.reduce_against",
    "groups.GroupHom.kernel": "galois.galois_group",
    "hopf.NilPresentation.ambient": "hopf.build_presentation_cube",
    "matrices.IntMatrix.identity": "matrices.left_kernel",
    "matrices.IntMatrix.mul": "checks.check_matrix_forms",
}


def _public_definitions(tree):
    """(qualified name, node) of each public function and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and \
                not node.name.startswith("_"):
            yield node.name, node


def _public_methods(tree):
    """(qualified name, node) of each public method of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and \
                        not node.name.startswith("_"):
                    yield "%s.%s" % (cls.name, node.name), node


def _names_outside(tree, skip):
    """Names read anywhere in `tree` except inside the node `skip`."""
    return _read_outside(tree, skip, ast.Name, "id")


def _attributes_outside(tree, skip):
    """Attribute names read anywhere in `tree` except inside `skip`."""
    return _read_outside(tree, skip, ast.Attribute, "attr")


def _read_outside(tree, skip, kind, field):
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, kind):
            out.add(getattr(node, field))
        stack.extend(ast.iter_child_nodes(node))
    return out


def _from_imports(tree):
    """{(module, name): bound name} for each `from .module import name`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out[node.module, alias.name] = alias.asname or alias.name
    return out


def _trees():
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in MODULES}


def _uncalled(definitions, read, by_import=False):
    """Definitions whose name `read` finds nowhere in src/ outside them.

    With `by_import`, a read in another module counts only when that
    module imports the name from the defining module, so a local
    variable that shares the name is not a caller.  Within the defining
    module any read outside the definition counts.
    """
    trees = _trees()
    seen = {stem: read(tree, None) for stem, tree in trees.items()}
    imports = {stem: _from_imports(tree) for stem, tree in trees.items()}
    uncalled = set()
    for stem, tree in trees.items():
        for qualified, node in definitions(tree):
            reads = [(node.name, read(tree, node))]
            for other in trees:
                if other != stem:
                    name = node.name
                    if by_import:
                        name = imports[other].get((stem, name))
                    reads.append((name, seen[other]))
            if not any(name in used for name, used in reads):
                uncalled.add("%s.%s" % (stem, qualified))
    return uncalled


def test_public_names_have_a_caller_in_src():
    """A public function or class that only tests call is dead weight.

    Doctests do not count as callers, and neither does an import.  In
    another module, only a read of the imported name counts.
    """
    uncalled = _uncalled(_public_definitions, _names_outside,
                         by_import=True)
    assert uncalled - set(UNCALLED_BY_DESIGN) == set(), \
        "public names with no caller in src/"
    assert set(UNCALLED_BY_DESIGN) - uncalled == set(), \
        "stale entries: these now have a caller in src/ or are gone"


def _class_members(tree):
    """(class, name) of each method and `__slots__` entry of a top-level
    class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    yield cls.name, node.name
                elif isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__slots__"
                        for t in node.targets):
                    for name in ast.literal_eval(node.value):
                        yield cls.name, name


def _shared_name_methods(trees):
    """Public methods whose name another class also defines."""
    owners = {}
    for stem, tree in trees.items():
        for cls, name in _class_members(tree):
            owners.setdefault(name, set()).add((stem, cls))
    return {"%s.%s" % (stem, qualified)
            for stem, tree in trees.items()
            for qualified, node in _public_methods(tree)
            if len(owners[node.name]) > 1}


def _reads_attribute(trees, scope, name):
    """Whether the src/ scope `module.name` (as _scopes names it) loads
    the attribute `name`."""
    stem, _, inner = scope.partition(".")
    return any(isinstance(sub, ast.Attribute) and sub.attr == name
               and isinstance(sub.ctx, ast.Load)
               for found, node in _scopes(trees[stem])
               if found == inner for sub in ast.walk(node))


def test_public_methods_have_a_caller_in_src():
    """The same rule for methods, matched by attribute name: a method
    counts as called when some `x.name` outside its own body reads its
    name anywhere in src/, whatever the type of x.

    When another class also defines the name, as a method or in
    `__slots__`, such a read may be of the other owner and does not
    count on its own: the method is called only if its scope in
    SHARED_NAME_CALLERS reads the name."""
    trees = _trees()
    shared = _shared_name_methods(trees)
    called = {method for method, scope in SHARED_NAME_CALLERS.items()
              if _reads_attribute(trees, scope, method.rsplit(".", 1)[1])}
    uncalled = (_uncalled(_public_methods, _attributes_outside) - shared) \
        | (shared - called)
    assert set(SHARED_NAME_CALLERS) - shared == set(), \
        "stale entries: these names are no longer shared, or are gone"
    assert uncalled - set(METHODS_UNCALLED_BY_DESIGN) == set(), \
        "public methods with no caller in src/"
    assert set(METHODS_UNCALLED_BY_DESIGN) - uncalled == set(), \
        "stale entries: these now have a caller in src/ or are gone"


# Call sites in src/ that may read a word's dense vectors: the exponent
# vector over every basis letter (`.exps`) or the generator-exponent
# vector (`.weight_one()`), each with the reason.  Words are stored as
# their syllables, so collection and reduction work on the nonzero
# letters alone; a dense read there would scan the whole basis again.
DENSE_ACCESSORS = ("exps", "weight_one")
DENSE_READS_BY_DESIGN = {
    ("hopf.hopf_pi_n", "weight_one"):
        "matrix rows: the relations of H1 on the generators",
}


def _scopes(tree):
    """(name, node) of each top-level statement, with each statement of
    a top-level class body named `Class.method` (or `Class.<body>`)."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield "%s.%s" % (node.name,
                                 getattr(item, "name", "<body>")), item
        else:
            yield getattr(node, "name", "<module>"), node


def test_dense_word_vectors_are_read_only_where_allowed():
    """Matched by attribute name, like the caller lints: any `x.exps` or
    `x.weight_one` read in src/ counts, whatever the type of x."""
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in _scopes(tree):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and \
                        sub.attr in DENSE_ACCESSORS:
                    found.add(("%s.%s" % (path.stem, scope), sub.attr))
    assert found - set(DENSE_READS_BY_DESIGN) == set(), \
        "dense word vectors read outside the allow-list"
    assert set(DENSE_READS_BY_DESIGN) - found == set(), \
        "stale entries: these sites no longer read a dense vector"


# The dense forms with transforms stay as references for the elimination
# that replaced them; in src/ only the check of their defining equations
# calls them, so they cannot creep back into abelian or pcseq.
DENSE_FORMS = ("snf", "hnf", "bareiss_det")
DENSE_FORM_CALLERS = {"checks.check_matrix_forms"}


def test_dense_forms_are_called_only_by_their_check():
    """A call counts by its function's name, bare or as an attribute."""
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope, node in _scopes(tree):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    func = sub.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    if name in DENSE_FORMS:
                        found.add("%s.%s" % (path.stem, scope))
    assert found == DENSE_FORM_CALLERS


# ---- the benchmark's tracer ------------------------------------------------

def _bench_spans():
    """bench/spans.py, loaded from its path as it is."""
    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_span_targets_resolve():
    """Every function the benchmark's tracer wraps is found by its name,
    so deleting or renaming one fails here, not in a traced bench run."""
    missing = []
    for name, (module, qualname) in _bench_spans().SPANS.items():
        target = importlib.import_module("hopfgal." + module)
        for attr in qualname.split("."):
            target = getattr(target, attr, None)
        if target is None:
            missing.append(name)
    assert missing == []
    group = importlib.import_module("hopfgal.freenil").FreeNilGroup
    assert {"__init__", "tail"} <= set(vars(group))


def test_bench_tracer_reads_hopf_results():
    """The tracer's counters read provenance classes and subgroup sizes
    off each HopfResult, for every n the one entry point takes."""
    hopf = importlib.import_module("hopfgal.hopf")
    tracer = _bench_spans().Tracer()
    tracer.install()
    try:
        pres = hopf.NilPresentation(["x"], ["x^2"], 1)
        for n in (0, 1, 2):
            hopf.hopf_pi_n(pres, n)
    finally:
        tracer.uninstall()
    counts = tracer.metrics()
    assert counts["hopf.hopf_pi_n.calls"] == 3
    assert counts["hopf.hopf_pi_n.working_classes"] == 1 + 1 + 2
    assert counts["hopf.hopf_pi_n.numerator_gens"] > 0
    assert counts["hopf.hopf_pi_n.denominator_gens"] > 0
