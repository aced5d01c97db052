"""Acceptance gate: ten criteria, each one test, each all-or-nothing.

Every comparison here is exact (invariant factors, booleans, counts).
The expensive shared inputs (bar homology of the corpus, the extension
enumeration) are computed once per session and reused.  Each test ends
by printing a single `criterion N: PASS ...` line; a failed assertion
means that criterion's line reads FAILED in the pytest output instead.
"""

import math
import time

import pytest

from hopfgal.abelian import FgAbelianGroup, PrimeSet
from hopfgal.bar import homology
from hopfgal.checks import (check_baer_invariance, check_bar_differential,
                            check_centrality, check_characterisation,
                            check_closure_laws, check_collection,
                            check_cube_laws, check_matrix_forms,
                            enumerate_extensions, presentation_for,
                            presented_nilpotent_corpus)
from hopfgal.corpus import abelian, quaternion8
from hopfgal.galois import GaloisContext, is_normal_ext, is_trivial_ext
from hopfgal.hopf import NilPresentation, hopf_pi_n

SEED = 20260814


def _invariants(value):
    return (value.free_rank, tuple(value.factors))


def _passed(num, detail):
    print("criterion %d: PASS  %s" % (num, detail))


@pytest.fixture(scope="module")
def corpus():
    entries = presented_nilpotent_corpus()
    names = {name for name, _, _ in entries}
    required = {"Z%d" % n for n in range(2, 17)}
    required |= {"Z2xZ2", "Z2xZ4", "Z3xZ3", "D4", "Q8"}
    assert required <= names
    return entries


@pytest.fixture(scope="module")
def bar_h2(corpus):
    return {name: homology(G, 2) for name, _, G in corpus}


@pytest.fixture(scope="module")
def extensions():
    ext = enumerate_extensions(max_order=12)
    assert ext, "extension enumeration came back empty"
    return ext


def test_criterion_01_hopf_matches_bar_oracle(corpus, bar_h2):
    slowest = 0.0
    for name, pres, G in corpus:
        started = time.monotonic()
        got = hopf_pi_n(pres, 1).value
        elapsed = time.monotonic() - started
        assert _invariants(got) == _invariants(bar_h2[name]), name
        budget = 5.0 if G.order <= 8 else 60.0
        assert elapsed < budget, "%s took %.1fs" % (name, elapsed)
        slowest = max(slowest, elapsed)
    _passed(1, "%d groups, slowest hopf_pi_n(n=1) %.2fs"
            % (len(corpus), slowest))


def test_criterion_02_exterior_square_of_products():
    for a, b in ((2, 2), (2, 4), (3, 6), (4, 6)):
        pres = NilPresentation(["x", "y"],
                               ["x^%d" % a, "y^%d" % b, "[x,y]"], 1)
        hopf = hopf_pi_n(pres, 1).value
        bar = homology(abelian([a, b]), 2)
        want = (0, (math.gcd(a, b),))
        assert _invariants(hopf) == want, (a, b)
        assert _invariants(bar) == want, (a, b)
    _passed(2, "H2(Z/a x Z/b) = Z/gcd on both engines, 4 pairs")


def test_criterion_03_degree_three_stabilizes(corpus):
    groups = {name: G for name, _, G in corpus}
    for name in ("Z2", "Z3", "Z4", "Z2xZ2"):
        pres = presentation_for(name)
        started = time.monotonic()
        result = hopf_pi_n(pres, n=2)
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, "%s took %.1fs" % (name, elapsed)
        assert result.stabilization == "STABLE", name
        oracle = homology(groups[name], 3)
        assert _invariants(result.value) == _invariants(oracle), name
    _passed(3, "n=2 STABLE and equal to bar H3 on all four groups")


def test_criterion_04_localization_identity(corpus, bar_h2):
    checked = 0
    for name, pres, _ in corpus:
        plain = hopf_pi_n(pres, 1).value
        for ps in ((), (2,), (3,), (2, 3)):
            got = hopf_pi_n(pres, n=1, primes=list(ps)).value
            want = bar_h2[name].quotient_by_torsion(PrimeSet(ps))
            assert _invariants(got) == _invariants(want), (name, ps)
            if not ps:
                assert _invariants(got) == _invariants(plain), name
            checked += 1
    _passed(4, "%d (group, prime set) pairs" % checked)


def test_criterion_05_normality_is_centrality(extensions):
    report = check_centrality(extensions=extensions)
    assert report.ok, report.failures[:5]

    ctx = GaloisContext()
    Q8 = quaternion8()
    _, proj = Q8.quotient(Q8.center())
    assert is_normal_ext(ctx, proj)
    assert not is_trivial_ext(ctx, proj)
    _passed(5, "%d extension checks, Q8 -> V4 witness normal-not-trivial"
            % report.cases)


def test_criterion_06_composite_characterisation(extensions):
    report = check_characterisation(primes=((2,), (3,)),
                                    extensions=extensions)
    assert report.ok, report.failures[:5]
    assert report.cases == 2 * len(extensions)
    _passed(6, "%d composite-normality comparisons, zero mismatches"
            % report.cases)


def test_criterion_07_closure_operator_laws():
    report = check_closure_laws(count=500, seed=SEED)
    assert report.ok, report.failures[:5]
    assert report.cases >= 500
    _passed(7, "%d closure-law cases" % report.cases)


def test_criterion_08_baer_invariance(extensions):
    report = check_baer_invariance(min_cases=100, extensions=extensions)
    assert report.ok, report.failures[:5]
    assert report.cases >= 100

    two_gen = hopf_pi_n(presentation_for("Z2xZ2"), 1).value
    three_gen = hopf_pi_n(NilPresentation(
        ["x", "y", "z"], ["x^2", "y^2", "[x,y]", "zxy"], 1), 1).value
    assert _invariants(two_gen) == _invariants(three_gen) == (0, (2,))
    _passed(8, "%d lift pairs, presentation-independent H2" % report.cases)


def test_criterion_09_cube_laws():
    report = check_cube_laws(count=200, seed=SEED)
    assert report.ok, report.failures[:5]
    assert report.cases >= 200
    _passed(9, "%d cube-law cases" % report.cases)


def test_criterion_10_engine_integrity():
    collection = check_collection(count=1000, seed=SEED)
    assert collection.ok, collection.failures[:5]
    assert collection.cases >= 1000
    matrices = check_matrix_forms(count=120, seed=SEED)
    assert matrices.ok, matrices.failures[:5]
    bar = check_bar_differential(max_order=8)
    assert bar.ok, bar.failures[:5]
    _passed(10, "collection %d, matrix forms %d, bar d.d=0 %d"
            % (collection.cases, matrices.cases, bar.cases))
