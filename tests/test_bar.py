import random
import tracemalloc

import pytest

from hopfgal.abelian import FgAbelianGroup
from hopfgal.bar import (
    BarChainBasis, BarConfig, bar_boundary, homology, unnormalized_homology,
)
from hopfgal.corpus import (
    abelian, cyclic, dihedral, klein4, nilpotent_corpus, quaternion8,
    symmetric,
)
from hopfgal.errors import SizeLimitError, ValidationError
from hopfgal.groups import FiniteGroup
from hopfgal.matrices import IntMatrix


def test_basis_shape_and_order():
    b = BarChainBasis(cyclic(3), 2)
    assert b.size == 4
    tuples = list(b)
    assert tuples == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert [b.index_of(t) for t in tuples] == [0, 1, 2, 3]
    assert BarChainBasis(cyclic(5), 0).size == 1


def test_boundary_worked_examples():
    assert bar_boundary(cyclic(2), 1).to_rows() == [[0]]
    # d[g|g] = [g] - [gg = e, dropped] + [g] = 2[g]
    assert bar_boundary(cyclic(2), 2).to_rows() == [[2]]
    d = bar_boundary(cyclic(3), 2)
    assert d.shape == (4, 2)
    # d[1|1] = [1] - [2] + [1]; d[1|2] = [2] - [e] + [1] = [2] + [1] etc.
    assert d.to_rows() == [[2, -1], [1, 1], [1, 1], [-1, 2]]


def test_boundary_squares_to_zero():
    for name, G in nilpotent_corpus():
        if G.order > 8:
            continue
        for n in (2, 3):
            dn = bar_boundary(G, n)
            dn1 = bar_boundary(G, n - 1)
            prod = dn.mul(dn1)
            assert prod == IntMatrix.zero(dn.rows, dn1.cols), (name, n)


def test_h1_is_abelianization():
    for name, G in nilpotent_corpus() + [("S3", symmetric(3)),
                                         ("S4", symmetric(4))]:
        if G.order > 16:
            continue
        A, _ = G.abelianization()
        assert homology(G, 1) == A.abelian_invariants(), name


def test_h2_known_values():
    assert homology(cyclic(7), 2) == FgAbelianGroup.trivial()
    assert homology(klein4(), 2) == FgAbelianGroup(0, [2])
    assert homology(abelian([2, 4]), 2) == FgAbelianGroup(0, [2])
    assert homology(abelian([3, 3]), 2) == FgAbelianGroup(0, [3])
    assert homology(dihedral(4), 2) == FgAbelianGroup(0, [2])
    assert homology(quaternion8(), 2) == FgAbelianGroup.trivial()
    assert homology(symmetric(3), 2) == FgAbelianGroup.trivial()


def test_h3_known_values():
    assert homology(cyclic(2), 3) == FgAbelianGroup(0, [2])
    assert homology(cyclic(3), 3) == FgAbelianGroup(0, [3])
    assert homology(cyclic(4), 3) == FgAbelianGroup(0, [4])
    assert homology(klein4(), 3) == FgAbelianGroup(0, [2, 2, 2])


def test_trivial_group():
    for n in (1, 2, 3, 4):
        assert homology(cyclic(1), n) == FgAbelianGroup.trivial()


def test_size_bounds():
    cfg = BarConfig({2: 8})
    with pytest.raises(SizeLimitError):
        homology(cyclic(9), 2, cfg)
    assert homology(cyclic(8), 2, cfg) == FgAbelianGroup.trivial()
    with pytest.raises(SizeLimitError):
        bar_boundary(cyclic(12), 3, max_basis=1000)
    with pytest.raises(ValidationError):
        homology(cyclic(3), 0)


def test_normalized_matches_unnormalized():
    for G in (cyclic(2), cyclic(3), cyclic(4), klein4()):
        for n in (1, 2):
            assert homology(G, n) == unnormalized_homology(G, n)
    assert homology(cyclic(2), 3) == unnormalized_homology(cyclic(2), 3)


def test_independent_of_element_ordering():
    rng = random.Random(41)
    for G in (symmetric(3), cyclic(6), dihedral(4)):
        base2 = homology(G, 2)
        base1 = homology(G, 1)
        for _ in range(3):
            # relabel the elements by a random permutation fixing 0
            perm = [0] + rng.sample(range(1, G.order), G.order - 1)
            inv = [0] * G.order
            for i, p in enumerate(perm):
                inv[p] = i
            table = [[inv[G.mul(perm[a], perm[b])] for b in range(G.order)]
                     for a in range(G.order)]
            H = FiniteGroup(table)
            assert homology(H, 2) == base2
            assert homology(H, 1) == base1


def test_boundary_memory_follows_nonzeros():
    # the degree-4 boundary of Z12 is 14641 x 1331 with 69201 nonzeros; a
    # dense grid of that shape needs about 156 MB for its list slots alone
    G = cyclic(12)
    tracemalloc.start()
    try:
        d = bar_boundary(G, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.shape == (14641, 1331)
    assert peak < 40 * 2 ** 20, peak
