import random
import sys
import tracemalloc
from itertools import product

import pytest

from hopfgal.abelian import FgAbelianGroup
from hopfgal import bar
from hopfgal.bar import bar_boundary, homology, max_order_for
from hopfgal.corpus import (
    abelian, cyclic, dihedral, full_corpus, klein4, named_group,
    nilpotent_corpus, quaternion8, symmetric,
)
from hopfgal.errors import InternalCheckError, SizeLimitError, ValidationError
from hopfgal.groups import FiniteGroup, minimal_generating_indices
from hopfgal.matrices import IntMatrix, snf_diagonal


def reference_full_homology(G, n):
    """Homology from every row of d_n and d_{n+1}, the full bar complex
    that `homology` cuts down to the Anick chains."""
    b_n = (G.order - 1) ** n
    if b_n == 0:
        return FgAbelianGroup.trivial()
    rank_n = len(snf_diagonal(bar_boundary(G, n)))
    diag_up = snf_diagonal(bar_boundary(G, n + 1))
    free = b_n - rank_n - len(diag_up)
    return FgAbelianGroup(free, [d for d in diag_up if d > 1])


def reference_unnormalized_homology(G, n):
    """Homology from the unnormalized complex (all tuples): a reference
    route for the normalized construction on tiny groups, whose matrices
    grow like order^n."""
    o = G.order

    def boundary(k):
        rows = []
        for idx in range(o ** k):
            tup = []
            rem = idx
            for _ in range(k):
                rem, d = divmod(rem, o)
                tup.append(d)
            tup.reverse()
            acc = {}
            faces = [(tuple(tup[1:]), 1)]
            sign = -1
            for t in range(1, k):
                merged = G.table[tup[t - 1]][tup[t]]
                faces.append((tuple(tup[:t - 1]) + (merged,)
                              + tuple(tup[t + 1:]), sign))
                sign = -sign
            faces.append((tuple(tup[:-1]), sign))
            for face, s in faces:
                acc[face] = acc.get(face, 0) + s
            row = []
            for face, s in acc.items():
                if s:
                    j = 0
                    for g in face:
                        j = j * o + g
                    row.append((j, s))
            rows.append(tuple(sorted(row)))
        return IntMatrix.from_sparse_rows(o ** k, o ** (k - 1), rows)

    rank_n = len(snf_diagonal(boundary(n)))
    diag_up = snf_diagonal(boundary(n + 1))
    free = o ** n - rank_n - len(diag_up)
    return FgAbelianGroup(free, [d for d in diag_up if d > 1])


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


def test_size_bounds(monkeypatch):
    with pytest.raises(SizeLimitError):
        homology(cyclic(9), 2, max_order=8)
    assert homology(cyclic(8), 2, max_order=8) == FgAbelianGroup.trivial()
    monkeypatch.setattr(bar, "_MAX_BASIS", 1000)
    with pytest.raises(SizeLimitError):
        bar_boundary(cyclic(12), 3)
    with pytest.raises(ValidationError):
        homology(cyclic(3), 0)


def test_one_bound_table():
    # degrees 2 and 3 allow order 32, the bounds the CLI uses
    assert [max_order_for(n) for n in (1, 2, 3, 4, 5)] == [64, 32, 32, 6, 6]
    assert max_order_for(3, max_order=4) == 4
    for n in (1, 2, 3, 4):
        with pytest.raises(SizeLimitError):
            homology(cyclic(max_order_for(n) + 1), n)
    with pytest.raises(SizeLimitError):
        homology(cyclic(5), 1, max_order=4)


def test_normalized_matches_unnormalized():
    for G in (cyclic(2), cyclic(3), cyclic(4), klein4()):
        for n in (1, 2):
            assert homology(G, n) == reference_unnormalized_homology(G, n)
    assert homology(cyclic(2), 3) == \
        reference_unnormalized_homology(cyclic(2), 3)


def _relabel(G, rng):
    # the same group, its elements relabelled by a random permutation
    # fixing 0
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    inv = [0] * G.order
    for i, p in enumerate(perm):
        inv[p] = i
    return FiniteGroup([[inv[G.table[perm[a]][perm[b]]]
                         for b in range(G.order)] for a in range(G.order)])


def test_independent_of_element_ordering():
    rng = random.Random(41)
    for G in (symmetric(3), cyclic(6), dihedral(4)):
        base2 = homology(G, 2)
        base1 = homology(G, 1)
        for _ in range(3):
            H = _relabel(G, rng)
            assert homology(H, 2) == base2
            assert homology(H, 1) == base1


@pytest.mark.parametrize("name,torsion", [("D4", [2, 2, 4]), ("Q8", [8])],
                         ids=["D4", "Q8"])
def test_degree_three_of_relabelled_tables(name, torsion):
    rng = random.Random(43)
    G = named_group(name)
    for _ in range(2):
        assert homology(_relabel(G, rng), 3) == FgAbelianGroup(0, torsion)


@pytest.mark.parametrize("name,torsion", [("D4", [2, 2, 4]), ("Q8", [8])],
                         ids=["D4", "Q8"])
def test_row_shuffled_boundary_eliminates_in_little_memory(name, torsion):
    # with pivots taken in row order, the elimination followed the
    # shuffle: 47 s (D4) and 92 s (Q8) at a 23-26 MB peak under
    # tracemalloc; shortest rows first, 0.5 s and 4 MB
    rows = bar_boundary(named_group(name), 4).to_rows()
    random.Random(0).shuffle(rows)
    M = IntMatrix(rows)
    tracemalloc.start()
    try:
        diag = snf_diagonal(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [d for d in diag if d > 1] == torsion
    assert peak < 8 * 2 ** 20, peak


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


def _degrees_within_bounds(G):
    # the reference eliminates every row of d_{n+1}, (|G| - 1)^(n+1) of
    # them, so it keeps the orders 64, 24 and 12 of degrees 1-3
    return [n for n, top in ((1, 64), (2, 24), (3, 12)) if G.order <= top]


_FULL_CORPUS = full_corpus()


@pytest.mark.parametrize("name,G", _FULL_CORPUS,
                         ids=[name for name, _ in _FULL_CORPUS])
def test_generator_rows_match_full_rows(name, G):
    for n in _degrees_within_bounds(G):
        assert homology(G, n) == reference_full_homology(G, n), (name, n)


@pytest.mark.parametrize("name", ["D6", "Q8", "S4"])
def test_generator_rows_match_full_rows_on_relabelled_tables(name):
    rng = random.Random(47)
    G = named_group(name)
    for _ in range(2):
        H = _relabel(G, rng)
        for n in _degrees_within_bounds(H):
            assert homology(H, n) == reference_full_homology(H, n), (name, n)


def test_reach_beyond_the_degree_bounds():
    # Kunneth: H3(Z4 x Z4) = Z/4 + Z/4 + Tor(Z/4, Z/4), and
    # H2(Z4 x Z8) = Z/4 (x) Z/8; with every row of d_4, Z4 x Z4 at degree
    # 3 took 15.5 s and a 200 MB peak
    tracemalloc.start()
    try:
        h3 = homology(abelian([4, 4]), 3, max_order=16)
        h2 = homology(abelian([4, 8]), 2, max_order=32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h3 == FgAbelianGroup(0, [4, 4, 4])
    assert h2 == FgAbelianGroup(0, [4])
    assert peak < 40 * 2 ** 20, peak


def _depths(G, gens):
    # the fewest left multiplications by generators that reach each
    # element from a generator, by closure rather than by a queue
    depth = {x: 0 for x in gens}
    k = 0
    while len(depth) < G.order - 1:
        k += 1
        reached = {G.table[x][h] for h, d in depth.items() if d == k - 1
                   for x in gens} - set(depth) - {0}
        assert reached, "generators leave elements unreached"
        depth.update((g, k) for g in reached)
    return depth


@pytest.mark.parametrize("name", ["D6", "Q8", "S4", "Z12", "Z2xZ4"])
def test_every_split_is_one_step_nearer_to_the_generators(name):
    # a degree-1 cell (g) outside the generators is matched up with
    # (x, h), x a generator and g = x·h with h one step nearer to them
    rng = random.Random(53)
    for G in (named_group(name), _relabel(named_group(name), rng)):
        gens = minimal_generating_indices(G)
        depth = _depths(G, gens)
        anick = bar._Anick(G)
        splits = [((g,), anick.match((g,))) for g in range(1, G.order)]
        assert sorted(g for (g,), (_, i) in splits if i) == sorted(
            g for g in depth if g not in gens)
        for (g,), (partner, i) in splits:
            if i:
                x, h = partner
                assert i == 1 and x in gens and G.table[x][h] == g
                assert depth[h] == depth[g] - 1


def _shortlex_words(G, gens):
    """The shortlex-least word of every element, by listing all words
    over `gens` in shortlex order until each element has one."""
    first = {0: ()}
    length = 0
    while len(first) < G.order:
        length += 1
        for word in product(gens, repeat=length):
            g = 0
            for x in word:
                g = G.table[g][x]
            first.setdefault(g, word)
    return first


@pytest.mark.parametrize("name", ["D6", "Q8", "S4", "Z12", "Z2xZ4"])
def test_the_matching_pairs_off_all_but_the_anick_chains(name):
    rng = random.Random(53)
    for G in (named_group(name), _relabel(named_group(name), rng)):
        anick = bar._Anick(G)
        words = _shortlex_words(G, minimal_generating_indices(G))
        assert {g: anick.word[g] for g in range(G.order)} == words
        for n in (1, 2, 3):
            critical = []
            for cell in product(range(1, G.order), repeat=n):
                partner, i = anick.match(cell)
                if partner is None:
                    critical.append(cell)
                    continue
                # an involution, and the lower cell is face |i| of the
                # upper one with coefficient (-1)^i
                assert anick.match(partner) == (cell, -i)
                upper, lower = (partner, cell) if i > 0 else (cell, partner)
                assert bar._cell_faces(G.table, upper)[lower] == (-1) ** i
            assert critical == anick.critical(n)


def test_reduced_boundary_sizes(monkeypatch):
    # Z12 keeps one Anick chain per degree, so degree 3 hands snf_diagonal
    # two 1 x 1 matrices; the D6 table keeps 2, 6, 15 and 42 cells
    assert [len(bar._Anick(cyclic(12)).critical(n))
            for n in (1, 2, 3, 4)] == [1, 1, 1, 1]
    assert [len(bar._Anick(named_group("D6")).critical(n))
            for n in (1, 2, 3, 4)] == [2, 6, 15, 42]
    shapes = []

    def recording(mat):
        shapes.append(mat.shape)
        return snf_diagonal(mat)

    monkeypatch.setattr(bar, "snf_diagonal", recording)
    assert homology(cyclic(12), 3) == FgAbelianGroup(0, [12])
    assert shapes == [(1, 1), (1, 1)]
    del shapes[:]
    assert homology(named_group("D6"), 3) == FgAbelianGroup(0, [2, 2, 6])
    assert shapes == [(15, 6), (42, 15)]


def _small_corpus_values():
    values = {}
    for name, G in full_corpus():
        for n in (1, 2, 3):
            if G.order <= 8:
                try:
                    values[name, n] = homology(G, n)
                except InternalCheckError as exc:
                    values[name, n] = str(exc)
    return values


def test_wrong_sign_in_the_flow_changes_a_value(monkeypatch):
    right = _small_corpus_values()
    flow = bar._Anick.flow

    def turned(self, cell):
        # Φ of a matched cell with its sign turned; critical cells keep
        # theirs
        out = flow(self, cell)
        return out if cell in out else {c: -u for c, u in out.items()}

    monkeypatch.setattr(bar._Anick, "flow", turned)
    wrong = _small_corpus_values()
    assert [key for key in right if wrong[key] != right[key]]


def test_a_matched_face_with_another_coefficient_is_an_internal_error(
        monkeypatch):
    faces = bar._cell_faces

    def doubled(table, cell):
        return {f: 2 * v for f, v in faces(table, cell).items()}

    monkeypatch.setattr(bar, "_cell_faces", doubled)
    with pytest.raises(InternalCheckError):
        homology(cyclic(4), 2)


def test_the_flow_is_iterative_and_bounded(monkeypatch):
    # the flow of Z2 x Z64 at degree 3 follows chains of cells about as
    # long as its normal forms, up to 64 letters, and runs within 40
    # frames of its caller
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        h3 = homology(abelian([2, 64]), 3, max_order=128)
    finally:
        sys.setrecursionlimit(limit)
    assert h3 == FgAbelianGroup(0, [2, 2, 64])
    monkeypatch.setattr(bar, "_MAX_BASIS", 50)
    with pytest.raises(SizeLimitError):
        homology(cyclic(16), 3)


def test_reach_of_the_degree_bounds():
    # Kunneth at the largest orders the bounds allow without max_order:
    # H3(Z2 x Z8) = Z/2 + Z/8 + Tor(Z/2, Z/8) and H2((Z2)^5) = (Z/2)^10
    assert homology(abelian([2, 8]), 3) == FgAbelianGroup(0, [2, 2, 8])
    assert homology(abelian([2] * 5), 2) == FgAbelianGroup(0, [2] * 10)


def test_degree_three_at_order_32_and_24():
    # H3(D16) = Z/2 + Z/2 + Z/16 and H3(Z4 x Z8) = Z/4 + Z/4 +
    # Tor(Z/4, Z/8) by Kunneth, H3(S4) = Z/2 + Z/12; each in a few ms and
    # well under 1 MB traced
    tracemalloc.start()
    try:
        d16 = homology(dihedral(16), 3)
        z4z8 = homology(abelian([4, 8]), 3)
        s4 = homology(symmetric(4), 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d16 == FgAbelianGroup(0, [2, 2, 16])
    assert z4z8 == FgAbelianGroup(0, [4, 4, 8])
    assert s4 == FgAbelianGroup(0, [2, 12])
    assert peak < 4 * 2 ** 20, peak
