import math
import random

import pytest

from hopfgal.abelian import FgAbelianGroup, PrimeSet, torsion_closure_rows
from hopfgal.errors import ValidationError
from hopfgal.matrices import HnfSolver, IntMatrix, hnf, snf


def reference_torsion_closure_rows(n_gens, rel, primes):
    """The Smith route torsion_closure_rows took before it became one
    Hermite kernel: with D = U rel V, the rows of V^-1 are a basis in
    which rel is diagonal, so d_i / (local part of d_i) times row i of
    V^-1 is local torsion, and those rows with rel span the preimage."""
    if rel.rows == 0 or n_gens == 0:
        return IntMatrix([], cols=n_gens)
    D, _, V = snf(rel)
    H, Vinv = hnf(V)
    assert H == IntMatrix.identity(V.rows)
    rows = []
    for i in range(min(rel.rows, n_gens)):
        d = D.entry(i, i)
        if d == 0:
            break
        stripped = d // primes.part_of(d)
        if stripped != d:
            rows.append([stripped * x for x in Vinv.row(i)])
    return IntMatrix(rows, cols=n_gens)


def test_prime_set_validation():
    assert PrimeSet([2, 3, 5]).primes == (2, 3, 5)
    assert PrimeSet([]).primes == ()
    with pytest.raises(ValidationError):
        PrimeSet([4])
    with pytest.raises(ValidationError):
        PrimeSet([1])


def test_prime_set_numbers():
    P = PrimeSet([2, 3])
    assert P.is_number(1)
    assert P.is_number(12)
    assert not P.is_number(10)
    assert not P.is_number(0)
    assert not P.is_number(-2)
    # the empty set still contains the monoid unit
    assert PrimeSet([]).is_number(1)
    assert not PrimeSet([]).is_number(2)


def test_parts():
    P = PrimeSet([2])
    assert P.part_of(12) == 4
    assert 12 // P.part_of(12) == 3
    assert PrimeSet([2, 3]).part_of(12) == 12
    assert PrimeSet([5]).part_of(12) == 1


def order(A):
    """|A| for a finite A: the product of its invariant factors."""
    assert A.free_rank == 0
    return math.prod(A.factors)


def test_normal_form():
    G = FgAbelianGroup.from_orders([6, 4])
    assert G == FgAbelianGroup(0, [2, 12])
    assert order(G) == 24
    assert str(G) == "Z/2 + Z/12"
    assert FgAbelianGroup.from_orders([0, 1, 1]) == FgAbelianGroup(1, [])
    with pytest.raises(ValidationError):
        FgAbelianGroup(0, [4, 6])


def test_torsion_split_examples():
    Z12 = FgAbelianGroup.from_orders([12])
    assert Z12.torsion_part(PrimeSet([2])) == FgAbelianGroup(0, [4])
    assert Z12.quotient_by_torsion(PrimeSet([2])) == FgAbelianGroup(0, [3])
    M = FgAbelianGroup(1, [6])
    assert M.torsion_part(PrimeSet([2, 3])) == FgAbelianGroup(0, [6])
    assert M.quotient_by_torsion(PrimeSet([2, 3])) == FgAbelianGroup(1, [])
    assert M.torsion_part(None) == FgAbelianGroup(0, [6])
    assert M.quotient_by_torsion(None) == FgAbelianGroup(1, [])


def test_torsion_complement_orders_multiply():
    rng = random.Random(21)
    all_primes = [2, 3, 5, 7]
    for _ in range(200):
        orders = [rng.randrange(1, 60) for _ in range(rng.randrange(0, 4))]
        G = FgAbelianGroup.from_orders(orders)
        P = PrimeSet(rng.sample(all_primes, rng.randrange(0, 5)))
        t = G.torsion_part(P)
        q = G.quotient_by_torsion(P)
        assert order(t) * order(q) == order(G)
        assert P.is_number(order(t))
        # nothing of the quotient's torsion lies in the prime set
        for d in q.factors:
            assert P.part_of(d) == 1


def test_from_relation_matrix():
    # Z^2 / <(2,0),(0,3)> = Z/2 + Z/3 = Z/6
    G = FgAbelianGroup.from_relation_matrix(2, IntMatrix([[2, 0], [0, 3]]))
    assert G == FgAbelianGroup(0, [6])
    # a free coordinate survives
    G = FgAbelianGroup.from_relation_matrix(3, IntMatrix([[2, 0, 0]]))
    assert G == FgAbelianGroup(2, [2])
    assert FgAbelianGroup.from_relation_matrix(
        2, IntMatrix([], cols=2)) == FgAbelianGroup(2, [])


def test_torsion_closure_rows_gives_local_quotient():
    rng = random.Random(23)
    all_primes = [2, 3, 5]
    for _ in range(150):
        n = rng.randrange(1, 4)
        rel = IntMatrix([[rng.randrange(-6, 7) for _ in range(n)]
                        for _ in range(rng.randrange(0, 4))], cols=n)
        P = PrimeSet(rng.sample(all_primes, rng.randrange(0, 4)))
        G = FgAbelianGroup.from_relation_matrix(n, rel)
        extra = torsion_closure_rows(n, rel, P)
        closed = FgAbelianGroup.from_relation_matrix(n, rel.stack(extra))
        # dividing out the closure is the same as killing local torsion
        assert closed == G.quotient_by_torsion(P)
        if not P.primes:
            assert extra.rows == 0
            continue
        # each closure row is local torsion in the quotient: the exponent
        # of the local torsion part (a number of the set) kills it
        e = max(G.torsion_part(P).factors, default=1)
        assert P.is_number(e)
        base = HnfSolver(rel).span
        for row in extra.to_rows():
            assert HnfSolver(base).solve(
                tuple((j, e * x) for j, x in enumerate(row) if x)) is not None


def test_torsion_closure_matches_the_smith_route():
    rng = random.Random(24)
    all_primes = [2, 3, 5]
    for _ in range(150):
        n = rng.randrange(1, 5)
        rel = IntMatrix([[rng.randrange(-12, 13) for _ in range(n)]
                        for _ in range(rng.randrange(0, 5))], cols=n)
        P = PrimeSet(rng.sample(all_primes, rng.randrange(0, 4)))
        want = reference_torsion_closure_rows(n, rel, P)
        got = torsion_closure_rows(n, rel, P)
        assert HnfSolver(rel.stack(got)).span == \
            HnfSolver(rel.stack(want)).span


def test_json_round_trip():
    # the report value names the constructor's arguments
    G = FgAbelianGroup(2, [2, 4])
    assert FgAbelianGroup(**G.to_json()) == G
