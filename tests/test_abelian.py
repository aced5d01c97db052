import random

import pytest

from hopfgal.abelian import (
    FgAbelianGroup, PrimeSet, torsion_closure_rows, unimodular_inverse,
)
from hopfgal.errors import ValidationError
from hopfgal.matrices import HnfSolver, IntMatrix


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


def test_normal_form():
    G = FgAbelianGroup.from_orders([6, 4])
    assert G == FgAbelianGroup(0, [2, 12])
    assert G.order() == 24
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
        assert t.order() * q.order() == G.order()
        assert P.is_number(t.order())
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


def test_unimodular_inverse():
    rng = random.Random(22)
    for _ in range(50):
        n = rng.randrange(1, 5)
        # random unimodular: product of elementary row ops on identity
        M = IntMatrix.identity(n).to_rows()
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randrange(-3, 4)
                for k in range(n):
                    M[i][k] += q * M[j][k]
        U = IntMatrix(M)
        Uinv = unimodular_inverse(U)
        assert Uinv.mul(U) == IntMatrix.identity(n)


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
            assert HnfSolver(base).solve([e * x for x in row]) is not None


def test_json_round_trip():
    # the report value names the constructor's arguments
    G = FgAbelianGroup(2, [2, 4])
    assert FgAbelianGroup(**G.to_json()) == G
