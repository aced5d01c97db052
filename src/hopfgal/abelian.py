"""Finitely generated abelian groups in invariant-factor form.

A group is stored as a free rank plus a divisibility chain d_1 | d_2 | ...
with every d_i > 1.  This normal form makes equality structural, which is
what every cross-check in the package ultimately compares.
"""

from __future__ import annotations

from .errors import SizeLimitError, ValidationError
from .matrices import IntMatrix, divisibility_chain, left_kernel, snf_diagonal

# primality is checked by trial division, which takes about 0.15 s at 10^12
MAX_PRIME = 10 ** 12


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class PrimeSet:
    """A finite set of primes, defining which torsion is 'local'.

    >>> PrimeSet([3, 2]).is_number(12)
    True
    >>> PrimeSet([2]).is_number(6)
    False
    >>> PrimeSet([]).is_number(1)
    True
    """

    __slots__ = ("primes",)

    def __init__(self, primes=()):
        ps = sorted(set(int(p) for p in primes))
        for p in ps:
            if p > MAX_PRIME:
                raise SizeLimitError("prime exceeds the bound %d" % MAX_PRIME)
            if not _is_prime(p):
                raise ValidationError("not a prime: %r" % (p,))
        self.primes = tuple(ps)

    def __contains__(self, p):
        return p in self.primes

    def __iter__(self):
        return iter(self.primes)

    def __eq__(self, other):
        return isinstance(other, PrimeSet) and self.primes == other.primes

    def __hash__(self):
        return hash(self.primes)

    def __repr__(self):
        return "PrimeSet(%r)" % (list(self.primes),)

    def is_number(self, m):
        """True for positive m whose prime factors all lie in the set.

        These are exactly the numbers in the multiplicative monoid the set
        generates, so 1 always qualifies.
        """
        m = int(m)
        if m <= 0:
            return False
        for p in self.primes:
            while m % p == 0:
                m //= p
        return m == 1

    def part_of(self, n):
        """Largest divisor of n that is a number of this set.

        >>> PrimeSet([2]).part_of(12)
        4
        >>> PrimeSet([2, 3]).part_of(12)
        12
        """
        n = abs(int(n))
        if n == 0:
            raise ValidationError("no local part of 0")
        out = 1
        for p in self.primes:
            while n % p == 0:
                n //= p
                out *= p
        return out


def _prime_set_or_none(primes):
    """`primes` as a PrimeSet, or None when it is None or empty: an
    empty set localizes at nothing, so it means no localization."""
    if primes is None:
        return None
    if not isinstance(primes, PrimeSet):
        primes = PrimeSet(primes)
    return primes if primes.primes else None


class FgAbelianGroup:
    """Invariant-factor normal form of a finitely generated abelian group.

    >>> FgAbelianGroup.from_orders([6, 4])
    FgAbelianGroup(0, [2, 12])
    >>> FgAbelianGroup.from_orders([0, 2])
    FgAbelianGroup(1, [2])
    """

    __slots__ = ("free_rank", "factors")

    def __init__(self, free_rank=0, factors=()):
        fs = tuple(int(d) for d in factors)
        if any(d < 2 for d in fs):
            raise ValidationError("invariant factors must be > 1")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValidationError("factors must form a chain: %r" % (fs,))
        self.free_rank = int(free_rank)
        if self.free_rank < 0:
            raise ValidationError("negative free rank")
        self.factors = fs

    @classmethod
    def trivial(cls):
        return cls(0, ())

    @classmethod
    def from_orders(cls, orders):
        """Normalize an arbitrary list of cyclic orders (0 means infinite)."""
        free = sum(1 for d in orders if d == 0)
        chain = divisibility_chain([d for d in orders if d])
        return cls(free, [d for d in chain if d > 1])

    @classmethod
    def from_relation_matrix(cls, n_gens, rel):
        """Cokernel of rel acting on Z^n_gens (rows are relations)."""
        if rel.cols not in (n_gens, 0):
            raise ValidationError("relation width mismatch")
        if rel.rows == 0 or rel.cols == 0:
            return cls(n_gens, ())
        diag = snf_diagonal(rel)
        return cls(n_gens - len(diag), [d for d in diag if d > 1])

    def torsion_part(self, primes=None):
        """The subgroup of elements with finite order in the given primes.

        With primes=None, all torsion.

        >>> FgAbelianGroup.from_orders([12]).torsion_part(PrimeSet([2]))
        FgAbelianGroup(0, [4])
        >>> FgAbelianGroup(1, [6]).torsion_part(PrimeSet([2, 3]))
        FgAbelianGroup(0, [6])
        """
        if primes is None:
            return FgAbelianGroup(0, self.factors)
        return FgAbelianGroup.from_orders(
            [primes.part_of(d) for d in self.factors])

    def quotient_by_torsion(self, primes=None):
        """Quotient by the torsion of the given primes (all if None).

        >>> FgAbelianGroup.from_orders([12]).quotient_by_torsion(PrimeSet([2]))
        FgAbelianGroup(0, [3])
        >>> FgAbelianGroup(1, [6]).quotient_by_torsion(PrimeSet([2, 3]))
        FgAbelianGroup(1, [])
        """
        if primes is None:
            return FgAbelianGroup(self.free_rank, ())
        stripped = [d // primes.part_of(d) for d in self.factors]
        return FgAbelianGroup.from_orders([0] * self.free_rank + stripped)

    def to_json(self):
        return {"free_rank": self.free_rank, "factors": list(self.factors)}

    def __eq__(self, other):
        return (isinstance(other, FgAbelianGroup)
                and self.free_rank == other.free_rank
                and self.factors == other.factors)

    def __hash__(self):
        return hash((self.free_rank, self.factors))

    def __repr__(self):
        return "FgAbelianGroup(%d, %r)" % (self.free_rank, list(self.factors))

    def __str__(self):
        parts = ["Z"] * self.free_rank + ["Z/%d" % d for d in self.factors]
        return " + ".join(parts) if parts else "0"


def torsion_closure_rows(n_gens, rel, primes):
    """Rows spanning the preimage in Z^n of the local torsion of Z^n / rel.

    An element of the quotient is local torsion when some number of the
    prime set kills it.  Returned rows, together with rel itself, generate
    the full preimage lattice.  Let m be the local part of the largest
    invariant factor of rel.  The local torsion is the sum of cyclic
    groups whose orders are the local parts of the invariant factors,
    each dividing m, so m kills every local torsion class; and what a
    number of the set kills is local torsion.  The preimage is therefore
    {x : m x in rowspan(rel)}, one Hermite kernel of m I modulo rel.
    With m = 1 that is rowspan(rel) itself, and no rows are returned.
    """
    diag = snf_diagonal(rel) if rel.rows and n_gens else []
    m = primes.part_of(diag[-1]) if diag else 1
    if m == 1:
        return IntMatrix([], cols=n_gens)
    scaled = IntMatrix.from_sparse_rows(n_gens, n_gens,
                                        (((i, m),) for i in range(n_gens)))
    return left_kernel(scaled, modulo=rel)
