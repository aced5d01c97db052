"""Integral group homology of finite groups via the normalized bar
resolution.

This is the package's oracle: a deliberately direct construction whose
only arithmetic is the Smith normal form it delegates to.  Every
Hopf-formula value is compared against it.

The degree-n chain group has one basis element per n-tuple of
non-identity group elements, ordered lexicographically.  The boundary of
a tuple is the usual alternating sum, with any face containing the
identity dropped.

The one shortcut is in which boundaries are eliminated: the image of
d_{n+1} is spanned by the boundaries of the tuples whose first entry
lies in a generating set X of G (proof in bar_boundary), so homology
builds |X|·(|G| - 1)^n rows of d_{n+1} instead of (|G| - 1)^(n+1).  The
lattice is the same, so the invariant factors are exact.

The chain groups grow as (|G| - 1)^n, so each degree has a largest
group order, in the one table MAX_ORDER_BY_DEGREE; max_order_for reads
it for homology and for callers that check an order before they build
a group's table.
"""

from __future__ import annotations

from itertools import product

from .abelian import FgAbelianGroup
from .errors import SizeLimitError, ValidationError
from .groups import minimal_generating_indices
from .matrices import IntMatrix, snf_diagonal


# largest group order allowed per homology degree; 6 above degree 3
MAX_ORDER_BY_DEGREE = {1: 64, 2: 24, 3: 12}


def max_order_for(n, max_order=None):
    """The order bound of degree n: `max_order` if given, else the table.

    >>> max_order_for(2), max_order_for(4), max_order_for(2, 8)
    (24, 6, 8)
    """
    if max_order is not None:
        return max_order
    return MAX_ORDER_BY_DEGREE.get(n, 6)


_MAX_BASIS = 500_000


def bar_boundary(G, n, first=None):
    """Matrix of d_n: C_n -> C_{n-1}, one row per degree-n tuple.

    With `first` given, only the tuples whose first entry lies in
    `first` get a row, in the same lexicographic order; the columns are
    always all of C_{n-1}.  More rows than _MAX_BASIS raise
    SizeLimitError before any is built.

    If `first` generates G, these rows span the same lattice as all of
    them.  For x in `first`, g != 1 and xg != 1, the boundary
    d_{n+1}(x, g, h_2, ..., h_n) is (g, h_2, ...) - (xg, h_2, ...) plus
    a signed sum of tuples that start with x; d_n kills it, so

        d_n(xg, h_2, ...) = d_n(g, h_2, ...) + (a signed sum of d_n of
                                                tuples that start with x).

    In a finite group every y != 1 is a positive word in the
    generators; if y is not a generator, y = x·g with x a generator and
    g != 1 a shorter word.  Induction on that length puts every row in
    the span of the rows that start with a generator.  Only d∘d = 0 is
    used, so the lattice, and with it the invariant factors, is exact.

    >>> from hopfgal.corpus import cyclic
    >>> bar_boundary(cyclic(2), 1).to_rows()
    [[0]]
    >>> bar_boundary(cyclic(2), 2).to_rows()
    [[2]]
    >>> bar_boundary(cyclic(3), 2).shape
    (4, 2)
    >>> bar_boundary(cyclic(3), 2, first=[1]).to_rows()
    [[2, -1], [1, 1]]
    """
    if n < 1:
        raise ValidationError("boundary needs degree >= 1")
    if first is None:
        firsts = range(1, G.order)
    else:
        firsts = sorted(set(first))
        if firsts and not 0 < firsts[0] <= firsts[-1] < G.order:
            raise ValidationError("first entries must be non-identity "
                                  "elements of the group")
    head = (G.order - 1) ** (n - 1)
    rows = len(firsts) * head
    if rows > _MAX_BASIS:
        raise SizeLimitError("bar basis of size %d exceeds bound %d"
                             % (rows, _MAX_BASIS))
    # tuple i has the digits t_0 - 1, ..., t_{n-1} - 1 in base
    # b = |G| - 1, so a face's column is i % b^(n-1) without t_0, i // b
    # without t_{n-1}, and (i // b^(n-k+1) * b + m - 1) * b^(n-k-1)
    # + i % b^(n-k-1) with t_{k-1}, t_k merged into m
    table = G.table
    b = G.order - 1
    last = (-1) ** n
    merges = [(k, b ** (n - k + 1), b ** (n - k - 1), (-1) ** k)
              for k in range(1, n)]
    nz = []
    for t0 in firsts:
        for r, rest in enumerate(product(range(1, G.order), repeat=n - 1)):
            i = (t0 - 1) * head + r
            tup = (t0,) + rest
            acc = {r: 1}
            j = i // b
            acc[j] = acc.get(j, 0) + last
            for k, high, low, sign in merges:
                m = table[tup[k - 1]][tup[k]]
                if m:
                    j = (i // high * b + m - 1) * low + i % low
                    acc[j] = acc.get(j, 0) + sign
            nz.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    return IntMatrix.from_sparse_rows(rows, head, nz)


def homology(G, n, max_order=None):
    """H_n(G, Z) as invariant factors, for n >= 1.

    Groups above the order bound of the degree (`max_order` if given,
    else the table above) raise SizeLimitError before any chain is
    built.  Both d_n and d_{n+1} are built only on the tuples that start
    with an element of `minimal_generating_indices(G)`: they span the
    same image (bar_boundary has the proof), so the rank of d_n and the
    invariant factors of d_{n+1} are those of the full matrices.

    >>> from hopfgal.corpus import cyclic, klein4
    >>> homology(cyclic(4), 1)
    FgAbelianGroup(0, [4])
    >>> homology(klein4(), 2)
    FgAbelianGroup(0, [2])
    >>> homology(cyclic(2), 3)
    FgAbelianGroup(0, [2])
    >>> homology(cyclic(1), 3)
    FgAbelianGroup(0, [])
    """
    if n < 1:
        raise ValidationError("homology is computed for degrees >= 1")
    bound = max_order_for(n, max_order)
    if G.order > bound:
        raise SizeLimitError("order %d exceeds the degree-%d bound %d"
                             % (G.order, n, bound))
    b_n = (G.order - 1) ** n
    if b_n == 0:
        return FgAbelianGroup.trivial()
    gens = minimal_generating_indices(G)
    rank_n = len(snf_diagonal(bar_boundary(G, n, gens)))
    diag_up = snf_diagonal(bar_boundary(G, n + 1, gens))
    free = b_n - rank_n - len(diag_up)
    # ker(d_n) is a saturated sublattice, so the torsion of the homology
    # equals the torsion of Z^{b_n} / im(d_{n+1})
    return FgAbelianGroup(free, [d for d in diag_up if d > 1])
