"""Integral group homology of finite groups via the normalized bar
resolution.

This is the package's oracle: a deliberately direct construction whose
only arithmetic is the Smith normal form it delegates to.  Every
Hopf-formula value is compared against it.

The degree-n chain group has one basis element per n-tuple of
non-identity group elements, ordered lexicographically.  The boundary of
a tuple is the usual alternating sum, with any face containing the
identity dropped.

Two exact reductions shrink what is eliminated.  The image of d_{n+1}
is spanned by the boundaries of the tuples whose first entry lies in a
generating set X of G (proof in bar_boundary), so only |X|·(|G| - 1)^n
rows are needed instead of (|G| - 1)^(n+1).  The same matching, read
on the columns, is the first step of an algebraic Morse reduction
(Sköldberg, Trans. AMS 358, 2006): every tuple that starts outside X is
carried onto the tuples that start in X by a projection whose kernel
lies in the image, so only |X|·(|G| - 1)^(n-1) columns stay, and the
rows matched to the dropped columns vanish (proof in homology).  Both
keep the lattice quotient, so the invariant factors are exact.

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
MAX_ORDER_BY_DEGREE = {1: 64, 2: 32, 3: 16}


def max_order_for(n, max_order=None):
    """The order bound of degree n: `max_order` if given, else the table.

    >>> max_order_for(2), max_order_for(4), max_order_for(2, 8)
    (32, 6, 8)
    """
    if max_order is not None:
        return max_order
    return MAX_ORDER_BY_DEGREE.get(n, 6)


_MAX_BASIS = 500_000


def _faces(G, n, firsts, with_first):
    """The boundary of each degree-n tuple whose first entry lies in
    `firsts`, in lexicographic order, as a {column: sign} dict that may
    hold zeros; without `with_first`, the face that drops the first
    entry is left out."""
    # tuple i has the digits t_0 - 1, ..., t_{n-1} - 1 in base
    # b = |G| - 1, so a face's column is i % b^(n-1) without t_0, i // b
    # without t_{n-1}, and (i // b^(n-k+1) * b + m - 1) * b^(n-k-1)
    # + i % b^(n-k-1) with t_{k-1}, t_k merged into m
    table = G.table
    b = G.order - 1
    head = b ** (n - 1)
    last = (-1) ** n
    merges = [(k, b ** (n - k + 1), b ** (n - k - 1), (-1) ** k)
              for k in range(1, n)]
    for t0 in firsts:
        for r, rest in enumerate(product(range(1, G.order), repeat=n - 1)):
            i = (t0 - 1) * head + r
            tup = (t0,) + rest
            acc = {r: 1} if with_first else {}
            j = i // b
            acc[j] = acc.get(j, 0) + last
            for k, high, low, sign in merges:
                m = table[tup[k - 1]][tup[k]]
                if m:
                    j = (i // high * b + m - 1) * low + i % low
                    acc[j] = acc.get(j, 0) + sign
            yield acc


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
    nz = [tuple(sorted((j, v) for j, v in acc.items() if v))
          for acc in _faces(G, n, firsts, True)]
    return IntMatrix.from_sparse_rows(rows, head, nz)


def _splits(G, gens):
    """(g, x, h) with g = x·h for every g outside gens and the identity,
    in the order a breadth-first search from `gens` by left
    multiplication reaches g: x is in gens, h != 1, and h was reached one
    step before g (a generator counts as reached at step 0)."""
    table = G.table
    seen = set(gens)
    seen.add(0)
    frontier = list(gens)
    out = []
    while frontier:
        reached = []
        for h in frontier:
            for x in gens:
                g = table[x][h]
                if g not in seen:
                    seen.add(g)
                    out.append((g, x, h))
                    reached.append(g)
        frontier = reached
    return out


def _projection(splits, offsets, faces, t):
    """Π(e_(g, t)) for every g != 1 at one tail t, as {column: value}
    dicts indexed by g (see homology).

    A generator x gives e_(x, t), at column offsets[x] + t: offsets[x]
    is the column of the first cell that starts with x.  A split g = x·h
    gives Π(e_(h, t)) minus (x, faces[h]): faces[h] holds the faces of
    (h, t) other than the one that drops h, and prefixing x to them,
    with every sign turned, gives the faces of (x, h, t) that start
    with x.
    """
    phi = [None] * len(faces)
    for x, off in offsets.items():
        phi[x] = {off + t: 1}
    for g, x, h in splits:
        p = dict(phi[h])
        off = offsets[x]
        for j, v in faces[h].items():
            j += off
            p[j] = p.get(j, 0) - v
        phi[g] = p
    return phi


def _reduced_boundary(G, m, gens):
    """(R, |B_m|): R is Π of the rows of d_{m+1} that start with an
    element of `gens` and are not matched to a cell of B_m, on the
    columns A_m, the degree-m tuples that start with an element of
    `gens` in lexicographic order (see homology).  More generator-first
    rows than _MAX_BASIS raise SizeLimitError before any is built."""
    o = G.order
    head = (o - 1) ** (m - 1)
    rows = len(gens) * head * (o - 1)
    if rows > _MAX_BASIS:
        raise SizeLimitError("bar basis of size %d exceeds bound %d"
                             % (rows, _MAX_BASIS))
    table = G.table
    splits = _splits(G, gens)
    matched = {(x, h) for _, x, h in splits}
    offsets = {x: k * head for k, x in enumerate(gens)}
    rest = list(_faces(G, m, range(1, o), False))
    nz = []
    for t in range(head):
        faces = [{}] + rest[t::head]
        phi = _projection(splits, offsets, faces, t)
        for x, off in offsets.items():
            row_x = table[x]
            for g in range(1, o):
                if (x, g) in matched:
                    continue
                # Π d_{m+1}(x, g, t) = Π(g, t) - Π(xg, t) - (x, faces[g]),
                # where (xg, t) drops out if xg = 1
                acc = dict(phi[g])
                h = row_x[g]
                if h:
                    for j, v in phi[h].items():
                        acc[j] = acc.get(j, 0) - v
                for j, v in faces[g].items():
                    j += off
                    acc[j] = acc.get(j, 0) - v
                nz.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    return (IntMatrix.from_sparse_rows(len(nz), len(gens) * head, nz),
            len(splits) * head)


def homology(G, n, max_order=None):
    """H_n(G, Z) as invariant factors, for n >= 1.

    Groups above the order bound of the degree (`max_order` if given,
    else the table above) raise SizeLimitError before any chain is
    built.

    Both d_n and d_{n+1} are reduced before they are eliminated.  First
    the rows: the image of d_{m+1} is spanned by its rows that start with
    an element of X = minimal_generating_indices(G) (bar_boundary has
    the proof).  Then the columns, by the first step of an algebraic
    Morse reduction (Sköldberg, Trans. AMS 358, 2006).

    Write a degree-m cell as (g, t), with t = (h_2, ..., h_m) its tail.
    A_m holds the cells whose first entry is in X and B_m the rest, so
    |B_m| = (|G| - 1 - |X|)(|G| - 1)^(m-1).  A breadth-first search from
    X by left multiplication splits each g outside X and the identity as
    g = x_g·g', with x_g in X and g' != 1 one step nearer to X
    (_splits).  The generator-first row matched to b = (g, t) is

        r_b = d_{m+1}(x_g, g', t) = e_(g', t) - e_(g, t) + F(x_g, g', t),

    where F(x, h, t), the sum of (-1)^i face_i(x, h, t) over i >= 2, is a
    sum of cells that start with x, so it lies in Z^{A_m}.  Define
    Π: Z^{C_m} -> Z^{A_m} as the identity on A_m and, in breadth-first
    order, Π(e_(g, t)) = Π(e_(g', t)) + F(x_g, g', t) (_projection).

    - e_b - Π(e_b) lies in im d_{m+1}: it equals
      (e_(g', t) - Π(e_(g', t))) - r_b, and induction on the depth of g
      ends at a generator, where it is 0.  These |B_m| vectors span
      ker Π, so ker Π lies in im d_{m+1}.
    - Π(r_b) = Π(e_(g', t)) - Π(e_(g, t)) + F(x_g, g', t) = 0: the terms
      telescope.

    Hence Z^{C_m} / im d_{m+1} is Z^{A_m} / Π(im d_{m+1}), and that
    lattice is spanned by Π of the generator-first rows other than the
    matched rows r_b (_reduced_boundary).  So the rank of d_{m+1} is
    |B_m| plus the rank of the reduced matrix, and the non-unit invariant
    factors of the reduced matrix are the torsion of Z^{C_m}/im d_{m+1}.
    homology reduces at m = n for the torsion and the rank of d_{n+1},
    and at m = n - 1 for the rank of d_n; d_1 = 0.

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
    rank_n = 0
    if n > 1:
        reduced, matched = _reduced_boundary(G, n - 1, gens)
        rank_n = matched + len(snf_diagonal(reduced))
    reduced, matched = _reduced_boundary(G, n, gens)
    diag_up = snf_diagonal(reduced)
    free = b_n - rank_n - matched - len(diag_up)
    # ker(d_n) is a saturated sublattice, so the torsion of the homology
    # equals the torsion of Z^{b_n} / im(d_{n+1})
    return FgAbelianGroup(free, [d for d in diag_up if d > 1])
