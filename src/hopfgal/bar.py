"""Integral group homology of finite groups via the normalized bar
resolution.

This is the package's oracle: a deliberately direct construction whose
only arithmetic is the Smith normal form it delegates to.  Every
Hopf-formula value is compared against it.

The degree-n chain group has one basis element per n-tuple of
non-identity group elements, ordered lexicographically.  The boundary of
a tuple is the usual alternating sum, with any face containing the
identity dropped; bar_boundary builds it in full, as the reference.

homology eliminates far less: an algebraic Morse matching on every
position of a tuple pairs off all tuples but the Anick chains of the
shortlex normal forms of G, and only the Morse differential between
those is eliminated, 42 x 15 for D6 at degree 3 and 1 x 1 for Z12
(the matching and its proof are in homology).

The chain groups grow as (|G| - 1)^n, so each degree has a largest
group order, in the one table MAX_ORDER_BY_DEGREE; max_order_for reads
it for homology and for callers that check an order before they build
a group's table.
"""

from __future__ import annotations

from itertools import product

from .abelian import FgAbelianGroup
from .errors import InternalCheckError, SizeLimitError, ValidationError
from .groups import minimal_generating_indices
from .matrices import IntMatrix, snf_diagonal


# largest group order allowed per homology degree; 6 above degree 3
MAX_ORDER_BY_DEGREE = {1: 64, 2: 32, 3: 32}


def max_order_for(n, max_order=None):
    """The order bound of degree n: `max_order` if given, else the table.

    >>> max_order_for(2), max_order_for(4), max_order_for(2, 8)
    (32, 6, 8)
    """
    if max_order is not None:
        return max_order
    return MAX_ORDER_BY_DEGREE.get(n, 6)


_MAX_BASIS = 500_000


def bar_boundary(G, n):
    """Matrix of d_n: C_n -> C_{n-1}, one row per degree-n tuple, in
    lexicographic order.  More rows than _MAX_BASIS raise SizeLimitError
    before any is built.

    >>> from hopfgal.corpus import cyclic
    >>> bar_boundary(cyclic(2), 1).to_rows()
    [[0]]
    >>> bar_boundary(cyclic(2), 2).to_rows()
    [[2]]
    >>> bar_boundary(cyclic(3), 2).to_rows()
    [[2, -1], [1, 1], [1, 1], [-1, 2]]
    """
    if n < 1:
        raise ValidationError("boundary needs degree >= 1")
    b = G.order - 1
    rows = b ** n
    if rows > _MAX_BASIS:
        raise SizeLimitError("bar basis of size %d exceeds bound %d"
                             % (rows, _MAX_BASIS))
    # tuple i has the digits t_0 - 1, ..., t_{n-1} - 1 in base b, so a
    # face's column is i % b^(n-1) without t_0, i // b without t_{n-1},
    # and (i // b^(n-k+1) * b + m - 1) * b^(n-k-1) + i % b^(n-k-1) with
    # t_{k-1}, t_k merged into m
    table = G.table
    head = b ** (n - 1)
    last = (-1) ** n
    merges = [(k, b ** (n - k + 1), b ** (n - k - 1), (-1) ** k)
              for k in range(1, n)]
    nz = []
    for i, tup in enumerate(product(range(1, G.order), repeat=n)):
        acc = {i % head: 1}
        j = i // b
        acc[j] = acc.get(j, 0) + last
        for k, high, low, sign in merges:
            m = table[tup[k - 1]][tup[k]]
            if m:
                j = (i // high * b + m - 1) * low + i % low
                acc[j] = acc.get(j, 0) + sign
        nz.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    return IntMatrix.from_sparse_rows(rows, head, nz)


def _cell_faces(table, cell):
    """d(cell) as {face: coefficient}, faces that repeat summed."""
    acc = {cell[1:]: 1}
    sign = -1
    for i in range(1, len(cell)):
        m = table[cell[i - 1]][cell[i]]
        if m:
            face = cell[:i - 1] + (m,) + cell[i + 1:]
            acc[face] = acc.get(face, 0) + sign
        sign = -sign
    acc[cell[:-1]] = acc.get(cell[:-1], 0) + sign
    return acc


class _Anick:
    """The Morse matching of the normalized bar complex of G whose
    critical cells are the Anick chains (see homology), with its flow
    and Morse differential, each built lazily and kept."""

    def __init__(self, G):
        # shortlex-least words by a breadth-first search that multiplies
        # on the right, each level walked in shortlex order; word[h] is
        # word[parent[h]] and one letter, and the identity has no parent
        table = self.table = G.table
        gens = minimal_generating_indices(G)
        word = self.word = [None] * G.order
        parent = self.parent = [-1] * G.order
        word[0] = ()
        level = [0]
        while level:
            reached = []
            for g in level:
                for x in gens:
                    h = table[g][x]
                    if word[h] is None:
                        word[h] = word[g] + (x,)
                        parent[h] = g
                        reached.append(h)
            level = reached
        self.element = {w: g for g, w in enumerate(word)}
        self.cuts = {}
        self.chains = {0: [()], 1: [(x,) for x in sorted(gens)]}
        self.flows = {}

    def _cut(self, a, b):
        """The length of the shortest prefix u of w(b) such that
        w(a)·u is not a normal form, or 0 if w(a)·w(b) is one."""
        k = self.cuts.get((a, b))
        if k is None:
            # w(q)·x is normal exactly when q·x is a child of q
            table, parent = self.table, self.parent
            k, q = 0, a
            for i, x in enumerate(self.word[b], 1):
                h = table[q][x]
                if parent[h] != q:
                    k = i
                    break
                q = h
            self.cuts[a, b] = k
        return k

    def match(self, cell):
        """(partner, i) for a cell matched up with the (n+1)-cell partner,
        whose face i it is (i >= 1); (partner, -i) for one matched down
        with its own face i; (None, 0) for a critical cell."""
        for j, g in enumerate(cell):
            k = self._cut(cell[j - 1], g) if j else 1
            if not k:
                merged = self.table[cell[j - 1]][g]
                return cell[:j - 1] + (merged,) + cell[j + 1:], -j
            w = self.word[g]
            if k < len(w):
                split = (self.element[w[:k]], self.element[w[k:]])
                return cell[:j] + split + cell[j + 1:], j + 1
        return None, 0

    def critical(self, n):
        """The critical n-cells in lexicographic order: a critical
        (n-1)-cell (..., a) followed by each b such that w(a)·w(b) first
        stops being a normal form at the last letter of w(b)."""
        if n not in self.chains:
            word = self.word
            self.chains[n] = [cell + (b,) for cell in self.critical(n - 1)
                              for b in range(1, len(word))
                              if self._cut(cell[-1], b) == len(word[b])]
        return self.chains[n]

    def flow(self, cell):
        """Φ(cell) as {critical cell: coefficient}: the cell itself if it
        is critical, 0 if it is matched down, and for a cell σ matched up
        with τ, whose face it is with coefficient ε,
        -ε·Σ_{σ' != σ} [dτ : σ']·Φ(σ').  Iterative, kept per cell; more
        than _MAX_BASIS kept cells raise SizeLimitError."""
        flows = self.flows
        out = flows.get(cell)
        if out is not None:
            return out
        stack = [(cell, None)]
        while stack:
            s, pending = stack.pop()
            if pending is None:
                if s in flows:
                    if flows[s] is None:
                        raise InternalCheckError("the Morse matching has "
                                                 "a cycle through %r" % (s,))
                    continue
                partner, i = self.match(s)
                if i <= 0:
                    flows[s] = {} if i else {s: 1}
                    continue
                faces = _cell_faces(self.table, partner)
                sign = faces.pop(s, 0)
                if sign != (-1 if i & 1 else 1):
                    raise InternalCheckError(
                        "%r is face %d of its partner %r with coefficient "
                        "%d" % (s, i, partner, sign))
                if len(flows) >= _MAX_BASIS:
                    raise SizeLimitError("Morse flow exceeds %d cells"
                                         % _MAX_BASIS)
                todo = [(f, None) for f in faces if flows.get(f) is None]
                if todo:
                    flows[s] = None
                    stack.append((s, (sign, faces)))
                    stack.extend(todo)
                    continue
            else:
                sign, faces = pending
            # every face of s's partner has its flow now
            acc = {}
            for f, v in faces.items():
                v *= -sign
                for c, u in flows[f].items():
                    acc[c] = acc.get(c, 0) + v * u
            flows[s] = {c: u for c, u in acc.items() if u}
        return flows[cell]

    def boundary(self, n):
        """The Morse differential from the critical n-cells to the
        critical (n-1)-cells: row r is Φ(d c) for the r-th critical c."""
        cols = {c: j for j, c in enumerate(self.critical(n - 1))}
        rows = []
        for cell in self.critical(n):
            acc = {}
            for f, v in _cell_faces(self.table, cell).items():
                for c, u in self.flow(f).items():
                    j = cols[c]
                    acc[j] = acc.get(j, 0) + v * u
            rows.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
        return IntMatrix.from_sparse_rows(len(rows), len(cols), rows)


def homology(G, n, max_order=None):
    """H_n(G, Z) as invariant factors, for n >= 1.

    Groups above the order bound of the degree (`max_order` if given,
    else the table above) raise SizeLimitError before any chain is
    built.

    The matching (_Anick).  X = minimal_generating_indices(G), and w(g)
    is the shortlex-least positive word for g over X.  A breadth-first
    search that multiplies on the right and walks each level in shortlex
    order reaches g first along w(g).  A factor of a normal form is a
    normal form (a smaller word for the factor would give a smaller word
    for the whole), so the normal forms are the irreducible words of a
    complete rewriting system.  u·v is normal when w(u) + w(v) == w(uv),
    as words, not merely as lengths.  A cell (g_1, ..., g_n) is
    classified by scanning its positions:

    - position 1: if |w(g_1)| >= 2, it is matched up with
      (x, g_1', g_2, ...), where w(g_1) = x·w(g_1');
    - position j >= 2: let k be the length of the shortest prefix u of
      w(g_j) such that w(g_{j-1})·u is not normal.  With no such k the
      cell is matched down with the cell that merges g_{j-1}g_j; with
      k < |w(g_j)| it is matched up with the cell that splits g_j into
      u·v; with k = |w(g_j)| the scan moves on to position j + 1;
    - a cell that passes every position is critical: an Anick chain.

    This is an involution.  If σ is matched up at position j with τ,
    then τ agrees with σ before j, passes j (the prefixes of u shorter
    than k are normal after g_{j-1}, u is not, and u is w(u) as a prefix
    of a normal form), and at j + 1 the word w(u)·w(v) = w(g_j) is
    normal, so τ is matched down with σ.  Conversely, if σ is matched
    down at j, the merged entry has the word w(g_{j-1})·w(g_j); at
    position 1 it has length at least 2 and its first letter is g_1,
    and at j - 1 >= 2 its shortest bad prefix is w(g_{j-1}), shorter
    than the word, so the merged cell is matched up with σ.  Either way
    the matched face is the merge of positions j, j + 1 of τ, with
    coefficient (-1)^j in ZG; _Anick.flow raises InternalCheckError on
    any other coefficient.  On the bar resolution over ZG this is the
    matching whose critical cells are the Anick chains, and it is
    acyclic (Jöllenbeck & Welker, Mem. AMS 197, 2009, ch. 5; Sköldberg,
    Trans. AMS 358, 2006); tensoring with Z only deletes edges of the
    Morse graph, so it stays acyclic here.

    The Morse complex.  Φ maps a degree-m cell to a combination of
    critical m-cells (_Anick.flow), and ∂^M_{m+1} sends a critical
    (m+1)-cell c to Φ(d c).  By the main theorem of algebraic Morse
    theory (Sköldberg; Jöllenbeck & Welker, ch. 2) this complex is
    homotopy equivalent to the bar complex, so H_n(G, Z) is
    ker ∂^M_n / im ∂^M_{n+1}: its torsion is the non-unit invariant
    factors of ∂^M_{n+1}, and its free rank, the number of critical
    n-cells minus both ranks, is 0 for finite G and n >= 1 (Brown, GTM
    87, III.10); any other value raises InternalCheckError.

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
    if G.order == 1:
        return FgAbelianGroup.trivial()
    anick = _Anick(G)
    rank_n = len(snf_diagonal(anick.boundary(n)))
    diag_up = snf_diagonal(anick.boundary(n + 1))
    free = len(anick.critical(n)) - rank_n - len(diag_up)
    if free:
        raise InternalCheckError("H_%d of %r has free rank %d" % (n, G, free))
    return FgAbelianGroup(0, [d for d in diag_up if d > 1])
