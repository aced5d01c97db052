"""Finite groups as multiplication tables, with the constructions the
Galois and Hopf layers need: subgroups, quotients, pullbacks, commutator
subgroups, abelian invariants, and the prime-set closure operator.

Elements are indices 0..order-1, 0 is always the identity, a product is
table[a][b] and an inverse inv[g].  Everything is immutable and
deterministic: subgroup members are sorted, quotient representatives
are minimal, and breadth-first closures follow generator order as given.
"""

from __future__ import annotations

from .abelian import FgAbelianGroup, PrimeSet
from .errors import (
    NotAbelianError, NotNormalError, NotSubsetError, SizeLimitError,
    ValidationError,
)
from .matrices import IntMatrix

MAX_ORDER = 5040
_ASSOC_CHECK_BOUND = 64


class FiniteGroup:
    """A finite group given by its multiplication table.

    >>> Z3 = FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    >>> Z3.table[1][2], Z3.inv[1]
    (0, 2)
    >>> Z3.element_order(1)
    3
    """

    __slots__ = ("table", "order", "inv", "name", "_derived")

    def __init__(self, table, name=None, validate=True):
        """validate=False is for tables the package built itself: their
        rows are kept as they are, and only the shape and two-sided
        inverses are checked."""
        if validate:
            table = tuple(tuple(int(x) for x in row) for row in table)
        else:
            table = tuple(map(tuple, table))
        n = len(table)
        if n == 0:
            raise ValidationError("empty table")
        if any(len(row) != n for row in table):
            raise ValidationError("table is not square")
        self.table = table
        self.order = n
        self.name = name
        if validate:
            self._validate()
        inv = []
        for g, row in enumerate(table):
            h = row.index(0) if 0 in row else None
            if h is None or table[h][g] != 0:
                raise ValidationError("element %d has no inverse" % g)
            inv.append(h)
        self.inv = tuple(inv)
        self._derived = None

    def _validate(self):
        n = self.order
        full = set(range(n))
        for i, row in enumerate(self.table):
            if set(row) != full:
                raise ValidationError("row %d is not a permutation" % i)
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != full:
                raise ValidationError("column %d is not a permutation" % j)
        if any(self.table[0][g] != g or self.table[g][0] != g
               for g in range(n)):
            raise ValidationError("index 0 is not a two-sided identity")
        if n <= _ASSOC_CHECK_BOUND:
            t = self.table
            for a in range(n):
                ta = t[a]
                for b in range(n):
                    tab = t[ta[b]]
                    tb = t[b]
                    for c in range(n):
                        if tab[c] != ta[tb[c]]:
                            raise ValidationError(
                                "associativity fails at (%d,%d,%d)"
                                % (a, b, c))

    def conjugate(self, g, by):
        """by^-1 * g * by."""
        t = self.table
        return t[t[self.inv[by]][g]][by]

    def commutator(self, a, b):
        """a^-1 * b^-1 * a * b."""
        t = self.table
        return t[t[t[self.inv[a]][self.inv[b]]][a]][b]

    def element_order(self, g):
        k, x = 1, g
        while x != 0:
            x = self.table[x][g]
            k += 1
        return k

    def power(self, g, m):
        if m < 0:
            return self.power(self.inv[g], -m)
        x = 0
        for _ in range(m):
            x = self.table[x][g]
        return x

    def elements(self):
        return range(self.order)

    def is_abelian(self):
        t = self.table
        return all(t[a][b] == t[b][a]
                   for a in range(self.order) for b in range(a))

    def trivial_subgroup(self):
        return Subgroup(self, (0,))

    def full_subgroup(self):
        return Subgroup(self, range(self.order))

    def generated_subgroup(self, gens):
        """Closure of the generators, breadth-first from the identity."""
        gens = [g for g in gens]
        seen = {0}
        queue = [0]
        for x in queue:
            for g in gens:
                y = self.table[x][g]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return Subgroup(self, seen, _checked=True)

    def center(self):
        t = self.table
        members = [z for z in range(self.order)
                   if all(t[z][g] == t[g][z] for g in range(self.order))]
        return Subgroup(self, members, _checked=True)

    def derived_subgroup(self):
        """[G, G], kept after the first call: groups are immutable.

        Only the members are kept.  A kept Subgroup would point back at
        the group, which would then wait for the cycle collector.
        """
        if self._derived is None:
            G = self.full_subgroup()
            self._derived = commutator_subgroup(G, G).members
        return Subgroup(self, self._derived, _checked=True)

    def abelian_invariants(self):
        """Invariant factors, for an abelian group: the cokernel of its
        Cayley relations.

        Take generators g_i greedily, each the least element not yet
        generated, and let c(x) be the exponent vector of x's
        breadth-first word in them, so c(0) = 0.  As G is abelian, the
        rows c(x) + e_i - c(x g_i) lie in the kernel of e_i -> g_i.
        Modulo them, adding or removing e_i turns c(x) into c(x g_i) or
        c(x g_i^-1); so every vector is congruent to c of its image, and
        a vector in the kernel to c(0) = 0: the rows span the kernel.
        """
        if not self.is_abelian():
            raise NotAbelianError("abelian_invariants needs an abelian group")
        gens, seen = [], {0}
        for g in range(1, self.order):
            if g not in seen:
                gens.append(g)
                seen = set(self.generated_subgroup(gens).members)
        t = self.table
        words = [None] * self.order
        words[0] = [0] * len(gens)
        queue = [0]
        for x in queue:
            for i, g in enumerate(gens):
                y = t[x][g]
                if words[y] is None:
                    words[y] = list(words[x])
                    words[y][i] += 1
                    queue.append(y)
        rows = []
        for x, c in enumerate(words):
            for i, g in enumerate(gens):
                row = [a - b for a, b in zip(c, words[t[x][g]])]
                row[i] += 1
                if any(row):
                    rows.append(row)
        return FgAbelianGroup.from_relation_matrix(
            len(gens), IntMatrix(rows, cols=len(gens)))

    def quotient(self, N):
        """Quotient by a normal subgroup: (group, projection).

        Coset representatives are the minimal indices, so the identity
        coset is represented by 0.  N is normal iff Ng lies in gN for
        each representative g, as N^(gn) = (N^g)^n for n in N.
        """
        if N.ambient is not self:
            raise ValidationError("subgroup of a different group")
        # g is the least element of its coset when the scan first meets
        # it, so the cosets are found in the order of their least elements
        t = self.table
        cls = [None] * self.order
        reps = []
        for g in range(self.order):
            if cls[g] is None:
                row = t[g]
                for x in N.members:
                    cls[row[x]] = len(reps)
                if any(cls[t[x][g]] != cls[g] for x in N.members):
                    raise NotNormalError("quotient needs a normal subgroup")
                reps.append(g)
        table = [[cls[row[b]] for b in reps] for row in (t[a] for a in reps)]
        Q = FiniteGroup(table, validate=False)
        return Q, GroupHom(self, Q, cls, validate=False)

    def abelianization(self):
        return self.quotient(self.derived_subgroup())

    def __repr__(self):
        return "FiniteGroup(order=%d%s)" % (
            self.order, ", name=%r" % self.name if self.name else "")


class Subgroup:
    """A subgroup as a sorted member tuple inside an ambient group."""

    __slots__ = ("ambient", "members")

    def __init__(self, ambient, members, _checked=False):
        self.ambient = ambient
        self.members = tuple(sorted(set(int(m) for m in members)))
        if not _checked:
            ms = set(self.members)
            if 0 not in ms:
                raise ValidationError("subgroup must contain the identity")
            for a in self.members:
                if ambient.inv[a] not in ms:
                    raise ValidationError("not inverse-closed")
                for b in self.members:
                    if ambient.table[a][b] not in ms:
                        raise ValidationError("not closed under product")

    def __contains__(self, g):
        return g in set(self.members)

    def __len__(self):
        return len(self.members)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.ambient is other.ambient
                and self.members == other.members)

    def __hash__(self):
        return hash((id(self.ambient), self.members))

    def __repr__(self):
        return "Subgroup(order=%d of %r)" % (len(self.members), self.ambient)

    def is_normal(self):
        G = self.ambient
        ms = set(self.members)
        return all(G.conjugate(x, g) in ms
                   for x in self.members for g in G.elements())

    def is_central(self):
        G = self.ambient
        t = G.table
        return all(t[z][g] == t[g][z]
                   for z in self.members for g in G.elements())

    def contains_subgroup(self, other):
        return set(other.members) <= set(self.members)

    def intersection(self, other):
        if self.ambient is not other.ambient:
            raise ValidationError("subgroups of different groups")
        return Subgroup(self.ambient,
                        set(self.members) & set(other.members),
                        _checked=True)

    def product_with(self, other):
        """<H, K>, which is HK when one factor is normal, as HK = KH."""
        if self.ambient is not other.ambient:
            raise ValidationError("subgroups of different groups")
        return self.ambient.generated_subgroup(self.members + other.members)

    def as_group(self):
        """(the subgroup as a group in its own right, inclusion hom)."""
        index = {m: i for i, m in enumerate(self.members)}
        t = self.ambient.table
        table = [[index[t[a][b]] for b in self.members] for a in self.members]
        H = FiniteGroup(table, validate=False)
        incl = GroupHom(H, self.ambient, self.members, validate=False)
        return H, incl


class GroupHom:
    """A homomorphism as a total mapping of element indices.

    >>> from hopfgal.corpus import cyclic
    >>> Z4, Z2 = cyclic(4), cyclic(2)
    >>> f = GroupHom(Z4, Z2, [0, 1, 0, 1])
    >>> sorted(f.kernel().members)
    [0, 2]
    >>> f.is_surjective()
    True
    """

    __slots__ = ("domain", "codomain", "mapping")

    def __init__(self, domain, codomain, mapping, validate=True):
        self.domain = domain
        self.codomain = codomain
        try:
            self.mapping = tuple(int(x) for x in mapping)
        except (TypeError, ValueError):
            raise ValidationError("mapping entries must be integers")
        if len(self.mapping) != domain.order:
            raise ValidationError("mapping length mismatch")
        if validate:
            if not all(0 <= x < codomain.order for x in self.mapping):
                raise ValidationError("mapping leaves the codomain")
            if self.mapping[0] != 0:
                raise ValidationError("identity must map to identity")
            dt, ct, m = domain.table, codomain.table, self.mapping
            for a in range(domain.order):
                for b in range(domain.order):
                    if m[dt[a][b]] != ct[m[a]][m[b]]:
                        raise ValidationError(
                            "not a homomorphism at (%d,%d)" % (a, b))

    def __call__(self, g):
        return self.mapping[g]

    def __eq__(self, other):
        return (isinstance(other, GroupHom)
                and self.domain is other.domain
                and self.codomain is other.codomain
                and self.mapping == other.mapping)

    def __hash__(self):
        return hash((id(self.domain), id(self.codomain), self.mapping))

    def __repr__(self):
        return "GroupHom(%r -> %r)" % (self.domain, self.codomain)

    def kernel(self):
        return Subgroup(self.domain,
                        [g for g in self.domain.elements()
                         if self.mapping[g] == 0],
                        _checked=True)

    def preimage_of(self, sub):
        ms = set(sub.members)
        return Subgroup(self.domain,
                        [g for g in self.domain.elements()
                         if self.mapping[g] in ms],
                        _checked=True)

    def is_surjective(self):
        return len(set(self.mapping)) == self.codomain.order

    def then(self, other):
        """self followed by other (their composite as one hom)."""
        if other.domain is not self.codomain:
            raise ValidationError("composition mismatch")
        return GroupHom(self.domain, other.codomain,
                        [other.mapping[x] for x in self.mapping],
                        validate=False)


def identity_hom(G):
    return GroupHom(G, G, range(G.order), validate=False)


def inner_automorphism(G, g):
    return GroupHom(G, G, [G.conjugate(x, g) for x in G.elements()],
                    validate=False)


class DirectProduct:
    """A x B with its projections; element (a, b) is a * |B| + b."""

    __slots__ = ("group", "proj0", "proj1")

    def __init__(self, A, B, max_order=MAX_ORDER):
        n = _product_order(A, B, max_order)
        bo = B.order
        at, bt = A.table, B.table
        table = [[0] * n for _ in range(n)]
        for a1 in range(A.order):
            for b1 in range(bo):
                r = table[a1 * bo + b1]
                ra = at[a1]
                rb = bt[b1]
                for a2 in range(A.order):
                    base = ra[a2] * bo
                    for b2 in range(bo):
                        r[a2 * bo + b2] = base + rb[b2]
        self.group = FiniteGroup(table, validate=False)
        self.proj0 = GroupHom(self.group, A, [i // bo for i in range(n)],
                              validate=False)
        self.proj1 = GroupHom(self.group, B, [i % bo for i in range(n)],
                              validate=False)


def _product_order(A, B, max_order):
    n = A.order * B.order
    if n > max_order:
        raise SizeLimitError("product order %d exceeds bound %d"
                             % (n, max_order))
    return n


def pullback(f, g, max_order=MAX_ORDER):
    """Fiber product of f and g: (group, projection to dom f, to dom g).

    Its elements are the pairs (a, b) with f(a) == g(b), numbered in
    ascending order of a, then b, as they are inside A x B.  The bound
    is on |A|·|B|, as for A x B.
    """
    if f.codomain is not g.codomain:
        raise ValidationError("pullback needs a common codomain")
    A, B = f.domain, g.domain
    _product_order(A, B, max_order)
    fibres = [[] for _ in range(f.codomain.order)]
    for b in B.elements():
        fibres[g(b)].append(b)
    pairs = [(a, b) for a in A.elements() for b in fibres[f(a)]]
    # the pair (a, b) sits at pos[a |B| + b]
    nb = B.order
    pos = [None] * (A.order * nb)
    for i, (a, b) in enumerate(pairs):
        pos[a * nb + b] = i
    at, bt = [[x * nb for x in row] for row in A.table], B.table
    table = []
    for a1, b1 in pairs:
        ra, rb = at[a1], bt[b1]
        table.append([pos[ra[a2] + rb[b2]] for a2, b2 in pairs])
    P = FiniteGroup(table, validate=False)
    return (P, GroupHom(P, A, [a for a, _ in pairs], validate=False),
            GroupHom(P, B, [b for _, b in pairs], validate=False))


def commutator_subgroup(H, K):
    """[H, K], generated by the [h, k] alone: H and K normalise that, as
    [x,y]^z = [xz,y][z,y]^-1 (z in H) and [x,z]^-1[x,yz] (z in K)."""
    if H.ambient is not K.ambient:
        raise ValidationError("subgroups of different groups")
    G = H.ambient
    gens = {G.commutator(h, k) for h in H.members for k in K.members}
    gens.discard(0)
    return G.generated_subgroup(sorted(gens))


def closure_P(A, K, primes):
    """Preimage of the local torsion of A/K; K must contain [A,A].

    Equivalently {a : a^m in K for some number m of the prime set}.
    Such a K is normal, as A/[A,A] is abelian, so quotient's check holds.

    >>> from hopfgal.corpus import cyclic
    >>> Z12 = cyclic(12)
    >>> K = Z12.generated_subgroup([6])
    >>> closure_P(Z12, K, PrimeSet([2])).members
    (0, 3, 6, 9)
    """
    if K.ambient is not A:
        raise ValidationError("subgroup of a different group")
    if not K.contains_subgroup(A.derived_subgroup()):
        raise NotSubsetError("closure needs K to contain the commutator "
                             "subgroup")
    Q, proj = A.quotient(K)
    return Subgroup(A, [a for a in A.elements()
                        if primes.is_number(Q.element_order(proj(a)))],
                    _checked=True)


def local_torsion_is_trivial(G, primes):
    """No element beyond the identity has its order a number of the set."""
    return all(not primes.is_number(G.element_order(g))
               for g in range(1, G.order))


def from_permutations(degree, generators, max_order=MAX_ORDER):
    """Closure of permutation generators, BFS from the identity.

    Permutations are one-line images of 0..degree-1.  Element indices
    follow discovery order, so the identity is 0.  The degree is at most
    max_order, like the order of the closure.
    """
    if not 0 <= degree <= max_order:
        raise ValidationError("permutation degree %d is not in 0..%d"
                              % (degree, max_order))
    gens = []
    for p in generators:
        p = tuple(int(x) for x in p)
        if sorted(p) != list(range(degree)):
            raise ValidationError("not a permutation of 0..%d" % (degree - 1))
        gens.append(p)
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    for x in elems:
        for g in gens:
            y = tuple(g[x[i]] for i in range(degree))
            if y not in index:
                if len(elems) >= max_order:
                    raise SizeLimitError("closure exceeds bound %d"
                                         % max_order)
                index[y] = len(elems)
                elems.append(y)
    n = len(elems)
    table = [[0] * n for _ in range(n)]
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i][j] = index[tuple(q[p[k]] for k in range(degree))]
    return FiniteGroup(table, validate=False)


def minimal_generating_indices(G):
    """A small generating set, chosen greedily and deterministically."""
    gens = []
    current = {0}
    while len(current) < G.order:
        best = None
        best_size = len(current)
        for g in range(1, G.order):
            if g in current:
                continue
            size = len(G.generated_subgroup(gens + [g]).members)
            if size > best_size:
                best, best_size = g, size
                if size == G.order:
                    break
        gens.append(best)
        current = set(G.generated_subgroup(gens).members)
    return gens


def all_homs(A, B):
    """Every homomorphism A -> B, by extending generator images; a map
    that respects every Cayley edge x -> xg is a hom, by induction on |y|."""
    gens = minimal_generating_indices(A)
    if not gens:
        return [GroupHom(A, B, [0] * A.order, validate=False)]
    pools = []
    for g in gens:
        d = A.element_order(g)
        pools.append([h for h in B.elements() if d % B.element_order(h) == 0])
    out = []
    assignment = [0] * len(gens)

    def extend(images):
        mapping = [None] * A.order
        mapping[0] = 0
        queue = [0]
        for x in queue:
            for g, h in zip(gens, images):
                y = A.table[x][g]
                im = B.table[mapping[x]][h]
                if mapping[y] is None:
                    mapping[y] = im
                    queue.append(y)
                elif mapping[y] != im:
                    return None
        return mapping

    def rec(i):
        if i == len(gens):
            mapping = extend(assignment)
            if mapping is not None:
                out.append(GroupHom(A, B, mapping, validate=False))
            return
        for h in pools[i]:
            assignment[i] = h
            rec(i + 1)

    rec(0)
    return out


def surjections(A, B):
    return [f for f in all_homs(A, B) if f.is_surjective()]


def surjections_up_to_precomposition(A, B):
    """Surjections A -> B, one per inner-precomposition class."""
    seen = set()
    out = []
    for f in surjections(A, B):
        key = min(tuple(f.mapping[A.conjugate(x, g)]
                        for x in A.elements())
                  for g in A.elements())
        if key not in seen:
            seen.add(key)
            out.append(GroupHom(A, B, key, validate=False))
    return out
