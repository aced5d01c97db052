"""Central extensions and their Galois-theoretic structure, machine checked.

Two reflective contexts on finite groups are supported: the plain one
reflects onto abelian groups (radical = commutator subgroup), and the
prime-local one further kills torsion at a set of primes (radical = the
closure of the commutator subgroup under those prime powers).

A `GaloisContext` builds each Galois object once: it keeps a record of
each group's radical, I(G) and unit, and of each extension's Galois part
radical(dom p) ∩ ker p.  The records live and die with the context.

Every predicate with two known computations runs both and raises
InternalCheckError on disagreement; that error always means an engine
bug, never bad user input.
"""

from __future__ import annotations

from contextlib import contextmanager

from .abelian import _prime_set_or_none
from .errors import InternalCheckError, ValidationError
from .groups import (GroupHom, closure_P, commutator_subgroup,
                     local_torsion_is_trivial, pullback)


class GaloisContext:
    """A reflection of finite groups determining trivial/normal coverings.

    With no primes the reflection is plain abelianization; with a prime
    set it is the largest abelian quotient without torsion at those
    primes.

    It keeps one record per group G (G, its radical, I(G), the unit)
    and one per extension p (p, its Galois part as a group, the part's
    inclusion, an index of its elements).  Each is keyed by id and holds
    its key, checked by identity; all live and die with the context.
    """

    def __init__(self, primes=None):
        self.primes = _prime_set_or_none(primes)
        self._groups = {}
        self._parts = {}

    def _group(self, G):
        """(G, radical, I(G), unit G -> I(G)), built on the first call."""
        entry = self._groups.get(id(G))
        if entry is None or entry[0] is not G:
            R = G.derived_subgroup()
            if self.primes is not None:
                R = closure_P(G, R, self.primes)
            entry = self._groups[id(G)] = (G, R) + G.quotient(R)
        return entry

    def _part(self, p):
        """(p, S, inclusion S -> dom p, {image: element of S}) for the
        Galois part S = radical(dom p) ∩ ker p, built on the first call."""
        entry = self._parts.get(id(p))
        if entry is None or entry[0] is not p:
            S = self.radical(p.domain).intersection(p.kernel())
            index = {m: k for k, m in enumerate(S.members)}
            entry = self._parts[id(p)] = (p,) + S.as_group() + (index,)
        return entry

    def radical(self, G):
        """The normal subgroup killed by the reflection unit."""
        return self._group(G)[1]

    def reflect(self, G):
        """(I(G), unit G -> I(G)) for the context's reflection I."""
        return self._group(G)[2:]

    def induced(self, f):
        """I(f): the reflection of a homomorphism."""
        IA, eta_a = self.reflect(f.domain)
        IB, eta_b = self.reflect(f.codomain)
        mapping = [0] * IA.order
        for g in f.domain.elements():
            mapping[eta_a(g)] = eta_b(f(g))
        return GroupHom(IA, IB, mapping, validate=False)  # ints

    def __repr__(self):
        if self.primes is None:
            return "GaloisContext(abelian)"
        return "GaloisContext(abelian, torsion-free at %s)" % (
            list(self.primes.primes),)


def _require_extension(f):
    if not f.is_surjective():
        raise ValidationError("extensions are surjective homomorphisms")


def is_trivial_ext(ctx, f):
    """Whether f is split by its own reflection square.

    True iff <f, unit> identifies the domain with the pullback
    B x_{I(B)} I(A) of the codomain against the reflected domain.  Its
    order is the sum over c in I(B) of the products of the fibre sizes.
    """
    _require_extension(f)
    A = f.domain
    _, eta_a = ctx.reflect(A)
    IB, eta_b = ctx.reflect(f.codomain)
    over_b, over_ia = [0] * IB.order, [0] * IB.order
    for c in eta_b.mapping:
        over_b[c] += 1
    for c in ctx.induced(f).mapping:
        over_ia[c] += 1
    order = sum(m * n for m, n in zip(over_b, over_ia))
    image = {(f(a), eta_a(a)) for a in A.elements()}
    return len(image) == A.order == order


def characterisation_normal(ctx, f):
    """Closed-form normality test: central kernel, locally torsion free."""
    _require_extension(f)
    ker = f.kernel()
    if not ker.is_central():
        return False
    if ctx.primes is None:
        return True
    Kg, _ = ker.as_group()
    return local_torsion_is_trivial(Kg, ctx.primes)


@contextmanager
def _kernel_pair(ctx, f):
    """(whether f is normal, its kernel pair's projections); the pair's
    record goes when the block ends, so no kernel pair outlives it."""
    _require_extension(f)
    P, pi1, pi2 = pullback(f, f)
    try:
        by_definition = is_trivial_ext(ctx, pi1)
        if by_definition != characterisation_normal(ctx, f):
            raise InternalCheckError(
                "normality routes disagree on %r" % (f,))
        yield by_definition, pi1, pi2
    finally:
        ctx._groups.pop(id(P), None)


def is_normal_ext(ctx, f):
    """Whether pulling f back along itself yields a trivial extension.

    Computed from the definition and from the closed-form
    characterisation; the two must agree.
    """
    with _kernel_pair(ctx, f) as (normal, _, _):
        return normal


def centralize(ctx, f):
    """The universal central quotient of an extension (plain context).

    Returns (f1, unit) where unit: A -> A/[Ker f, A] and f1 completes
    the triangle over the codomain.
    """
    _require_extension(f)
    if ctx.primes is not None:
        raise ValidationError(
            "centralization is defined for the plain abelian context")
    A = f.domain
    D = commutator_subgroup(f.kernel(), A.full_subgroup())
    A1, unit = A.quotient(D)
    mapping = [0] * A1.order
    for a in A.elements():
        mapping[unit(a)] = f(a)
    return GroupHom(A1, f.codomain, mapping, validate=False), unit  # ints


def galois_group(ctx, p):
    """Invariants of the Galois group of a normal extension.

    Route one intersects the radical with the kernel; route two takes
    ker I(pi1) ∩ ker I(pi2) on the kernel pair, the kernel of the
    pairing <I(pi1), I(pi2)>.  Both are computed and must agree; they
    only do for normal extensions, so normality is a precondition.  The
    normality test and route two share one kernel pair.
    """
    with _kernel_pair(ctx, p) as (normal, pi1, pi2):
        if not normal:
            raise ValidationError("galois groups are defined for normal "
                                  "extensions")
        route1 = ctx._part(p)[1].abelian_invariants()
        K = ctx.induced(pi1).kernel().intersection(
            ctx.induced(pi2).kernel())
    Kg, _ = K.as_group()
    route2 = Kg.abelian_invariants()
    if route1 != route2:
        raise InternalCheckError("galois group routes disagree on %r" % (p,))
    return route1


def induced_gal_map(ctx, p, q, top, bottom):
    """The map on Galois radicals induced by a morphism of extensions.

    `top`: dom p -> dom q and `bottom`: cod p -> cod q must commute with
    p and q.  The result restricts `top` between radical-kernel
    intersections.
    """
    _require_extension(p)
    _require_extension(q)
    if top.then(q).mapping != p.then(bottom).mapping:
        raise ValidationError("the square of homomorphisms does not commute")
    _, Sg, incl_s, _ = ctx._part(p)
    _, Tg, _, t_index = ctx._part(q)
    mapping = []
    for k in range(Sg.order):
        img = top(incl_s(k))
        if img not in t_index:
            raise InternalCheckError("radical part not preserved")
        mapping.append(t_index[img])
    return GroupHom(Sg, Tg, mapping, validate=False)  # ints
