import math
import random
from itertools import combinations_with_replacement

import pytest

from hopfgal.abelian import FgAbelianGroup, PrimeSet
from hopfgal.checks import enumerate_extensions
from hopfgal.corpus import (
    abelian, cyclic, dihedral, full_corpus, group_from_json, klein4,
    named_group, nilpotent_corpus, quaternion8, symmetric,
)
from hopfgal.errors import (
    NotAbelianError, NotNormalError, NotSubsetError, SizeLimitError,
    ValidationError,
)
from hopfgal.galois import (GaloisContext, centralize, galois_group,
                            is_normal_ext)
from hopfgal.groups import (
    DirectProduct, FiniteGroup, GroupHom, Subgroup, all_homs, closure_P,
    commutator_subgroup, from_permutations, identity_hom,
    inner_automorphism, local_torsion_is_trivial, minimal_generating_indices,
    pullback, surjections, surjections_up_to_precomposition,
)


def normal_closure(G, gens, by=None):
    """The normal closure of `gens` in G, or in the subgroup `by`: all
    their conjugates, closed."""
    conjugators = G.elements() if by is None else by.members
    return G.generated_subgroup(sorted({G.conjugate(x, g) for x in gens
                                        for g in conjugators}))


def two_generated_subgroups(G):
    """Every subgroup <a, b> of G, once each, in order of members."""
    return sorted({G.generated_subgroup([a, b])
                   for a in G.elements() for b in G.elements()},
                  key=lambda H: H.members)


def test_table_validation():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(ValidationError):
        FiniteGroup([[1, 0], [0, 1]])  # identity not at index 0
    # associativity failure that is still a Latin square with identity 0:
    # the five-element loop below is a quasigroup, not a group
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError):
        FiniteGroup(loop)


def test_from_permutations_examples():
    S3 = from_permutations(3, [(1, 0, 2), (1, 2, 0)])
    assert S3.order == 6
    assert from_permutations(5, []).order == 1
    Z4 = from_permutations(4, [(1, 2, 3, 0)])
    assert Z4.order == 4
    assert Z4.is_abelian()
    with pytest.raises(ValidationError):
        from_permutations(3, [(0, 0, 1)])
    with pytest.raises(SizeLimitError):
        from_permutations(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)],
                          max_order=100)


def test_element_order():
    Z6 = cyclic(6)
    assert [Z6.element_order(g) for g in Z6.elements()] == [1, 6, 3, 2, 3, 6]
    assert cyclic(1).element_order(0) == 1


def test_center_examples():
    assert quaternion8().center().members == (0, 1)
    Z5 = cyclic(5)
    assert Z5.center().members == tuple(range(5))
    assert symmetric(3).center().members == (0,)


def test_commutator_subgroup_examples():
    S3 = symmetric(3)
    A3 = commutator_subgroup(S3.full_subgroup(), S3.full_subgroup())
    assert len(A3) == 3
    assert A3.is_normal()
    G = dihedral(5)
    assert len(commutator_subgroup(G.full_subgroup(),
                                   G.trivial_subgroup())) == 1
    Q8 = quaternion8()
    assert commutator_subgroup(Q8.full_subgroup(),
                               Q8.full_subgroup()).members == (0, 1)


def test_commutator_subgroup_is_normalised_by_its_factors():
    # reference: the commutators closed under conjugation by <H, K>,
    # for factors that are not normal in the whole group
    pairs = 0
    for G in (symmetric(3), dihedral(4), symmetric(4)):
        factors = [H for H in two_generated_subgroups(G)
                   if not H.is_normal()]
        for H in factors:
            for K in factors:
                gens = [G.commutator(h, k)
                        for h in H.members for k in K.members]
                span = G.generated_subgroup(H.members + K.members)
                assert commutator_subgroup(H, K) == \
                    normal_closure(G, gens, by=span)
                pairs += 1
    assert pairs == 9 + 16 + 676


def test_derived_equals_abelianization_kernel():
    for _, G in nilpotent_corpus() + [("S3", symmetric(3)),
                                      ("S4", symmetric(4))]:
        _, proj = G.abelianization()
        assert proj.kernel() == G.derived_subgroup()


def test_quotient_examples():
    S3 = symmetric(3)
    A3 = S3.derived_subgroup()
    Q, proj = S3.quotient(A3)
    assert Q.order == 2
    assert proj.kernel() == A3
    G = dihedral(3)
    Q, proj = G.quotient(G.trivial_subgroup())
    assert Q.order == G.order
    assert proj.mapping == tuple(G.elements())
    Z4 = cyclic(4)
    Q, _ = Z4.quotient(Z4.generated_subgroup([2]))
    assert Q.order == 2
    with pytest.raises(NotNormalError):
        S3.quotient(S3.generated_subgroup([next(
            g for g in S3.elements() if S3.element_order(g) == 2)]))


def test_quotient_rejects_exactly_the_non_normal_subgroups():
    for G in (symmetric(3), dihedral(4), quaternion8(), symmetric(4)):
        subgroups = two_generated_subgroups(G)
        for N in subgroups:
            if N.is_normal():
                _, proj = G.quotient(N)
                assert proj.kernel() == N
            else:
                with pytest.raises(NotNormalError):
                    G.quotient(N)
        normals = [N for N in subgroups if N.is_normal()]
        for H in normals:
            for K in normals:
                assert set(H.product_with(K).members) == \
                    {G.table[h][k] for h in H.members for k in K.members}


def test_quotient_kernel_round_trip():
    rng = random.Random(31)
    for _, G in [("D4", dihedral(4)), ("S4", symmetric(4)),
                 ("Z12", cyclic(12))]:
        for _ in range(10):
            gens = [rng.randrange(G.order) for _ in range(2)]
            N = normal_closure(G, gens)
            _, proj = G.quotient(N)
            assert proj.kernel() == N


def test_pullback_examples():
    Z4, Z2 = cyclic(4), cyclic(2)
    f = GroupHom(Z4, Z2, [0, 1, 0, 1])
    P, p1, p2 = pullback(f, f)
    assert P.order == 8
    for x in P.elements():
        assert f(p1(x)) == f(p2(x))
    # pulling back along the identity recovers the domain
    P2, q1, q2 = pullback(f, identity_hom(Z2))
    assert P2.order == 4
    assert q1.is_surjective() and len(q1.kernel()) == 1
    # fiber product of projections counts fibers
    Z2b = cyclic(2)
    prod = DirectProduct(cyclic(3), Z2b)
    P3, _, _ = pullback(prod.proj1, identity_hom(Z2b))
    assert P3.order == 6
    with pytest.raises(ValidationError):
        pullback(f, identity_hom(Z4))


def test_pullback_matches_fibres_of_direct_product():
    # reference: the fibre pairs taken as a subgroup of A x B
    by_base = {}
    for _, _, f in enumerate_extensions(8):
        by_base.setdefault(id(f.codomain), []).append(f)
    pairs = 0
    for homs in by_base.values():
        for f in homs:
            for g in homs:
                prod = DirectProduct(f.domain, g.domain)
                nb = g.domain.order  # (a, b) is a * |B| + b in A x B
                sub = Subgroup(prod.group,
                               [a * nb + b for a in f.domain.elements()
                                for b in g.domain.elements() if f(a) == g(b)])
                want, incl = sub.as_group()
                P, p1, p2 = pullback(f, g)
                assert P.table == want.table
                assert p1.mapping == incl.then(prod.proj0).mapping
                assert p2.mapping == incl.then(prod.proj1).mapping
                pairs += 1
    assert pairs == 1122


def naive_quotient_table(G, N):
    """G/N's table and projection, with the cosets as sets numbered in
    the order of their least elements."""
    cosets = sorted({frozenset(G.table[g][n] for n in N.members)
                     for g in G.elements()}, key=min)
    number = {c: i for i, c in enumerate(cosets)}
    of = {g: number[c] for c in cosets for g in c}
    table = tuple(tuple(of[G.table[min(a)][min(b)]] for b in cosets)
                  for a in cosets)
    return table, tuple(of[g] for g in G.elements())


def naive_pullback_table(f, g):
    """The fibre product's table, looking each product pair up by value."""
    A, B = f.domain, g.domain
    pairs = [(a, b) for a in A.elements() for b in B.elements()
             if f(a) == g(b)]
    index = {p: i for i, p in enumerate(pairs)}
    table = tuple(tuple(index[A.table[a1][a2], B.table[b1][b2]]
                        for a2, b2 in pairs) for a1, b1 in pairs)
    return table, [a for a, _ in pairs], [b for _, b in pairs]


def test_quotient_and_pullback_match_naive_tables():
    extensions = enumerate_extensions(12)
    for _, _, f in extensions:
        A = f.domain
        Q, proj = A.quotient(f.kernel())
        table, mapping = naive_quotient_table(A, f.kernel())
        assert Q.table == table and proj.mapping == mapping
        P, p1, p2 = pullback(f, f)
        table, m1, m2 = naive_pullback_table(f, f)
        assert P.table == table
        assert list(p1.mapping) == m1 and list(p2.mapping) == m2
    assert len(extensions) == 180


def test_pullback_bound_is_on_the_product_order():
    Z4, Z2 = cyclic(4), cyclic(2)
    f = GroupHom(Z4, Z2, [0, 1, 0, 1])
    # the pullback has order 8, but |Z4| * |Z4| = 16 is what is bounded
    with pytest.raises(SizeLimitError, match="product order 16 exceeds "
                                             "bound 15"):
        pullback(f, f, max_order=15)
    assert pullback(f, f, max_order=16)[0].order == 8


def test_one_sided_inverse_is_rejected_without_validation():
    # 2 * 3 = 0 but 3 * 2 = 1: a loop, so element 2 has no two-sided inverse
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValidationError, match="element 2 has no inverse"):
        FiniteGroup(loop, validate=False)


def test_closure_P_examples():
    Z12 = cyclic(12)
    K = Z12.generated_subgroup([6])
    assert closure_P(Z12, K, PrimeSet([2])).members == (0, 3, 6, 9)
    assert closure_P(Z12, K, PrimeSet([])) == K
    S3 = symmetric(3)
    A3 = S3.derived_subgroup()
    assert len(closure_P(S3, A3, PrimeSet([2]))) == 6
    with pytest.raises(NotSubsetError):
        closure_P(S3, S3.trivial_subgroup(), PrimeSet([2]))


def test_closure_P_dual_route():
    rng = random.Random(32)
    for _, G in [("Z12", cyclic(12)), ("D4", dihedral(4)),
                 ("S3", symmetric(3)), ("Z2xZ4", abelian([2, 4]))]:
        D = G.derived_subgroup()
        for _ in range(20):
            K = D.product_with(
                normal_closure(G, [rng.randrange(G.order)]))
            P = PrimeSet(rng.sample([2, 3, 5], rng.randrange(0, 3)))
            cl = closure_P(G, K, P)
            # independent route: exists a P-number m <= |G| with a^m in K
            for a in G.elements():
                hit = any(G.power(a, m) in K
                          for m in range(1, G.order + 1) if P.is_number(m))
                assert hit == (a in cl)


def test_subgroup_plumbing():
    D4 = dihedral(4)
    r = D4.generated_subgroup([1])       # rotations
    s = D4.generated_subgroup([4])       # a reflection
    assert len(r) == 4 and len(s) == 2
    assert r.intersection(s).members == (0,)
    assert len(r.product_with(s)) == 8
    assert r.is_normal() and not s.is_normal()
    assert len(normal_closure(D4, [4])) == 4
    H, incl = r.as_group()
    assert H.order == 4 and H.is_abelian()
    assert [incl(x) for x in H.elements()] == sorted(r.members)
    t = D4.trivial_subgroup()
    assert t.intersection(r) == t
    assert t.product_with(r) == r
    assert normal_closure(D4, []) == t
    with pytest.raises(ValidationError):
        Subgroup(D4, [0, 1])  # not closed


def test_hom_plumbing():
    Z6 = cyclic(6)
    Z3 = cyclic(3)
    f = GroupHom(Z6, Z3, [0, 1, 2, 0, 1, 2])
    assert f.kernel().members == (0, 3)
    assert f.is_surjective() and len(f.kernel()) == 2
    assert identity_hom(Z6).is_surjective() and \
        len(identity_hom(Z6).kernel()) == 1
    g = GroupHom(Z3, Z3, [0, 2, 1])
    assert f.then(g).mapping == (0, 2, 1, 0, 2, 1)
    with pytest.raises(ValidationError):
        GroupHom(Z6, Z3, [0, 1, 2, 0, 1, 1])
    _, incl = Z6.generated_subgroup([2]).as_group()
    assert incl.then(f).is_surjective()


def test_abelian_invariants():
    assert cyclic(12).abelian_invariants() == FgAbelianGroup(0, [12])
    assert klein4().abelian_invariants() == FgAbelianGroup(0, [2, 2])
    assert abelian([2, 4]).abelian_invariants() == FgAbelianGroup(0, [2, 4])
    assert abelian([6, 4]).abelian_invariants() == FgAbelianGroup(0, [2, 12])
    assert abelian([2, 2, 2]).abelian_invariants() == \
        FgAbelianGroup(0, [2, 2, 2])
    assert cyclic(1).abelian_invariants() == FgAbelianGroup.trivial()
    with pytest.raises(NotAbelianError):
        symmetric(3).abelian_invariants()


def test_abelian_invariants_random_products():
    rng = random.Random(33)
    for _ in range(25):
        orders = [rng.choice([2, 3, 4, 5, 6]) for _ in
                  range(rng.randrange(1, 4))]
        G = abelian(orders)
        if G.order > 60:
            continue
        assert G.abelian_invariants() == FgAbelianGroup.from_orders(orders)


def reference_abelian_invariants(G):
    """Invariant factors of an abelian G by order statistics, the route
    FiniteGroup.abelian_invariants took before it read them off the
    cokernel of the Cayley relations.

    For each prime p, counting solutions of x^(p^i) = e recovers the
    conjugate partition of the cyclic p-power exponents.
    """
    assert G.is_abelian()
    n = G.order
    orders = []
    m = n
    p = 2
    primes = []
    while m > 1:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    for p in primes:
        counts = [1]
        q = p
        while True:
            c = sum(1 for g in range(n) if G.power(g, q) == 0)
            counts.append(c)
            if c == counts[-2]:
                counts.pop()
                break
            q *= p
        # k_i = number of cyclic factors with exponent >= i
        ks = []
        for i in range(1, len(counts)):
            ratio = counts[i] // counts[i - 1]
            k = 0
            while ratio > 1:
                ratio //= p
                k += 1
            ks.append(k)
        for j in range(ks[0] if ks else 0):
            lam = sum(1 for k in ks if k > j)
            orders.append(p ** lam)
    return FgAbelianGroup.from_orders(orders)


def test_abelian_invariants_match_the_reference_on_products():
    products = [orders for size in (1, 2, 3)
                for orders in combinations_with_replacement(range(2, 9), size)
                if math.prod(orders) <= 256]
    for orders in products + [(1024,), (2,) * 8]:
        G = abelian(orders)
        assert G.abelian_invariants() == reference_abelian_invariants(G) \
            == FgAbelianGroup.from_orders(orders), orders


def test_abelian_invariants_match_the_reference_on_abelianizations():
    for name, G in full_corpus():
        A, _ = G.abelianization()
        assert A.abelian_invariants() == reference_abelian_invariants(A), \
            name


def test_abelian_invariants_match_the_reference_on_galois_groups():
    """Both Galois values of every normal extension of order <= 8: the
    group of radical-kernel elements, plain and at the prime 2, and the
    kernel of the centralization, which is defined in the plain context
    alone."""
    extensions = enumerate_extensions(8)
    for ctx in (GaloisContext(), GaloisContext(PrimeSet([2]))):
        for name_a, name_b, f in extensions:
            if not is_normal_ext(ctx, f):
                continue
            S = ctx.radical(f.domain).intersection(f.kernel())
            assert galois_group(ctx, f) == \
                reference_abelian_invariants(S.as_group()[0]), \
                (name_a, name_b, f.mapping)
            if ctx.primes is None:
                K = centralize(ctx, f)[0].kernel().as_group()[0]
                assert K.abelian_invariants() == \
                    reference_abelian_invariants(K)


def lower_central_series(G):
    """[G, [G,G], [G,[G,G]], ...] down to the stable term."""
    series = [G.full_subgroup()]
    while True:
        nxt = commutator_subgroup(series[-1], G.full_subgroup())
        if nxt == series[-1]:
            return series
        series.append(nxt)


def test_corpus_groups():
    assert [G.order for _, G in nilpotent_corpus()] == \
        list(range(2, 17)) + [4, 8, 9, 8, 8]
    for name, G in nilpotent_corpus():
        assert len(lower_central_series(G)[-1]) == 1, name
    assert len(lower_central_series(symmetric(3))[-1]) == 3
    assert len(lower_central_series(dihedral(4))) == 3
    assert len(lower_central_series(quaternion8())) == 3
    assert len(lower_central_series(cyclic(16))) == 2
    assert named_group("q8").order == 8
    assert named_group("Z2xZ6").abelian_invariants() == \
        FgAbelianGroup(0, [2, 6])
    with pytest.raises(ValidationError):
        named_group("E8")


def test_lower_central_series_of_d4():
    D4 = dihedral(4)
    series = lower_central_series(D4)
    assert [len(s) for s in series] == [8, 2, 1]


def test_group_json():
    G = dihedral(3)
    blob = {"order": G.order, "table": [list(row) for row in G.table]}
    assert group_from_json(blob).table == G.table
    assert group_from_json({"name": "V4"}).order == 4
    assert group_from_json({"degree": 3,
                            "generators": [[1, 2, 0]]}).order == 3
    assert group_from_json(blob).order == 6
    with pytest.raises(ValidationError):
        group_from_json({})
    with pytest.raises(ValidationError):
        group_from_json({"order": 99, "table": [[0, 1], [1, 0]]})


def test_hom_enumeration():
    Z4, Z2 = cyclic(4), cyclic(2)
    assert len(all_homs(Z4, Z2)) == 2
    assert len(surjections(Z4, Z2)) == 1
    assert len(all_homs(Z2, Z4)) == 2
    assert len(surjections(Z2, Z4)) == 0
    # S3 -> Z2: trivial map and sign map
    assert len(all_homs(symmetric(3), cyclic(2))) == 2
    # every enumerated map really is a hom and distinct
    hs = all_homs(dihedral(4), klein4())
    assert len(set(h.mapping for h in hs)) == len(hs)
    for h in hs:
        GroupHom(h.domain, h.codomain, h.mapping)  # re-validate


def brute_force_homs(A, B):
    """Every map A -> B that is a hom, by a search over the images of
    0, 1, 2, ... that drops a partial map once a product it fixes fails."""
    t, u = A.table, B.table
    out = []
    images = [0]

    def consistent(i):
        return all(u[images[a]][images[b]] == images[t[a][b]]
                   for a in range(i + 1) for b in range(i + 1)
                   if t[a][b] <= i and i in (a, b, t[a][b]))

    def rec():
        i = len(images)
        if i == A.order:
            out.append(tuple(images))
            return
        for h in B.elements():
            images.append(h)
            if consistent(i):
                rec()
            images.pop()

    if consistent(0):
        rec()
    return out


def test_all_homs_match_a_search_over_all_maps():
    corpus = [G for _, G in full_corpus()]
    pairs = 0
    for A in corpus:
        if A.order > 6:
            continue
        for B in corpus:
            got = [f.mapping for f in all_homs(A, B)]
            assert len(set(got)) == len(got)
            assert sorted(got) == brute_force_homs(A, B)
            pairs += 1
    assert pairs == 7 * 22


def test_surjections_up_to_precomposition():
    Q8, V4 = quaternion8(), klein4()
    reps = surjections_up_to_precomposition(Q8, V4)
    assert len(reps) >= 1
    for f in reps:
        assert f.is_surjective()
    # Q8 is generated by i and j; all surjections to V4 share the kernel
    for f in surjections(Q8, V4):
        assert f.kernel().members == (0, 1)
    # inner precomposition never changes the kernel of a surjection
    S3 = symmetric(3)
    for f in surjections(S3, cyclic(2)):
        for g in S3.elements():
            assert inner_automorphism(S3, g).then(f).kernel() == f.kernel()


def test_pairing_and_inner():
    Z6 = cyclic(6)
    f = GroupHom(Z6, cyclic(2), [0, 1, 0, 1, 0, 1])
    g = GroupHom(Z6, cyclic(3), [0, 1, 2, 0, 1, 2])
    # the kernel of <f, g>: Z6 embeds in Z2 x Z3
    assert f.kernel().intersection(g.kernel()) == Z6.trivial_subgroup()
    D4 = dihedral(4)
    for a in D4.elements():
        inner_automorphism(D4, a)  # validates as a hom on construction


def test_local_torsion_predicate():
    assert local_torsion_is_trivial(cyclic(9), PrimeSet([2]))
    assert not local_torsion_is_trivial(cyclic(9), PrimeSet([3]))
    assert local_torsion_is_trivial(cyclic(1), PrimeSet([2, 3]))


def test_minimal_generating_indices():
    for G, k in [(cyclic(12), 1), (klein4(), 2), (quaternion8(), 2),
                 (symmetric(4), 2), (abelian([2, 2, 2]), 3)]:
        gens = minimal_generating_indices(G)
        assert len(gens) == k
        assert len(G.generated_subgroup(gens)) == G.order
