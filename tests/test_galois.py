import tracemalloc

import pytest

from hopfgal.abelian import FgAbelianGroup
from hopfgal.checks import check_centrality
from hopfgal.corpus import cyclic, dihedral, klein4, quaternion8, symmetric
from hopfgal.errors import ValidationError
from hopfgal.galois import (GaloisContext, centralize, characterisation_normal,
                            galois_group, induced_gal_map, is_normal_ext,
                            is_trivial_ext)
from hopfgal.groups import (GroupHom, all_homs, identity_hom,
                            inner_automorphism, pullback, surjections)

BASE = GaloisContext()
AT2 = GaloisContext([2])
AT3 = GaloisContext([3])


def q8_over_v4():
    Q8 = quaternion8()
    V4, proj = Q8.quotient(Q8.center())
    return Q8, V4, proj


def s3_over_c2():
    S3 = symmetric(3)
    C2, proj = S3.quotient(S3.derived_subgroup())
    return S3, C2, proj


class TestContext:
    def test_radical_is_derived_in_plain_context(self):
        Q8 = quaternion8()
        assert BASE.radical(Q8).members == Q8.derived_subgroup().members

    def test_local_radical_collects_prime_torsion(self):
        Z6 = cyclic(6)
        # derived part is trivial, so only the 2-power-order elements remain
        assert AT2.radical(Z6).members == (0, 3)
        assert AT3.radical(Z6).members == (0, 2, 4)

    def test_reflection_is_cached_per_group_instance(self):
        G = dihedral(4)
        IG1, eta1 = BASE.reflect(G)
        IG2, eta2 = BASE.reflect(G)
        assert IG1 is IG2 and eta1 is eta2

    def test_induced_is_functorial(self):
        S3, C2, proj = s3_over_c2()
        down = GroupHom(C2, cyclic(1), [0, 0])
        lhs = BASE.induced(proj.then(down))
        rhs = BASE.induced(proj).then(BASE.induced(down))
        assert lhs.mapping == rhs.mapping

    def test_empty_prime_set_is_the_plain_context(self):
        assert GaloisContext([]).primes is None


class TestTrivialAndNormal:
    def test_abelian_split_cover_is_trivial(self):
        Z6 = cyclic(6)
        p = next(iter(surjections(Z6, cyclic(2))))
        assert is_trivial_ext(BASE, p)
        assert is_normal_ext(BASE, p)

    def test_quaternion_cover_is_normal_but_not_trivial(self):
        _, _, proj = q8_over_v4()
        assert not is_trivial_ext(BASE, proj)
        assert is_normal_ext(BASE, proj)
        assert galois_group(BASE, proj).factors == (2,)

    def test_symmetric_cover_is_not_normal(self):
        _, _, proj = s3_over_c2()
        assert not is_normal_ext(BASE, proj)
        assert not characterisation_normal(BASE, proj)

    def test_local_normality_depends_on_kernel_torsion(self):
        p4 = next(iter(surjections(cyclic(4), cyclic(2))))
        p6 = next(iter(surjections(cyclic(6), cyclic(2))))
        assert not is_normal_ext(AT2, p4)   # kernel Z/2 has 2-torsion
        assert is_normal_ext(AT2, p6)       # kernel Z/3 does not
        assert is_normal_ext(AT3, p4)

    def test_non_surjective_input_is_rejected(self):
        Z2, Z4 = cyclic(2), cyclic(4)
        incl = GroupHom(Z2, Z4, [0, 2])
        with pytest.raises(ValidationError):
            is_trivial_ext(BASE, incl)
        with pytest.raises(ValidationError):
            is_normal_ext(BASE, incl)

    def test_trivial_implies_normal_across_small_extensions(self):
        pool = [cyclic(4), cyclic(6), klein4(), symmetric(3), dihedral(4),
                quaternion8()]
        quots = [cyclic(1), cyclic(2), cyclic(3), klein4()]
        seen = 0
        for G in pool:
            for B in quots:
                for p in surjections(G, B):
                    seen += 1
                    for ctx in (BASE, AT2, AT3):
                        if is_trivial_ext(ctx, p):
                            assert is_normal_ext(ctx, p)
        assert seen > 20


class TestCentralize:
    def test_already_central_kernel_is_fixed(self):
        Q8, V4, proj = q8_over_v4()
        f1, unit = centralize(BASE, proj)
        assert f1.domain.order == 8
        assert len(unit.kernel()) == 1
        assert unit.then(f1).mapping == proj.mapping

    def test_symmetric_cover_centralizes_to_the_base(self):
        S3, C2, proj = s3_over_c2()
        f1, unit = centralize(BASE, proj)
        assert f1.domain.order == 2
        assert f1.kernel().is_central()

    def test_centralization_is_idempotent(self):
        for G, B in [(symmetric(3), cyclic(2)), (dihedral(4), klein4())]:
            for p in surjections(G, B):
                f1, _ = centralize(BASE, p)
                f2, unit2 = centralize(BASE, f1)
                assert len(unit2.kernel()) == 1
                assert f2.domain.order == f1.domain.order

    def test_universal_property_by_exhaustive_search(self):
        # every morphism over the base into a central extension factors
        # uniquely through the centralization unit
        S3, C2, proj = s3_over_c2()
        f1, unit = centralize(BASE, proj)
        for C in [cyclic(2), cyclic(4), klein4()]:
            for g in surjections(C, C2):
                if not g.kernel().is_central():
                    continue
                for h in all_homs(S3, C):
                    if h.then(g).mapping != proj.mapping:
                        continue
                    lifts = [hb for hb in all_homs(f1.domain, C)
                             if unit.then(hb).mapping == h.mapping]
                    assert len(lifts) == 1

    def test_local_context_is_rejected(self):
        _, _, proj = q8_over_v4()
        with pytest.raises(ValidationError):
            centralize(AT2, proj)


def reflection_pullback(ctx, f):
    """(t, c): the pullback t: B x_{I(B)} I(A) -> B of the reflection
    square of f: A -> B, and the comparison c = <f, unit> into it."""
    A = f.domain
    _, eta_a = ctx.reflect(A)
    _, eta_b = ctx.reflect(f.codomain)
    P, t, to_ia = pullback(eta_b, ctx.induced(f))
    index = {(t(x), to_ia(x)): x for x in P.elements()}
    c = GroupHom(A, P, [index[(f(a), eta_a(a))] for a in A.elements()])
    return t, c


def has_section(f):
    ident = tuple(range(f.codomain.order))
    return any(s.then(f).mapping == ident
               for s in all_homs(f.codomain, f.domain))


def radical_part(ctx, f):
    """radical(A) /\\ Ker f, the subgroup behind the Galois group."""
    return ctx.radical(f.domain).intersection(f.kernel())


class TestSplittingConstructions:
    def test_quaternion_point_cover_trivializes_to_klein(self):
        Q8 = quaternion8()
        one = cyclic(1)
        to_one = GroupHom(Q8, one, [0] * 8)
        t, c = reflection_pullback(BASE, to_one)
        assert t.domain.order == 4
        assert all(t.domain.power(g, 2) == 0 for g in t.domain.elements())
        assert c.then(t).mapping == to_one.mapping
        assert is_trivial_ext(BASE, t)
        assert not is_trivial_ext(BASE, to_one)

    def test_trivialization_covers_the_original(self):
        _, _, proj = q8_over_v4()
        t, c = reflection_pullback(BASE, proj)
        assert c.then(t).mapping == proj.mapping
        assert is_trivial_ext(BASE, t)

    def test_radical_split_on_a_split_cover(self):
        S3, C2, proj = s3_over_c2()
        assert has_section(proj)
        part = radical_part(BASE, proj)
        assert part.members == S3.derived_subgroup().members

    def test_local_radical_split(self):
        Z6 = cyclic(6)
        p = next(iter(surjections(Z6, cyclic(2))))
        assert has_section(p)
        assert radical_part(AT3, p).members == (0, 2, 4)
        assert radical_part(AT2, p).members == (0,)


class TestGaloisGroup:
    def test_quaternion_galois_group_is_z2(self):
        _, _, proj = q8_over_v4()
        assert galois_group(BASE, proj).factors == (2,)

    def test_dihedral_galois_group_is_z2(self):
        D4 = dihedral(4)
        V4, proj = D4.quotient(D4.derived_subgroup())
        assert is_normal_ext(BASE, proj)
        assert galois_group(BASE, proj).factors == (2,)

    def test_trivial_extension_has_trivial_galois_group(self):
        Z6 = cyclic(6)
        p = next(iter(surjections(Z6, cyclic(3))))
        assert galois_group(BASE, p) == FgAbelianGroup.trivial()

    def test_local_galois_group_on_a_normal_cover(self):
        # at an odd prime the quaternion cover stays normal and keeps
        # its plain galois group
        _, _, proj = q8_over_v4()
        assert galois_group(AT3, proj).factors == (2,)

    def test_galois_group_requires_normality(self):
        p = next(iter(surjections(cyclic(12), cyclic(2))))
        with pytest.raises(ValidationError):
            galois_group(AT3, p)   # kernel Z/6 has 3-torsion
        _, _, s3p = s3_over_c2()
        with pytest.raises(ValidationError):
            galois_group(BASE, s3p)   # kernel not central


class TestInducedMaps:
    def test_induced_map_restricts_the_top_morphism(self):
        Q8, V4, proj = q8_over_v4()
        one = cyclic(1)
        q = GroupHom(V4, one, [0] * 4)
        top = proj
        bottom = GroupHom(V4, one, [0] * 4)
        m = induced_gal_map(BASE, proj, q, top, bottom)
        assert m.domain.order == 2
        assert set(m.mapping) == {0}

    def test_equal_base_components_give_equal_induced_maps(self):
        # conjugation lifts of the identity all induce the same map
        Q8, V4, proj = q8_over_v4()
        ident = identity_hom(Q8)
        m0 = induced_gal_map(BASE, proj, proj, ident, identity_hom(V4))
        for g in Q8.elements():
            top = inner_automorphism(Q8, g)
            if top.then(proj).mapping != proj.mapping:
                continue
            m = induced_gal_map(BASE, proj, proj, top, identity_hom(V4))
            assert m.mapping == m0.mapping

    def test_non_commuting_square_is_rejected(self):
        Q8, V4, proj = q8_over_v4()
        swap = next(h for h in all_homs(V4, V4)
                    if len(h.kernel()) == 1 and h.mapping != tuple(range(4)))
        with pytest.raises(ValidationError):
            induced_gal_map(BASE, proj, proj, identity_hom(Q8), swap)


def test_centrality_memory_follows_fibre_pairs():
    # pullbacks are built on their fibre pairs: the full A x B table of two
    # order-12 groups would hold 20736 entries per kernel pair
    tracemalloc.start()
    try:
        report = check_centrality(12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 8 * 2 ** 20, peak
