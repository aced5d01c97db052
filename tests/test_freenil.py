import random

import pytest

from hopfgal.checks import check_collection
from hopfgal.errors import (InternalCheckError, NotAbelianError,
                            NotNormalError, NotSubsetError, SizeLimitError,
                            ValidationError)
from hopfgal.freenil import (FreeNilGroup, NilHom, _alg_comm, _alg_mul,
                             _alg_power, free_nil_group, witt_number)
from hopfgal.groups import commutator_subgroup
from hopfgal.matrices import IntMatrix
from hopfgal import pcseq as pc


def nilpotency_class(G):
    """Steps down the lower central series of a finite group to 1."""
    whole, term, steps = G.full_subgroup(), G.full_subgroup(), 0
    while len(term) > 1:
        nxt = commutator_subgroup(term, whole)
        assert nxt != term, "not nilpotent"
        term, steps = nxt, steps + 1
    return steps


def whole_group(F):
    return pc.letter_span(F, range(len(F.letters)))


def random_word(F, rng, spread=3, density=0.5):
    return F.word([rng.randint(-spread, spread) if rng.random() < density
                   else 0 for _ in range(len(F.letters))])


class TestHallBasis:
    def test_known_sizes(self):
        assert len(FreeNilGroup(2, 2).letters) == 3
        assert len(FreeNilGroup(1, 5).letters) == 1
        assert len(FreeNilGroup(2, 3).letters) == 5

    def test_witt_numbers(self):
        for d in (1, 2, 3):
            for c in (1, 2, 3, 4, 5):
                F = FreeNilGroup(d, c)
                assert [F.weights.count(w) for w in range(1, c + 1)] == \
                    [witt_number(d, w) for w in range(1, c + 1)]

    def test_basis_prefix_under_truncation(self):
        F = FreeNilGroup(3, 4)
        low = F.truncated()
        for a, b in zip(low.letters, F.letters):
            assert (a.weight, a.left, a.right) == (b.weight, b.left, b.right)

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            FreeNilGroup(3, 3, max_basis=5)

    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            FreeNilGroup(0, 2)
        with pytest.raises(ValidationError):
            FreeNilGroup(2, 0)


class TestCollection:
    def test_generator_swap(self):
        F = FreeNilGroup(2, 2)
        x1, x2 = F.generator(0), F.generator(1)
        assert F.multiply(x2, x1).exps == (1, 1, 1)

    def test_square_of_product(self):
        F = FreeNilGroup(2, 2)
        xy = F.multiply(F.generator(0), F.generator(1))
        assert F.multiply(xy, xy).exps == (2, 2, 1)

    def test_associativity_and_inverses(self):
        rng = random.Random(401)
        for _ in range(200):
            F = FreeNilGroup(rng.randint(1, 3), rng.randint(1, 4))
            u, v, w = (random_word(F, rng) for _ in range(3))
            assert F.multiply(F.multiply(u, v), w) == \
                F.multiply(u, F.multiply(v, w))
            assert F.multiply(u, u.inverse()).is_identity()
            assert F.multiply(u.inverse(), u).is_identity()

    def test_collection_matches_algebra_model(self):
        rng = random.Random(402)
        for _ in range(150):
            F = FreeNilGroup(rng.randint(1, 3), rng.randint(1, 4))
            u, v = random_word(F, rng), random_word(F, rng)
            assert F.multiply(u, v) == F.multiply_via_model(u, v)

    def test_powers(self):
        rng = random.Random(403)
        F = FreeNilGroup(2, 4)
        for _ in range(20):
            u = random_word(F, rng)
            acc = F.identity()
            for n in range(7):
                assert u.pow(n) == acc
                assert u.pow(-n) == acc.inverse()
                acc = acc.mul(u)

    def test_truncation_is_a_homomorphism(self):
        rng = random.Random(404)
        for _ in range(60):
            F = FreeNilGroup(rng.randint(1, 3), rng.randint(2, 5))
            u, v = random_word(F, rng), random_word(F, rng)
            low = F.truncated()
            head = len(low.letters)
            assert low.multiply(low.word(u.exps[:head]),
                                low.word(v.exps[:head])) \
                == low.word(F.multiply(u, v).exps[:head])

    def test_cross_group_rejected(self):
        F, G = FreeNilGroup(2, 2), FreeNilGroup(2, 3)
        with pytest.raises(ValidationError):
            F.multiply(F.generator(0), G.generator(0))

    def test_collection_matches_algebra_model_on_pullback_cover_shape(self):
        # rank 5, class 4 is the pullback cover of the degree-3 V4 cube
        rng = random.Random(413)
        F = free_nil_group(5, 4)
        for _ in range(12):
            u = random_word(F, rng, spread=9, density=0.2)
            v = random_word(F, rng, spread=9, density=0.2)
            assert F.multiply(u, v) == F.multiply_via_model(u, v)

    @pytest.mark.parametrize("rank,nclass", [(2, 5), (3, 4), (5, 4)])
    def test_commuting_words_match_algebra_model(self, rank, nclass):
        # words leading at weights that add up past the class take the
        # coordinate-sum route in multiply and the negation in inverse;
        # weights that add up to the class exactly still collect
        rng = random.Random(417 + rank)
        F = free_nil_group(rank, nclass)
        w = F.weights

        def word_from(weight):
            return F.word([rng.randint(-9, 9) if w[i] >= weight and
                           rng.random() < 0.4 else 0
                           for i in range(len(F.letters))])

        for _ in range(10):
            a = rng.randint(1, nclass - 1)
            for b in (nclass - a, nclass + 1 - a):
                u, v = word_from(a), word_from(b)
                assert F.multiply(u, v) == F.multiply_via_model(u, v)
                assert F.multiply(v, u) == F.multiply_via_model(v, u)
            x = word_from(nclass // 2 + 1)
            assert x.inverse() == F.extract(
                _alg_power(F.magnus_image(x), -1, nclass))

    def test_syllables_are_an_immutable_cache(self):
        F = FreeNilGroup(2, 3)
        u = F.word((0, 3, 0, -1, 0))
        assert u.syllables() == ((1, 3), (3, -1))
        assert u.syllables() is u.syllables()
        assert u.leading() == (1, 3)
        assert F.identity().syllables() == ()
        assert F.identity().leading() is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_collection_suite_at_other_seeds(self, seed):
        report = check_collection(300, seed)
        assert report.ok, report.failures[:3]
        assert report.cases == 400


class TestHallPolynomials:
    @pytest.mark.parametrize("rank,nclass", [(3, 5), (2, 6), (5, 4)])
    def test_tail_matches_direct_magnus_tail_off_the_grid(self, rank, nclass):
        rng = random.Random(414 + rank)
        F = free_nil_group(rank, nclass)
        w = F.weights
        pairs = [(t, l) for t in range(len(F.letters)) for l in range(t)
                 if w[t] + w[l] <= nclass]
        exponents = (-50, -7, 13, 49)
        for t, l in [(1, 0)] + rng.sample(pairs, 5):
            for f in exponents:
                for e in exponents:
                    direct = F.extract(_alg_comm(
                        _alg_power(F._magnus_letter(t), f, nclass),
                        _alg_power(F._magnus_letter(l), e, nclass),
                        nclass))
                    assert F.tail(t, l, f, e) == direct.syllables()

    def test_tail_of_commuting_letters_is_empty(self):
        F = FreeNilGroup(2, 3)
        assert F.tail(3, 2, 5, 7) == ()   # weights 2 + 2 > 3
        assert F.tail(1, 1, 5, 7) == ()
        assert F.tail(1, 0, 0, 7) == ()

    def test_binomial_power_matches_repeated_products(self):
        rng = random.Random(415)
        F = FreeNilGroup(2, 4)
        a = F.magnus_image(random_word(F, rng))
        one = {(): 1}
        acc = one
        for n in range(7):
            assert _alg_power(a, n, 4) == acc
            assert _alg_mul(_alg_power(a, -n, 4), acc, 4) == one
            assert _alg_mul(acc, _alg_power(a, -n, 4), 4) == one
            acc = _alg_mul(acc, a, 4)

    def test_power_of_non_unit_rejected(self):
        with pytest.raises(InternalCheckError):
            _alg_power({(): 2, (0,): 1}, 3, 2)


class TestNilHom:
    def test_respects_products(self):
        rng = random.Random(405)
        F = FreeNilGroup(2, 3)
        G = FreeNilGroup(3, 3)
        images = [random_word(G, rng, spread=2), random_word(G, rng, spread=2)]
        phi = NilHom(F, G, images)
        for _ in range(40):
            u, v = random_word(F, rng), random_word(F, rng)
            assert phi.apply(u.mul(v)) == phi.apply(u).mul(phi.apply(v))

    def test_kills_generator(self):
        F = FreeNilGroup(2, 3)
        G = FreeNilGroup(1, 3)
        phi = NilHom(F, G, [G.generator(0), G.identity()])
        assert phi.apply(F.generator(1)).is_identity()
        assert phi.apply(F.generator(0).comm(F.generator(1))).is_identity()

    def test_image_count_checked(self):
        F = FreeNilGroup(2, 2)
        with pytest.raises(ValidationError):
            NilHom(F, F, [F.generator(0)])


class TestInducedSequences:
    def test_generators_give_whole_group(self):
        F = FreeNilGroup(2, 2)
        S = pc.induced_sequence(F, [F.generator(0), F.generator(1)])
        assert S == whole_group(F)

    def test_squares_example(self):
        F = FreeNilGroup(2, 2)
        x1, x2 = F.generator(0), F.generator(1)
        S = pc.induced_sequence(F, [x1.pow(2), x2.pow(2), F.word((0, 0, 1))])
        assert [m.leading() for m in S.seq] == [(0, 2), (1, 2), (2, 1)]

    def test_membership_soundness(self):
        rng = random.Random(406)
        for _ in range(40):
            F = FreeNilGroup(rng.randint(1, 3), rng.randint(1, 4))
            gens = [random_word(F, rng, spread=2)
                    for _ in range(rng.randint(1, 3))]
            S = pc.induced_sequence(F, gens)
            g = F.identity()
            for _ in range(rng.randint(1, 6)):
                pick = rng.choice(gens)
                if rng.random() < 0.5:
                    pick = pick.inverse()
                g = g.mul(pick)
            assert S.contains(g)

    def test_generation_invariance(self):
        rng = random.Random(407)
        for _ in range(25):
            F = FreeNilGroup(2, rng.randint(1, 4))
            gens = [random_word(F, rng, spread=2)
                    for _ in range(rng.randint(1, 3))]
            S = pc.induced_sequence(F, gens)
            scrambled = list(reversed([g.inverse() for g in gens]))
            if len(gens) >= 2:
                scrambled.append(gens[0].mul(gens[1]))
            T = pc.induced_sequence(F, scrambled)
            assert S == T

    def test_reduce_gives_canonical_coset_labels(self):
        rng = random.Random(408)
        F = FreeNilGroup(2, 3)
        gens = [random_word(F, rng, spread=2) for _ in range(2)]
        S = pc.induced_sequence(F, gens)
        for _ in range(30):
            g = random_word(F, rng)
            s = gens[0].pow(rng.randint(-2, 2)).mul(
                gens[1].pow(rng.randint(-2, 2)))
            assert S.remainder(s.mul(g)) == S.remainder(g)

    def test_coords_reconstruct_member(self):
        rng = random.Random(409)
        F = FreeNilGroup(3, 3)
        S = pc.induced_sequence(F, [random_word(F, rng, spread=2)
                                    for _ in range(3)])
        for _ in range(20):
            g = F.identity()
            for m in S.seq:
                g = g.mul(m.pow(rng.randint(-3, 3)))
            qs = S.coords(g)
            rebuilt = F.identity()
            for m, q in zip(S.seq, qs):
                rebuilt = rebuilt.mul(m.pow(q))
            assert rebuilt == g

    def test_coords_of_non_member_raises(self):
        F = FreeNilGroup(2, 2)
        S = pc.induced_sequence(F, [F.generator(0).pow(2)])
        with pytest.raises(InternalCheckError):
            S.coords(F.generator(0))


class TestClosuresAndCommutators:
    def test_normal_closure_of_squares(self):
        F = FreeNilGroup(2, 2)
        x1, x2 = F.generator(0), F.generator(1)
        R = pc.normal_closure(F, [x1.pow(2), x2.pow(2)])
        assert [m.leading() for m in R.seq] == [(0, 2), (1, 2), (2, 2)]

    def test_normal_closure_is_conjugation_stable(self):
        rng = random.Random(410)
        for _ in range(15):
            F = FreeNilGroup(2, rng.randint(2, 4))
            R = pc.normal_closure(F, [random_word(F, rng, spread=2)
                                      for _ in range(2)])
            for m in R.seq[:6]:
                for i in range(F.rank):
                    assert R.contains(m.conj(F.generator(i)))
                    assert R.contains(m.conj(F.generator(i).inverse()))

    @pytest.mark.parametrize("rank,nclass", [(2, 4), (3, 3), (3, 4), (4, 3)])
    def test_normal_closure_matches_conjugation_route(self, rank, nclass):
        rng = random.Random(415 + 10 * rank + nclass)
        F = free_nil_group(rank, nclass)
        gens = [F.generator(i) for i in range(rank)]
        for _ in range(3):
            words = [random_word(F, rng, spread=2, density=0.3)
                     for _ in range(rng.randint(1, 3))]
            want = pc._conjugation_closure(
                F, pc.induced_sequence(F, words), gens)
            assert pc.normal_closure(F, words) == want

    def test_normal_closure_is_normal_and_full(self):
        # at (2, 5) the conjugation route can take more than 20 s, so the
        # defining properties are checked instead
        rng = random.Random(416)
        F = free_nil_group(2, 5)
        gens = [F.generator(i) for i in range(F.rank)]
        w = F.weights
        for _ in range(3):
            words = [random_word(F, rng, spread=2, density=0.3)
                     for _ in range(2)]
            R = pc.normal_closure(F, words)
            assert all(R.contains(g) for g in words)
            for m in R.seq:
                for x in gens:
                    assert R.contains(m.conj(x))
                    assert R.contains(m.conj(x.inverse()))
            for i, a in enumerate(R.seq):
                for b in R.seq[i + 1:]:
                    if w[a.leading()[0]] + w[b.leading()[0]] <= F.nclass:
                        assert R.remainder(a.comm(b)).is_identity()

    def test_relator_commutator_contains_squared_letter(self):
        # with R = ncl{x^2, y^2, [x,y]} the identity [x^2, y] = [x,y]^2
        # puts the square of the commutator letter inside [R, F]
        F = FreeNilGroup(2, 2)
        x, y = F.generator(0), F.generator(1)
        R = pc.normal_closure(F, [x.pow(2), y.pow(2), x.comm(y)])
        D = pc.commutator_subgroup(F, [x, y], R)
        assert D.contains(F.word((0, 0, 2)))
        assert not D.contains(F.word((0, 0, 1)))

    def test_derived_subgroup_letters(self):
        F = FreeNilGroup(2, 3)
        der = pc.derived_subgroup(F)
        assert [m.leading() for m in der.seq] == [(2, 1), (3, 1), (4, 1)]

    def test_derived_in_matches_whole_group_derived(self):
        F = FreeNilGroup(2, 3)
        assert pc.derived_in(whole_group(F)) == pc.derived_subgroup(F)


class TestIntersection:
    def test_kernel_route_agrees_with_general_route(self):
        F = FreeNilGroup(2, 3)
        x, y = F.generator(0), F.generator(1)
        xy = x.mul(y)
        R = pc.normal_closure(F, [x.pow(4), y.pow(2), xy.mul(xy)])
        N1 = pc.intersect_with_kernel(R, IntMatrix.identity(2))
        N2 = pc.intersect(R, pc.derived_subgroup(F))
        N3 = pc.intersect(pc.derived_subgroup(F), R)
        assert N1 == N2 == N3

    def test_membership_characterizes_intersection(self):
        rng = random.Random(411)
        for _ in range(25):
            F = FreeNilGroup(2, rng.randint(1, 3))
            S = pc.induced_sequence(F, [random_word(F, rng, spread=2)
                                        for _ in range(rng.randint(1, 3))])
            T = pc.induced_sequence(F, [random_word(F, rng, spread=2)
                                        for _ in range(rng.randint(1, 3))])
            meet = pc.intersect(S, T)
            for m in meet.seq:
                assert S.contains(m) and T.contains(m)
            for m in S.seq:
                for e in (1, 2, 3):
                    g = m.pow(e)
                    assert T.contains(g) == meet.contains(g)

    def test_intersection_with_whole_group(self):
        rng = random.Random(412)
        F = FreeNilGroup(2, 3)
        S = pc.induced_sequence(F, [random_word(F, rng, spread=2)
                                    for _ in range(2)])
        assert pc.intersect(S, whole_group(F)) == S

    def test_trivial_cases(self):
        F = FreeNilGroup(2, 2)
        S = pc.induced_sequence(F, [F.generator(0)])
        assert pc.intersect(S, pc.trivial_subgroup(F)).is_trivial()
        assert pc.intersect(pc.trivial_subgroup(F), S).is_trivial()


class TestAbelianQuotient:
    def test_letter_mod_square(self):
        F = FreeNilGroup(2, 2)
        c1 = pc.induced_sequence(F, [F.word((0, 0, 1))])
        c2 = pc.induced_sequence(F, [F.word((0, 0, 2))])
        q = pc.abelian_quotient(c1, c2)
        assert q.free_rank == 0 and q.factors == (2,)

    def test_free_quotient(self):
        F = FreeNilGroup(2, 2)
        c1 = pc.induced_sequence(F, [F.word((0, 0, 1))])
        q = pc.abelian_quotient(c1, pc.trivial_subgroup(F))
        assert q.free_rank == 1 and q.factors == ()

    def test_self_quotient_trivial(self):
        F = FreeNilGroup(2, 2)
        c1 = pc.induced_sequence(F, [F.word((0, 0, 1))])
        assert pc.abelian_quotient(c1, c1).is_trivial()

    def test_not_subset_rejected(self):
        F = FreeNilGroup(2, 2)
        c1 = pc.induced_sequence(F, [F.word((0, 0, 2))])
        d = pc.induced_sequence(F, [F.generator(0)])
        with pytest.raises(NotSubsetError):
            pc.abelian_quotient(c1, d)

    def test_not_normal_rejected(self):
        F = FreeNilGroup(2, 2)
        whole = whole_group(F)
        d = pc.induced_sequence(F, [F.generator(0).pow(2)])
        with pytest.raises(NotNormalError):
            pc.abelian_quotient(whole, d)

    def test_not_abelian_rejected(self):
        F = FreeNilGroup(2, 2)
        whole = whole_group(F)
        d = pc.induced_sequence(F, [F.word((0, 0, 2))])
        with pytest.raises(NotAbelianError):
            pc.abelian_quotient(whole, d)

    def test_abelianization_of_subgroup(self):
        # <x^2, y^2, c> / [R, F] with R = ncl{x^2, y^2, [x,y]} is
        # the multiplier computation for the Klein group: Z/2
        F = FreeNilGroup(2, 2)
        x, y = F.generator(0), F.generator(1)
        R = pc.normal_closure(F, [x.pow(2), y.pow(2), x.comm(y)])
        N = pc.intersect_with_kernel(R, IntMatrix.identity(2))
        D = pc.commutator_subgroup(F, [x, y], R)
        q = pc.abelian_quotient(N, D)
        assert q.factors == (2,) and q.free_rank == 0


class TestMaterialization:
    def test_klein_group(self):
        F = FreeNilGroup(2, 2)
        x, y = F.generator(0), F.generator(1)
        R = pc.normal_closure(F, [x.pow(2), y.pow(2), x.comm(y)])
        G, reps = pc.materialize_quotient(F, R)
        assert G.order == 4 and G.is_abelian()
        assert all(G.mul(i, i) == 0 for i in range(4))

    def test_dihedral_and_quaternion(self):
        F = FreeNilGroup(2, 3)
        x, y = F.generator(0), F.generator(1)
        xy = x.mul(y)
        G, _ = pc.materialize_quotient(
            F, pc.normal_closure(F, [x.pow(4), y.pow(2), xy.mul(xy)]))
        assert G.order == 8 and nilpotency_class(G) == 2
        assert len(G.center()) == 2
        H, _ = pc.materialize_quotient(
            F, pc.normal_closure(F, [x.pow(4), x.pow(2).mul(y.pow(-2)),
                                     y.inverse().mul(x).mul(y).mul(x)]))
        assert H.order == 8 and nilpotency_class(H) == 2
        # all involutions central distinguishes the quaternion group
        invol = [g for g in H.elements() if g and H.mul(g, g) == 0]
        assert len(invol) == 1

    def test_cyclic(self):
        F = FreeNilGroup(1, 2)
        R = pc.normal_closure(F, [F.generator(0).pow(12)])
        G, _ = pc.materialize_quotient(F, R)
        assert G.order == 12 and G.abelian_invariants().factors == (12,)

    def test_infinite_quotient_hits_cap(self):
        F = FreeNilGroup(1, 1)
        with pytest.raises(SizeLimitError):
            pc.materialize_quotient(F, pc.trivial_subgroup(F), max_order=32)
