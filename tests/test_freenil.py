import random

import pytest

from hopfgal.abelian import FgAbelianGroup
from hopfgal.checks import check_collection
from hopfgal.corpus import PRESENTED
from hopfgal.errors import (InternalCheckError, NotAbelianError,
                            NotNormalError, NotSubsetError, SizeLimitError,
                            ValidationError)
from hopfgal import freenil
from hopfgal.freenil import (FreeNilGroup, NilHom, _alg_mul, _alg_one,
                             _binomials, free_nil_group, witt_number)
from hopfgal.groups import commutator_subgroup
from hopfgal.hopf import NilPresentation, build_presentation_cube
from hopfgal.matrices import (HnfSolver, IntMatrix, lattice_intersection,
                              left_kernel)
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


# ---- reference closure route ------------------------------------------------
#
# An independent route to the canonical sequence of a subgroup: insert
# each word by Euclid steps on its leading exponent alone, commute every
# pair of members in all four signs until nothing new reduces, and only
# then box-reduce.  It shares nothing with the layer fill in pcseq but
# reduce_against, so comparing the two checks the fill's fullness proof.

def reference_sequence(F, words):
    """The subgroup generated by `words` by the all-pairs fixpoint."""
    members = {}

    def insert(g):
        while not g.is_identity():
            l, e = g.leading()
            if e < 0:
                g = g.inverse()
                e = -e
            m = members.get(l)
            if m is None:
                members[l] = g
                return
            q = e // m.exps[l]
            if q:
                g = m.pow(-q).mul(g)
            if g.exps[l]:
                members[l] = g
                g = m

    for g in words:
        insert(g)
    weights = F.weights
    while True:
        seq = [members[l] for l in sorted(members)]
        fresh = []
        for i, a in enumerate(seq):
            for b in seq[i + 1:]:
                if (weights[a.leading()[0]] + weights[b.leading()[0]]
                        > F.nclass):
                    continue
                for u in (a, a.inverse()):
                    for v in (b, b.inverse()):
                        _, r = pc.reduce_against(u.comm(v), seq)
                        if not r.is_identity():
                            fresh.append(r)
        if not fresh:
            break
        for g in fresh:
            insert(g)
    for i in range(len(seq) - 2, -1, -1):
        seq[i] = pc.reduce_against(seq[i], seq[i + 1:])[1]
    return pc.PcSubgroup(F, seq, _checked=True)


def reference_conjugation_closure(F, words, conjugators):
    """The closure of <words> under conjugation by `conjugators`,
    rebuilt by the all-pairs fixpoint until no conjugate is new."""
    current = reference_sequence(F, words)
    while True:
        fresh = []
        for m in current.seq:
            for c in conjugators:
                for by in (c, c.inverse()):
                    r = current.remainder(m.conj(by))
                    if not r.is_identity():
                        fresh.append(r)
        if not fresh:
            return current
        current = reference_sequence(F, list(current.seq) + fresh)


def reference_derived_in(S):
    F = S.parent
    comms = [a.comm(b) for i, a in enumerate(S.seq) for b in S.seq[i + 1:]]
    return reference_conjugation_closure(F, comms, S.seq)


def member_commutators(S):
    """The commutators of S's member pairs whose leading weights add up
    to at most the class.  For a full sequence they generate [S, S]
    with no conjugation: with H their group, [x, s] lies in H for x in
    S /\\ gamma_t and s in S, by induction down from t = c+1.  Expanding
    [x, s] over members leaves conjugates [a_l, a_m]^y with w_l >= t,
    and [a_l, a_m]^y = [a_l, a_m] [[a_l, a_m], y] with [a_l, a_m] in
    S /\\ gamma_{t+1}."""
    weights = S.parent.weights
    return [a.comm(b) for i, a in enumerate(S.seq) for b in S.seq[i + 1:]
            if weights[a.leading()[0]] + weights[b.leading()[0]]
            <= S.parent.nclass]


# ---- reference Magnus route ------------------------------------------------
#
# The Magnus model with a full truncated-algebra product for every letter
# power and every layer strip, with no use of the degree bound that makes
# letters of weight above c/2 add, and every letter power taken by the
# generic alg_power rather than from the letter's power table: an
# independent route to magnus_image and extract.

def alg_power(a, n, bits):
    """a^n = sum over k <= c of C(n, k) (a - 1)^k, for a unit a: a - 1
    has no constant term, so its powers above c vanish, and the sum is
    exact for every integer n.  The generic route that
    FreeNilGroup._letter_power shortens with the letter's power table."""
    if a[0].get(0, 0) != 1:
        raise InternalCheckError("powering a non-unit algebra element")
    x = [{}] + a[1:]
    out = _alg_one(len(a) - 1)
    term = None
    for binom in _binomials(n, len(a) - 1)[1:]:
        if not binom:
            break
        term = x if term is None else _alg_mul(term, x, bits)
        for layer, part in zip(out, term):
            for m, c in part.items():
                layer[m] = layer.get(m, 0) + binom * c
    return [{m: c for m, c in layer.items() if c} for layer in out]


def alg_comm(a, b, bits):
    """a^-1 b^-1 a b by generic powers: the route FreeNilGroup._bracket
    shortens."""
    return _alg_mul(_alg_mul(alg_power(a, -1, bits), alg_power(b, -1, bits),
                             bits), _alg_mul(a, b, bits), bits)


def letter_image(F, i):
    """M(b_i) = 1 + X_i, from the first entry of the letter's table."""
    return [{0: 1}] + F._magnus_letter(i)[0][1:]


def reference_magnus_image(F, u):
    z = _alg_one(F.nclass)
    for l, e in u.syllables():
        z = _alg_mul(z, alg_power(letter_image(F, l), e, F._bits), F._bits)
    return z


def reference_extract(F, z):
    exps = [0] * len(F.letters)
    residue = z
    for w in range(1, F.nclass + 1):
        layer = {m: c for m, c in residue[w].items() if c}
        if not layer:
            continue
        idx, mono_pos, solver = F._solver(w)
        target = [0] * len(mono_pos)
        for m, c in layer.items():
            if m not in mono_pos:
                raise InternalCheckError(
                    "weight-%d layer outside the Hall span" % w)
            target[mono_pos[m]] = c
        coeffs = solver.solve(tuple((j, c) for j, c in enumerate(target)
                                    if c))
        if coeffs is None:
            raise InternalCheckError(
                "weight-%d layer is not an integer Hall combination" % w)
        strip = _alg_one(F.nclass)
        for j, c in coeffs:
            i = idx[j]
            exps[i] = c
            strip = _alg_mul(strip, alg_power(letter_image(F, i), c,
                                               F._bits), F._bits)
        residue = _alg_mul(alg_power(strip, -1, F._bits), residue,
                           F._bits)
    if any(c for layer in residue[1:] for c in layer.values()):
        raise InternalCheckError("nonidentity residue after extraction")
    if residue[0].get(0, 0) != 1:
        raise InternalCheckError("unit coefficient corrupted")
    return F.word(exps)


class TestHallBasis:
    def test_known_sizes(self):
        assert len(FreeNilGroup(2, 2).letters) == 3
        assert len(FreeNilGroup(1, 5).letters) == 1
        assert len(FreeNilGroup(2, 3).letters) == 5

    def test_witt_numbers(self):
        assert [witt_number(2, w) for w in range(1, 6)] == \
            [2, 1, 2, 3, 6]
        assert witt_number(1, 3) == 0
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

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(freenil, "MAX_BASIS", 5)
        with pytest.raises(SizeLimitError):
            FreeNilGroup(3, 3)

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
        # rank 5, class 4 is the pullback cover of the degree-3 V4 cube.
        # Degree-3 Hopf runs multiply words with about four of its 205
        # letters, which density 0.02 draws; check_collection draws
        # dense words at ranks 1 to 3 only.
        rng = random.Random(413)
        F = free_nil_group(5, 4)
        for density, count in ((0.2, 12), (0.02, 60)):
            for _ in range(count):
                u = random_word(F, rng, spread=9, density=density)
                v = random_word(F, rng, spread=9, density=density)
                assert F.multiply(u, v) == F.multiply_via_model(u, v)
                assert F.multiply(v, u) == F.multiply_via_model(v, u)

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
                alg_power(F.magnus_image(x), -1, F._bits))

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


def assert_canonical(u):
    """u is stored as its syllables: strictly increasing letters of its
    parent, no zero exponent, and the same word as its dense vector."""
    letters = [l for l, _ in u.syllables()]
    assert letters == sorted(set(letters))
    assert all(0 <= l < len(u.parent.letters) for l in letters)
    assert all(e for _, e in u.syllables())
    assert u == u.parent.word(u.exps)
    assert hash(u) == hash(u.parent.word(u.exps))


class TestSyllableForm:
    @pytest.mark.parametrize("rank,nclass", [(2, 4), (3, 3), (5, 4)])
    def test_every_route_keeps_the_syllable_form(self, rank, nclass):
        rng = random.Random(430 + rank)
        F = free_nil_group(rank, nclass)
        low = F.truncated()
        G = free_nil_group(2, nclass)
        phi = NilHom(G, F, [random_word(F, rng, density=0.05)
                            for _ in range(2)])
        words = [F.identity(), F.generator(0), F.generator(rank - 1),
                 F.letter(len(F.letters) - 1), F.word([0] * len(F.letters))]
        words += [random_word(F, rng, spread=4, density=d)
                  for d in (0.02, 0.1, 0.5, 1.0) for _ in range(2)]
        out = list(words)
        for u in words:
            out += [u.inverse(), u.pow(-3), u.pow(0), u.pow(2),
                    F.extract(F.magnus_image(u)), low.truncate_word(u),
                    F.lift_word(low.truncate_word(u))]
            for v in words:
                out += [F.multiply(u, v), u.mul(v).mul(v.inverse())]
        out += [phi.apply(random_word(G, rng)) for _ in range(4)]
        S = pc.induced_sequence(F, words[5:8])
        out += list(pc.shadow(S, low).seq)
        for u in out:
            assert_canonical(u)
        # equality and hashing agree with the dense vectors, also for
        # words reached by different routes and for words of two groups
        # with equal syllables
        for a in out[::7]:
            for b in out[::5] + [low.truncate_word(a)]:
                assert (a == b) == (a.parent is b.parent and a.exps == b.exps)
                if a == b:
                    assert hash(a) == hash(b)

    def test_cancelling_exponents_leave_no_syllable(self):
        F = free_nil_group(5, 4)
        rng = random.Random(431)
        for _ in range(20):
            u = random_word(F, rng, spread=9, density=0.02)
            assert F.multiply(u, u.inverse()).syllables() == ()
            assert u.pow(0).syllables() == ()
            assert F.multiply(u.pow(3), u.pow(-2)) == u


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
                    direct = F.extract(alg_comm(
                        alg_power(letter_image(F, t), f, F._bits),
                        alg_power(letter_image(F, l), e, F._bits),
                        F._bits))
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
        bits = F._bits
        one = _alg_one(4)
        acc = one
        for n in range(7):
            assert alg_power(a, n, bits) == acc
            assert _alg_mul(alg_power(a, -n, bits), acc, bits) == one
            assert _alg_mul(acc, alg_power(a, -n, bits), bits) == one
            acc = _alg_mul(acc, a, bits)

    def test_power_of_non_unit_rejected(self):
        # 2 + x0 at class 2
        with pytest.raises(InternalCheckError):
            alg_power([{0: 2}, {0: 1}, {}], 3, 1)


MODEL_SHAPES = [(2, 6), (3, 5), (4, 3), (5, 4)]


class TestMagnusModel:
    @pytest.mark.parametrize("rank,nclass", MODEL_SHAPES)
    def test_model_matches_reference_route(self, rank, nclass):
        rng = random.Random(421 + rank)
        F = free_nil_group(rank, nclass)
        top = [i for i, w in enumerate(F.weights) if 2 * w > nclass]
        for density in (0.1, 0.3, 0.6):
            u = random_word(F, rng, spread=50, density=density)
            v = random_word(F, rng, spread=50, density=density)
            # a word in the letters of weight above c/2 alone
            x = F.word([rng.randint(-50, 50) if i in top else 0
                        for i in range(len(F.letters))])
            for word in (u, v, x):
                z = F.magnus_image(word)
                assert z == reference_magnus_image(F, word)
                assert F.extract(z) == reference_extract(F, z) == word
            z = _alg_mul(F.magnus_image(u), F.magnus_image(v), F._bits)
            assert F.extract(z) == reference_extract(F, z) == u.mul(v)

    @pytest.mark.parametrize("rank,nclass", MODEL_SHAPES)
    def test_extract_matches_reference_on_commutator_tails(self, rank,
                                                           nclass):
        rng = random.Random(422 + rank)
        F = free_nil_group(rank, nclass)
        w = F.weights
        pairs = [(t, l) for t in range(len(F.letters)) for l in range(t)
                 if w[t] + w[l] <= nclass]
        for t, l in rng.sample(pairs, min(6, len(pairs))):
            f, e = rng.randint(-50, 50), rng.randint(-50, 50)
            z = alg_comm(alg_power(letter_image(F, t), f, F._bits),
                         alg_power(letter_image(F, l), e, F._bits), F._bits)
            assert F.extract(z) == reference_extract(F, z)

    def test_letter_weights_are_nondecreasing(self):
        # the letters of weight above c/2 must be the trailing ones for
        # magnus_image to apply them as one summed factor
        for rank, nclass in MODEL_SHAPES + [(1, 3), (2, 4), (3, 4)]:
            weights = list(free_nil_group(rank, nclass).weights)
            assert weights == sorted(weights)

    @pytest.mark.parametrize("length", [0, 2, 3, 5])
    def test_corrupted_image_is_rejected_by_both_routes(self, length):
        # at class 5, layers 1 and 2 strip by products and layers 3 to 5
        # by subtraction; length 0 corrupts the unit coefficient.  A
        # single monomial of length >= 2 is no Lie element: the
        # coefficients of a bracket sum to 0 over each multidegree.  The
        # monomial x0 ... x0 x1 packs to 1, the empty one to 0.
        rng = random.Random(423)
        F = free_nil_group(3, 5)
        top = [2 * w > 5 for w in F.weights]
        u = random_word(F, rng, spread=9)
        x = F.word([rng.randint(-9, 9) if t else 0 for t in top])
        m = 1 if length else 0
        for word in (u, x):
            z = F.magnus_image(word)
            z[length][m] = z[length].get(m, 0) + 1
            with pytest.raises(InternalCheckError):
                F.extract(z)
            with pytest.raises(InternalCheckError):
                reference_extract(F, z)


class TestGradedModel:
    def test_monomials_pack_letters_first_highest(self):
        # rank 3 packs two bits a letter: x1 x0 is 0b0100, x0 x1 is 0b0001
        F = FreeNilGroup(3, 2)
        assert F._bits == 2
        assert letter_image(F, 1) == [{0: 1}, {1: 1}, {}]
        assert letter_image(F, 3) == [{0: 1}, {}, {0b0100: 1, 0b0001: -1}]
        assert FreeNilGroup(1, 3)._bits == 1

    @pytest.mark.parametrize("rank,nclass", [(3, 5), (4, 5)])
    def test_bracket_images_match_generic_commutators(self, rank, nclass):
        F = FreeNilGroup(rank, nclass)
        for i, letter in enumerate(F.letters):
            if letter.left is not None:
                assert letter_image(F, i) == alg_comm(
                    letter_image(F, letter.left),
                    letter_image(F, letter.right), F._bits), letter

    @pytest.mark.parametrize("rank,nclass", [(3, 5), (4, 5)])
    def test_power_tables_match_generic_powers(self, rank, nclass):
        F = FreeNilGroup(rank, nclass)
        big = 10 ** 12 + 3
        for l, w in enumerate(F.weights):
            assert len(F._magnus_letter(l)) == nclass // w
            image = letter_image(F, l)
            for e in list(range(-7, 8)) + [big, -big]:
                assert F._letter_power(l, e, nclass) == \
                    alg_power(image, e, F._bits), (l, e)

    def test_truncated_power_is_a_prefix(self):
        F = free_nil_group(2, 6)
        for l in range(len(F.letters)):
            for e in (-5, 3):
                whole = F._letter_power(l, e, 6)
                for top in range(7):
                    assert F._letter_power(l, e, top) == whole[:top + 1]

    def test_letter_images_form_few_products(self, monkeypatch):
        # every letter image of FreeNilGroup(4, 5), its power table
        # included, takes 774 products: XY and YX for each bracket, the
        # inverse powers and their product below the top weight, and
        # X^k for the letters of weight <= 2.  The alg_comm route takes
        # 2103 for the bracket images alone.
        calls = []
        mul = freenil._alg_mul

        def counting(a, b, bits):
            calls.append(1)
            return mul(a, b, bits)

        monkeypatch.setattr(freenil, "_alg_mul", counting)
        F = FreeNilGroup(4, 5)
        for i in range(len(F.letters)):
            F._magnus_letter(i)
        assert len(calls) <= 800, len(calls)


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
            want = reference_conjugation_closure(F, words, gens)
            assert pc.normal_closure(F, words) == want

    @pytest.mark.parametrize("rank,nclass", [(2, 4), (3, 3), (3, 4), (4, 3)])
    def test_induced_sequence_matches_all_pairs_route(self, rank, nclass):
        rng = random.Random(417 + 10 * rank + nclass)
        F = free_nil_group(rank, nclass)
        for _ in range(6):
            words = [random_word(F, rng, spread=2, density=0.3)
                     for _ in range(rng.randint(2, 3))]
            assert pc.induced_sequence(F, words) == \
                reference_sequence(F, words)

    @pytest.mark.parametrize("rank,nclass",
                             [(2, 4), (3, 3), (3, 4), (4, 3), (2, 5)])
    def test_derived_in_matches_conjugation_route(self, rank, nclass):
        rng = random.Random(418 + 10 * rank + nclass)
        F = free_nil_group(rank, nclass)
        for _ in range(4):
            S = pc.induced_sequence(F, [
                random_word(F, rng, spread=2, density=0.6)
                for _ in range(rng.randint(2, 3))])
            assert pc.induced_sequence(F, member_commutators(S)) == \
                reference_derived_in(S)

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

    def test_induced_sequence_is_closed_and_not_forced_normal(self):
        # the all-pairs route is too slow at (2, 5) to compare with, so
        # the defining properties are checked instead
        rng = random.Random(419)
        F = free_nil_group(2, 5)
        gens = [F.generator(i) for i in range(F.rank)]
        w = F.weights
        normal = []
        for _ in range(3):
            words = [random_word(F, rng, spread=2, density=0.6)
                     for _ in range(2)]
            S = pc.induced_sequence(F, words)
            assert all(S.contains(g) for g in words)
            for i, a in enumerate(S.seq):
                for b in S.seq[i + 1:]:
                    if w[a.leading()[0]] + w[b.leading()[0]] <= F.nclass:
                        assert S.remainder(a.comm(b)).is_identity()
            normal.append(all(S.contains(m.conj(x))
                              for m in S.seq for x in gens))
        assert not all(normal)

    def test_relator_commutator_contains_squared_letter(self):
        # with R = ncl{x^2, y^2, [x,y]} the identity [x^2, y] = [x,y]^2
        # puts the square of the commutator letter inside [R, F]
        F = FreeNilGroup(2, 2)
        x, y = F.generator(0), F.generator(1)
        R = pc.normal_closure(F, [x.pow(2), y.pow(2), x.comm(y)])
        D = pc.commutator_subgroup(F, [([x, y], R)])
        assert D.contains(F.word((0, 0, 2)))
        assert not D.contains(F.word((0, 0, 1)))

    def test_derived_subgroup_letters(self):
        F = FreeNilGroup(2, 3)
        der = pc.derived_subgroup(F)
        assert [m.leading() for m in der.seq] == [(2, 1), (3, 1), (4, 1)]

    def test_derived_in_matches_whole_group_derived(self):
        F = FreeNilGroup(2, 3)
        derived = pc.induced_sequence(F, member_commutators(whole_group(F)))
        assert derived == pc.derived_subgroup(F)


def reference_intersect_with_kernel(S):
    """S /\\ [F, F] by the kernel route: the products of S's members whose
    weight-one vectors cancel, together with [S, S], closed again."""
    F = S.parent
    if not S.seq:
        return S
    rows = IntMatrix([m.weight_one() for m in S.seq], cols=F.rank)
    gens = []
    for combo in left_kernel(rows).to_rows():
        g = F.identity()
        for m, c in zip(S.seq, combo):
            g = g.mul(m.pow(c))
        gens.append(g)
    gens.extend(member_commutators(S))
    return pc.induced_sequence(F, gens)


def reference_intersect(S, T):
    """S /\\ T by the matrix route intersect took when each level ran four
    Hermite forms: the span of the central blocks, a left kernel of the
    defects stacked on that span and a Hermite form of its projection,
    an HnfSolver on the stacked blocks to split each central defect, and
    lattice_intersection for the central witnesses.  It adds [V, V] as
    member commutators, which intersect leaves out: comparing the two
    checks intersect's proof that the liftable products generate it."""
    F = S.parent
    if S.is_trivial() or T.is_trivial():
        return pc.trivial_subgroup(F)
    weights = F.weights
    m_total = len(F.letters)
    top = [i for i in range(m_total) if weights[i] == F.nclass]
    z_offset = m_total - len(top)
    if F.nclass == 1:
        rows_s = IntMatrix([list(m.exps) for m in S.seq], cols=m_total)
        rows_t = IntMatrix([list(m.exps) for m in T.seq], cols=m_total)
        meet = lattice_intersection(rows_s, rows_t)
        return pc.induced_sequence(F, [F.word(r) for r in meet.to_rows()])

    def split(P):
        low = {m.leading()[0]: m for m in P.seq
               if weights[m.leading()[0]] < F.nclass}
        central = [list(m.exps[z_offset:]) for m in P.seq
                   if weights[m.leading()[0]] == F.nclass]
        return low, IntMatrix(central, cols=len(top))

    s_low, s_lat = split(S)
    t_low, t_lat = split(T)
    low_group = F.truncated()
    V = reference_intersect(pc.shadow(S, low_group), pc.shadow(T, low_group))

    def central_defect(word):
        _, rs = pc.reduce_against(word, s_low)
        _, rt = pc.reduce_against(word, t_low)
        for r in (rs, rt):
            assert r.is_identity() or r.leading()[0] >= z_offset
        return [a - b for a, b in zip(rs.exps[z_offset:],
                                      rt.exps[z_offset:])], rs

    defects = [central_defect(F.lift_word(v))[0] for v in V.seq]
    lat_basis = HnfSolver(s_lat.stack(t_lat)).span
    kern = left_kernel(IntMatrix(defects, cols=len(top)).stack(lat_basis))
    xrows = HnfSolver(IntMatrix([k[:len(V.seq)] for k in kern.to_rows()],
                                cols=len(V.seq))).span
    combo = [pc._product(low_group, V.seq, x) for x in xrows.to_rows()]
    combo.extend(member_commutators(V))
    M = pc.induced_sequence(low_group, combo)

    solver = HnfSolver(s_lat.stack(t_lat))
    witnesses = []
    for m in M.seq:
        lifted = F.lift_word(m)
        target, rs = central_defect(lifted)
        x = solver.solve(tuple((j, c) for j, c in enumerate(target) if c))
        assert x is not None
        x = [dict(x).get(i, 0) for i in range(s_lat.rows)]
        a_part = IntMatrix([x], cols=s_lat.rows).mul(s_lat)
        z = [a - r for a, r in zip(a_part.row(0), rs.exps[z_offset:])]
        witnesses.append(lifted.mul(F.word([0] * z_offset + z)))
    for row in lattice_intersection(s_lat, t_lat).to_rows():
        witnesses.append(F.word([0] * z_offset + row))
    return pc.induced_sequence(F, witnesses)


def cube_kernels(name, k):
    """K0 and K1 of the two-fold cube of a presented corpus group, built
    at class k."""
    _, _, gens, rels, nclass = next(row for row in PRESENTED
                                    if row[0] == name)
    cube = build_presentation_cube(NilPresentation(gens, rels, nclass), 2, k)
    return cube.kernels


def random_subgroup_pairs(rank, nclass):
    """Six seeded pairs of subgroups of F(rank, nclass), closed in turn
    as subgroups and as normal closures."""
    rng = random.Random(1000 * rank + nclass)
    F = FreeNilGroup(rank, nclass)
    for close in (pc.induced_sequence, pc.normal_closure) * 3:
        yield tuple(close(F, [random_word(F, rng, spread=2)
                              for _ in range(rng.randint(2, 3))])
                    for _ in range(2))


class TestIntersection:
    @pytest.mark.parametrize("rank,nclass",
                             [(2, 4), (3, 3), (4, 3), (5, 3), (2, 5)])
    def test_matches_reference_route_on_random_pairs(self, rank, nclass):
        for S, T in random_subgroup_pairs(rank, nclass):
            meet = pc.intersect(S, T)
            assert meet.seq == reference_intersect(S, T).seq
            assert pc.intersect(T, S) == meet

    @pytest.mark.parametrize("name", ["Z2xZ2", "Z2xZ4", "Z3xZ3"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_reference_route_on_cube_kernels(self, name, k):
        K0, K1 = cube_kernels(name, k)
        meet = pc.intersect(K0, K1)
        assert meet.seq == reference_intersect(K0, K1).seq
        assert all(K0.contains(m) and K1.contains(m) for m in meet.seq)

    @pytest.mark.parametrize("rank,nclass",
                             [(2, 4), (3, 3), (4, 3), (5, 3), (2, 5)])
    def test_suffix_matches_kernel_route(self, rank, nclass):
        rng = random.Random(100 * rank + nclass)
        F = FreeNilGroup(rank, nclass)
        for close in (pc.induced_sequence, pc.normal_closure) * 5:
            words = [random_word(F, rng, spread=2)
                     for _ in range(rng.randint(2, 3))]
            S = close(F, words)
            N = pc.intersect_with_kernel(S)
            assert N == reference_intersect_with_kernel(S)
            assert all(not any(m.weight_one()) for m in N.seq)

    def test_kernel_route_agrees_with_general_route(self):
        F = FreeNilGroup(2, 3)
        x, y = F.generator(0), F.generator(1)
        xy = x.mul(y)
        R = pc.normal_closure(F, [x.pow(4), y.pow(2), xy.mul(xy)])
        N1 = pc.intersect_with_kernel(R)
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
        for nclass in (1, 2):
            F = FreeNilGroup(2, nclass)
            S = pc.induced_sequence(F, [F.generator(0)])
            assert pc.intersect(S, pc.trivial_subgroup(F)).is_trivial()
            assert pc.intersect(pc.trivial_subgroup(F), S).is_trivial()


class TestMeetImage:
    @pytest.mark.parametrize("rank,nclass", [(2, 4), (3, 3), (3, 4), (2, 5)])
    def test_is_the_meet_shadowed_on_random_pairs(self, rank, nclass):
        for S, T in random_subgroup_pairs(rank, nclass):
            low = S.parent.truncated()
            assert pc.meet_image(S, T) == pc.shadow(pc.intersect(S, T), low)

    @pytest.mark.parametrize("k", [3, 4])
    def test_is_the_meet_shadowed_on_v4_cube_kernels(self, k):
        K0, K1 = cube_kernels("Z2xZ2", k)
        image = pc.meet_image(K0, K1)
        low = K0.parent.truncated()
        assert image == pc.shadow(pc.intersect(K0, K1), low)
        # a proper subgroup of the meet formed one class down
        below = pc.intersect(pc.shadow(K0, low), pc.shadow(K1, low))
        assert all(below.contains(m) for m in image.seq) and image != below

    def test_trivial_input_gives_the_trivial_subgroup_below(self):
        F = FreeNilGroup(2, 3)
        S = pc.induced_sequence(F, [F.generator(0)])
        for pair in ((S, pc.trivial_subgroup(F)), (pc.trivial_subgroup(F), S)):
            image = pc.meet_image(*pair)
            assert image.is_trivial() and image.parent is F.truncated()

    def test_class_one_has_no_image_below(self):
        F = FreeNilGroup(2, 1)
        S = pc.induced_sequence(F, [F.generator(0)])
        with pytest.raises(ValidationError):
            pc.meet_image(S, S)


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
        assert pc.abelian_quotient(c1, c1) == FgAbelianGroup.trivial()

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
        N = pc.intersect_with_kernel(R)
        D = pc.commutator_subgroup(F, [([x, y], R)])
        q = pc.abelian_quotient(N, D)
        assert q.factors == (2,) and q.free_rank == 0


class TestMaterialization:
    def test_klein_group(self):
        F = FreeNilGroup(2, 2)
        x, y = F.generator(0), F.generator(1)
        R = pc.normal_closure(F, [x.pow(2), y.pow(2), x.comm(y)])
        G, reps = pc.materialize_quotient(F, R)
        assert G.order == 4 and G.is_abelian()
        assert all(G.table[i][i] == 0 for i in range(4))

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
        invol = [g for g in H.elements() if g and H.table[g][g] == 0]
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
