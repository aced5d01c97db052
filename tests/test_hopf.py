import importlib.util
import json
import math
import pathlib
import random

import pytest

from hopfgal.abelian import FgAbelianGroup, PrimeSet
from hopfgal import checks, hopf
from hopfgal import pcseq as pc
from hopfgal.bar import homology
from hopfgal.corpus import (PRESENTED, TRIVIAL_PRESENTED, abelian, cyclic,
                            klein4, named_group)
from hopfgal.errors import SizeLimitError, ValidationError
from hopfgal.freenil import (MAX_BASIS, FreeNilGroup, NilHom, free_nil_group,
                             witt_number)
from hopfgal.groups import FiniteGroup
from hopfgal.hopf import (
    MAX_NESTING, HopfResult, NilPresentation, build_presentation_cube,
    evaluate_cube, hopf_pi_n, parse_presentation,
)


def pres_cyclic(n):
    return NilPresentation(["x"], ["x^%d" % n], 1)


def pres_v4():
    return NilPresentation(["x", "y"], ["x^2", "y^2", "[x,y]"], 1)


def pres_z2_cubed():
    """(Z2)^3, whose pullback cover has rank 3 + 6 = 9, above RANK_CAP."""
    return NilPresentation(
        ["x", "y", "z"],
        ["x^2", "y^2", "z^2", "[x,y]", "[x,z]", "[y,z]"], 1)


def pres_d4():
    return NilPresentation(["r", "s"], ["r^4", "s^2", "[r,s]r^2"], 2)


def pres_q8():
    return NilPresentation(["a", "b"], ["a^4", "a^2b^2", "[a,b]a^2"], 2)


def pres_q8_pruned():
    # a^4 follows from the other two relators, so this is Q8 too, on a
    # rank-4 pullback cover instead of rank 5
    return NilPresentation(["a", "b"], ["a^2b^2", "[a,b]a^2"], 2)


def reference_commutator_subgroup(F, gens, T):
    """[N, T] for N the normal closure of `gens`: one closure per pair,
    as commutator_subgroup took one (gens, T) at a time."""
    w = F.weights
    return pc.normal_closure(F, [
        g.comm(t) for g in gens for t in T.seq
        if w[g.leading()[0]] + w[t.leading()[0]] <= F.nclass])


def reference_denominator(cube):
    """The two-fold denominator [K0 /\\ K1, Q] [K0, K1] by three
    closures, as evaluate_cube formed it before it took one: each factor
    apart, then the normal closure of both sequences."""
    Q = cube.ambient
    K0, K1 = cube.kernels
    gens = [Q.generator(i) for i in range(Q.rank)]
    D = reference_commutator_subgroup(Q, gens, pc.intersect(K0, K1))
    cross = reference_commutator_subgroup(
        Q, gens[cube.diagonal_rank:], K1)
    return pc.normal_closure(Q, list(D.seq) + list(cross.seq))


def one_closure_denominator(cube):
    """The same denominator as evaluate_cube forms it: one closure over
    the pairs (generators, K0 /\\ K1) and (relator generators, K1)."""
    Q = cube.ambient
    K0, K1 = cube.kernels
    gens = [Q.generator(i) for i in range(Q.rank)]
    return pc.commutator_subgroup(Q, [
        (gens, pc.intersect(K0, K1)),
        (gens[cube.diagonal_rank:], K1)])


def subgroup_info(S):
    return {"generators": len(S.seq), "leading_weights": S.leading_weights()}


def reference_evaluate_cube(cube, primes=None, k=None):
    """A two-fold cube's (value, N, D) by the route evaluate_cube took
    before it formed its subgroups at the working class: the full
    intersect, numerator and denominator at the cube's class, then both
    shadowed to class k."""
    Q = cube.ambient
    K0, K1 = cube.kernels
    K = pc.intersect(K0, K1)
    gens = [Q.generator(i) for i in range(Q.rank)]
    D = pc.commutator_subgroup(Q, [
        (gens, K), (gens[cube.diagonal_rank:], K1)])
    low = free_nil_group(Q.rank, Q.nclass if k is None else k)
    N = pc.shadow(pc.intersect_with_kernel(K), low)
    D = pc.shadow(D, low)
    if primes is not None:
        D = pc.torsion_closure_in(pc.shadow(K, low), D, primes)
    return pc.abelian_quotient(N, D), N, D


class TestWordSyntax:
    def test_words_evaluate_as_written(self):
        p = pres_v4()
        F, rels = p.ambient(2)
        x, y = F.generator(0), F.generator(1)
        assert rels[0] == x.mul(x)
        assert rels[2] == x.inverse().mul(y.inverse()).mul(x).mul(y)

    def test_exponents_parentheses_and_nesting(self):
        p = NilPresentation(["a", "b"],
                            ["(ab)^2 (b a)^-2", "[a,[a,b]]", "a^+1 a^-1"],
                            3, verify=False)
        F, rels = p.ambient(3)
        a, b = F.generator(0), F.generator(1)
        ab = a.mul(b)
        assert rels[0] == ab.pow(2).mul(b.mul(a).pow(-2))
        assert rels[1] == a.comm(a.comm(b))
        assert rels[2].is_identity()

    def test_longest_name_wins(self):
        p = NilPresentation(["t", "t2"], ["t2 t^-2"], 2, verify=False)
        F, rels = p.ambient(2)
        assert rels[0] == F.generator(1).mul(F.generator(0).pow(-2))

    def test_stars_and_spaces_are_separators(self):
        p = NilPresentation(["x"], ["x * x", "x x"], 1, verify=False)
        F, rels = p.ambient(2)
        assert rels[0] == rels[1] == F.generator(0).pow(2)

    @pytest.mark.parametrize("bad", ["z^2", "x^", "(x", "[x,y", "x^y"])
    def test_malformed_words_are_rejected(self, bad):
        with pytest.raises(ValidationError):
            NilPresentation(["x", "y"], [bad], 1, verify=False)

    def test_nesting_is_bounded(self):
        n = MAX_NESTING
        deepest = "(" * n + "x" + ")" * n
        p = NilPresentation(["x"], [deepest + "^2"], 1, verify=False)
        F, rels = p.ambient(2)
        assert rels[0] == F.generator(0).pow(2)
        # the error names the position of the first bracket too deep
        for word, pos in [("(" + deepest + ")", n),
                          ("[x," * (n + 1) + "x" + "]" * (n + 1), 3 * n)]:
            with pytest.raises(ValidationError, match="nested deeper than "
                               "%d at position %d " % (n, pos)):
                NilPresentation(["x"], [word], 1, verify=False)


class TestPresentation:
    def test_class_bound_is_verified_at_load(self):
        # D4 has class 2; claiming 1 must fail loudly
        with pytest.raises(ValidationError):
            NilPresentation(["r", "s"], ["r^4", "s^2", "[r,s]r^2"], 1)
        pres_d4()

    def test_name_validation(self):
        with pytest.raises(ValidationError):
            NilPresentation(["x", "x"], ["x^2"], 1)
        with pytest.raises(ValidationError):
            NilPresentation(["x", "2y"], ["x^2"], 1)
        with pytest.raises(ValidationError):
            NilPresentation(["x", "a b"], ["x^2"], 1)
        with pytest.raises(ValidationError):
            NilPresentation(["x"], ["x^2"], 0)

    def test_ambient_and_kernel_are_cached(self):
        p = pres_v4()
        assert p.ambient(2)[0] is p.ambient(2)[0]
        assert p.kernel_at(2) is p.kernel_at(2)

    def test_digest_is_deterministic_and_sensitive(self):
        assert pres_v4().input_digest() == pres_v4().input_digest()
        other = NilPresentation(["x", "y"], ["x^2", "y^4", "[x,y]"], 1)
        assert other.input_digest() != pres_v4().input_digest()

    def test_parse_presentation_round_trip(self):
        text = """
        # Klein four group
        gens: x y
        rels: x^2, y^2, [x,y]
        class: 1
        """
        p = parse_presentation(text)
        assert p.names == ["x", "y"]
        assert p.relators == ["x^2", "y^2", "[x,y]"]
        assert p.nclass == 1

    def test_parse_rejoins_commutator_commas(self):
        p = parse_presentation(
            "gens: a b\nrels: [a,[a,b]], a^2, b^2, [a,b]\nclass: 1")
        assert p.relators[0] == "[a,[a,b]]"
        assert p.relators[1:] == ["a^2", "b^2", "[a,b]"]

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_presentation("gens: x\nrelators: x^2\nclass: 1")
        with pytest.raises(ValidationError):
            parse_presentation("gens: x\nrels: x^2")
        with pytest.raises(ValidationError):
            parse_presentation("gens: x\nrels: [x, x^2\nclass: 1")


class TestPresentedCorpus:
    @staticmethod
    def spellings():
        """(alias, canonical name) for every name of a presented group."""
        for name, *_ in (TRIVIAL_PRESENTED,) + PRESENTED:
            for alias in (name, name.lower(), name.upper()):
                yield alias, name
        for n in range(1, 17):
            yield "C%d" % n, "Z%d" % n
            yield "c%d" % n, "Z%d" % n
        for alias in ("V4", "v4"):
            yield alias, "Z2xZ2"
        for alias in ("trivial", "Trivial"):
            yield alias, "Z1"

    def test_aliases_give_the_canonical_presentation(self):
        for alias, name in self.spellings():
            assert named_group(alias).table == named_group(name).table, alias
            assert checks.presentation_for(alias).input_digest() == \
                checks.presentation_for(name).input_digest(), alias

    def test_table_matches_the_corpus(self):
        for (name, pres, G), row in zip(checks.presented_nilpotent_corpus(),
                                        PRESENTED):
            assert (name, pres.names, pres.relators, pres.nclass) == \
                (row[0], row[2], row[3], row[4])
            assert G.table == named_group(name).table

    def test_one_lookup_builds_one_presentation(self, monkeypatch):
        built = []
        real = checks.NilPresentation

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(checks, "NilPresentation", counting)
        assert checks.presentation_for("Q8").rank == 2
        assert len(built) == 1

    def test_unpresented_name_has_no_presentation(self):
        assert named_group("D3").order == 6
        with pytest.raises(ValidationError, match="no presentation on file"):
            checks.presentation_for("D3")


class TestCubes:
    def test_one_fold_cube_is_the_presentation(self):
        p = pres_v4()
        cube = build_presentation_cube(p, 1)
        assert cube.n == 1
        assert cube.ambient is p.ambient(2)[0]
        assert len(cube.kernels) == 1
        assert cube.kernels[0] is p.kernel_at(2)

    def test_two_fold_kernels_are_the_projection_kernels(self):
        p = pres_v4()
        cube = build_presentation_cube(p, 2, 2)
        Q = cube.ambient
        F, rels = p.ambient(2)
        d = F.rank
        gens = [F.generator(i) for i in range(d)]
        p0 = NilHom(Q, F, gens + [F.identity() for _ in rels])
        p1 = NilHom(Q, F, gens + rels)
        for m in cube.kernels[0].seq:
            assert p0.apply(m).is_identity()
        for m in cube.kernels[1].seq:
            assert p1.apply(m).is_identity()

    @pytest.mark.parametrize("name", ["V4", "Z2xZ4", "Z3xZ3"])
    def test_twisted_kernel_exponents_stay_small(self, monkeypatch, name):
        # box reduction inside each layer of the normal closure, with the
        # sparsest pending words first, keeps every word small; Euclid
        # steps on the leading letter alone, words taken as they come,
        # take V4's words past 16,000 bits
        peak = [0]
        multiply = FreeNilGroup.multiply

        def watched(F, u, v):
            out = multiply(F, u, v)
            peak[0] = max(peak[0], max(map(abs, out.exps)).bit_length())
            return out

        monkeypatch.setattr(FreeNilGroup, "multiply", watched)
        cube = build_presentation_cube(checks.presentation_for(name), 2, 4)
        K1 = cube.kernels[1]
        assert max(abs(e) for m in K1.seq for e in m.exps).bit_length() <= 8
        assert peak[0] <= 8

    def test_cover_rank_is_diagonal_plus_relators(self):
        cube = build_presentation_cube(pres_v4(), 2, 3)
        assert cube.ambient.rank == 5
        assert cube.ambient.rank - cube.diagonal_rank == 3

    def test_rank_cap_is_enforced(self):
        with pytest.raises(SizeLimitError):
            build_presentation_cube(pres_z2_cubed(), 2, 2)

    def test_bad_dimension_and_class(self):
        with pytest.raises(ValidationError):
            build_presentation_cube(pres_v4(), 3)
        with pytest.raises(ValidationError):
            build_presentation_cube(pres_d4(), 1, 2)

    def test_evaluate_cube_matches_h2(self):
        p = pres_v4()
        value, num, den = evaluate_cube(build_presentation_cube(p, 1))
        assert value.factors == (2,)
        assert num["generators"] >= 1
        assert den["generators"] >= 1


def twisted_maps(pres, k):
    """(Q, pi0, pi1, section) of the two-fold cube at class k: pi0 sends
    the relator generators to 1, pi1 to their relators, and the section
    is the diagonal map x_i -> x_i."""
    F, rels = pres.ambient(k)
    d = F.rank
    Q = free_nil_group(d + len(rels), k)
    gens = [F.generator(i) for i in range(d)]
    return (Q, NilHom(Q, F, gens + [F.identity()] * len(rels)),
            NilHom(Q, F, gens + rels),
            NilHom(F, Q, [Q.generator(i) for i in range(d)]))


def reference_twisted_kernel(pres, k):
    """K1 as build_presentation_cube formed it before split_kernel: the
    normal closure of the twisted relator generators x_{d+l} s(r_l)^-1."""
    F, rels = pres.ambient(k)
    Q, _, _, section = twisted_maps(pres, k)
    d = F.rank
    return pc.normal_closure(Q, [
        Q.generator(d + l).mul(section.apply(r).inverse())
        for l, r in enumerate(rels)])


def bench_h3_presentations(seed):
    """The eight presentations the benchmark's hopf-h3 workload writes
    at this seed: generators renamed, relators permuted, some inverted."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads",
        pathlib.Path(__file__).parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random("hopf-h3:%d" % seed)
    return [("h3-" + name, parse_presentation(
        workloads.presentation_text(rng, count, relators)))
        for name, count, relators in workloads.H3_PRESENTATIONS]


def cover_basis_size(pres, k):
    rank = pres.rank + len(pres.relators)
    return sum(witt_number(rank, w) for w in range(1, k + 1))


SPLIT_KERNEL_CASES = (
    [(name, NilPresentation(gens, rels, nclass))
     for name, _, gens, rels, nclass in PRESENTED]
    + bench_h3_presentations(7))


class TestSplitKernel:
    @pytest.mark.parametrize("name,pres", SPLIT_KERNEL_CASES,
                             ids=[name for name, _ in SPLIT_KERNEL_CASES])
    def test_matches_the_twisted_closure(self, name, pres):
        for k in range(pres.nclass + 1, pres.nclass + 4):
            if cover_basis_size(pres, k) > MAX_BASIS:
                continue
            K1 = build_presentation_cube(pres, 2, k).kernels[1]
            assert K1.seq == reference_twisted_kernel(pres, k).seq, k

    def test_matches_the_twisted_closure_at_class_five(self):
        # D4 reaches class 5 above, as class c + 3
        pres = pres_q8_pruned()
        K1 = build_presentation_cube(pres, 2, 5).kernels[1]
        assert K1.seq == reference_twisted_kernel(pres, 5).seq

    @pytest.mark.parametrize("name", ["Z2xZ2", "Z3xZ3", "D4"])
    def test_untwisted_kernel_is_the_letter_span(self, name):
        pres = checks.presentation_for(name)
        k = pres.nclass + 2
        _, pi0, _, section = twisted_maps(pres, k)
        K0 = build_presentation_cube(pres, 2, k).kernels[0]
        assert pc.split_kernel(pi0, section).seq == K0.seq

    def test_section_must_be_undone_on_the_generators(self):
        Q, _, pi1, section = twisted_maps(pres_v4(), 3)
        F = section.src
        swapped = NilHom(F, Q, [Q.generator(1), Q.generator(0)])
        with pytest.raises(ValidationError, match="undo the section"):
            pc.split_kernel(pi1, swapped)

    def test_ambients_must_share_the_class(self):
        Q, _, _, _ = twisted_maps(pres_v4(), 3)
        F = free_nil_group(2, 2)
        gens = [F.generator(0), F.generator(1)]
        pi = NilHom(Q, F, gens + [F.identity()] * 3)
        section = NilHom(F, Q, [Q.generator(0), Q.generator(1)])
        with pytest.raises(ValidationError, match="different class"):
            pc.split_kernel(pi, section)

    def test_section_must_land_in_the_domain(self):
        _, _, pi1, _ = twisted_maps(pres_v4(), 3)
        F = pi1.dst
        other = free_nil_group(4, 3)
        section = NilHom(F, other, [other.generator(0), other.generator(1)])
        with pytest.raises(ValidationError, match="codomain to the domain"):
            pc.split_kernel(pi1, section)


def count_multiplies(monkeypatch, fn):
    """fn() and the number of FreeNilGroup.multiply calls it made."""
    calls = [0]
    multiply = FreeNilGroup.multiply

    def counted(F, u, v):
        calls[0] += 1
        return multiply(F, u, v)

    monkeypatch.setattr(FreeNilGroup, "multiply", counted)
    try:
        return fn(), calls[0]
    finally:
        monkeypatch.setattr(FreeNilGroup, "multiply", multiply)


class TestSplitKernelWork:
    def test_cube_build_makes_two_thirds_of_the_closure_products(
            self, monkeypatch):
        # warm groups: every tail the two routes use is derived first
        pres = pres_v4()
        build_presentation_cube(pres, 2, 4)
        reference_twisted_kernel(pres, 4)
        cube, new = count_multiplies(
            monkeypatch, lambda: build_presentation_cube(pres, 2, 4))
        ref, old = count_multiplies(
            monkeypatch, lambda: reference_twisted_kernel(pres, 4))
        assert cube.kernels[1].seq == ref.seq
        assert 3 * new <= 2 * old, (new, old)

    def test_top_layer_makes_no_product(self, monkeypatch):
        # at class 1 every layer is the top one: the only products are
        # those of checking that pi undoes the section on the generators
        _, _, pi1, section = twisted_maps(pres_v4(), 1)
        _, check = count_multiplies(monkeypatch, lambda: [
            pi1.apply(y) for y in section.images])
        K, calls = count_multiplies(
            monkeypatch, lambda: pc.split_kernel(pi1, section))
        assert calls == check
        assert len(K.seq) == 3

    def test_no_top_weight_word_is_mapped(self, monkeypatch):
        # the corrections g s(pi(g))^-1 stop below the top weight
        Q, _, pi1, section = twisted_maps(pres_v4(), 4)
        mapped = []
        apply = NilHom.apply

        def recording(hom, u):
            if hom.src is Q and not u.is_identity():
                mapped.append(Q.weights[u.leading()[0]])
            return apply(hom, u)

        monkeypatch.setattr(NilHom, "apply", recording)
        K = pc.split_kernel(pi1, section)
        assert mapped and max(mapped) == 3
        assert sum(w == 4 for w in K.leading_weights()) == 147


class TestDenominator:
    # cubes built at classes 3 and 4: those hopf_pi_n evaluates at
    # working classes 2 and 3 for these class-1 presentations
    @pytest.mark.parametrize("name", ["Z2xZ2", "Z2xZ4", "Z3xZ3"])
    @pytest.mark.parametrize("k", [3, 4])
    def test_one_closure_matches_three(self, name, k):
        cube = build_presentation_cube(checks.presentation_for(name), 2, k)
        ref = reference_denominator(cube)
        assert one_closure_denominator(cube) == ref
        assert evaluate_cube(cube)[2] == subgroup_info(ref)

    def test_class_two_cube_reaches_the_cross_term(self):
        # Q8 gives Z/4 at working class 3 and its H3 = Z/8 from class 4
        p = pres_q8_pruned()
        for k, order in ((3, 4), (4, 8)):
            cube = build_presentation_cube(p, 2, k + 1)
            value, _, den = evaluate_cube(cube, k=k)
            assert value == FgAbelianGroup(0, [order])
            ref = reference_denominator(cube)
            assert one_closure_denominator(cube) == ref
            low = free_nil_group(cube.ambient.rank, k)
            assert den == subgroup_info(pc.shadow(ref, low))


# (name, class the cube is built at, working class)
WORKING_CLASS_CASES = [
    (name, b, k) for name in ("Z2xZ2", "Z2xZ4", "Z3xZ3")
    for b, k in ((3, 2), (4, 3), (4, 2))] + [("Q8", 4, 3)]


class TestWorkingClassRoute:
    @pytest.mark.parametrize("name,b,k", WORKING_CLASS_CASES)
    def test_matches_the_route_through_the_cube_class(self, name, b, k,
                                                      monkeypatch):
        pres = pres_q8_pruned() if name == "Q8" else \
            checks.presentation_for(name)
        cube = build_presentation_cube(pres, 2, b)
        formed = []

        def recording_quotient(N, D):
            formed.append((N, D))
            return pc.abelian_quotient(N, D)

        monkeypatch.setattr(hopf, "abelian_quotient", recording_quotient)
        for primes in (None, PrimeSet([2]), PrimeSet([3])):
            value, num, den = evaluate_cube(cube, primes, k)
            ref_value, ref_n, ref_d = reference_evaluate_cube(cube, primes, k)
            N, D = formed.pop()
            assert value == ref_value, primes
            assert N.seq == ref_n.seq and D.seq == ref_d.seq, primes
            assert (num, den) == (subgroup_info(N), subgroup_info(D))

    def test_closures_are_formed_at_the_working_class(self, monkeypatch):
        cube = build_presentation_cube(checks.presentation_for("Z2xZ4"), 2, 4)
        classes = {}

        def recording(name, fn):
            def wrapper(F, *args):
                classes.setdefault(name, set()).add(F.nclass)
                return fn(F, *args)
            return wrapper

        monkeypatch.setattr(hopf, "commutator_subgroup", recording(
            "commutator_subgroup", pc.commutator_subgroup))
        monkeypatch.setattr(pc, "normal_closure", recording(
            "normal_closure", pc.normal_closure))
        monkeypatch.setattr(pc, "_fill", recording("fill", pc._fill))
        evaluate_cube(cube, PrimeSet([2]), k=3)
        assert classes["commutator_subgroup"] == {3}
        assert classes["normal_closure"] == {3}
        # every closure, the meet's included, stays below the cube's class
        assert max(classes["fill"]) == 3


class TestSharedGroups:
    def test_one_group_per_rank_and_class(self):
        p = pres_v4()
        assert p.ambient(3)[0] is free_nil_group(2, 3)
        # the pullback cover has one generator per generator and relator
        cube = build_presentation_cube(p, 2, 3)
        assert cube.ambient is free_nil_group(5, 3)
        assert free_nil_group(2, 4).truncated() is free_nil_group(2, 3)
        assert FreeNilGroup(2, 4).truncated() is free_nil_group(2, 3)
        assert FreeNilGroup(2, 3) is not free_nil_group(2, 3)

    def test_shadowed_cube_values_match_stabilization(self):
        p = pres_cyclic(4)
        r = hopf_pi_n(p, n=2)
        assert r.provenance["classes"] == [2, 3]
        at2, at3 = (evaluate_cube(build_presentation_cube(p, 2, k + 1), k=k)
                    for k in (2, 3))
        assert at2 == (r.value, r.numerator, r.denominator)
        assert at3[0] == r.value


class TestFirstHomology:
    def test_matches_bar_h1_on_the_presented_corpus(self):
        for name, build, gens, rels, nclass in PRESENTED:
            pres = NilPresentation(gens, rels, nclass)
            bar = homology(build(), 1)
            for primes in ((), (2,), (3,)):
                got = hopf_pi_n(pres, 0, primes).value
                assert got == bar.quotient_by_torsion(PrimeSet(primes)), \
                    (name, primes)

    def test_result_shape(self):
        r = hopf_pi_n(pres_d4(), 0)
        assert r.value.factors == (2, 2)
        assert r.stabilization == "NONE"
        assert r.working_class == 3
        assert r.provenance["classes"] == [3]
        assert r.numerator is None and r.denominator is None

    def test_degree_outside_range_is_rejected(self):
        for n in (-1, 3):
            with pytest.raises(ValidationError):
                hopf_pi_n(pres_v4(), n)


class TestSecondHomology:
    def test_cyclic_groups_have_trivial_multiplier(self):
        for n in range(2, 17):
            assert hopf_pi_n(pres_cyclic(n), 1).value.factors == ()

    def test_klein_four(self):
        r = hopf_pi_n(pres_v4(), 1)
        assert r.value.factors == (2,)
        assert r.stabilization == "NONE"
        assert r.working_class == 2

    def test_product_of_cyclics_gives_gcd(self):
        for a, b in [(2, 2), (2, 4), (3, 6), (4, 6)]:
            p = NilPresentation(["x", "y"],
                                ["x^%d" % a, "y^%d" % b, "[x,y]"], 1)
            want = () if math.gcd(a, b) == 1 else (math.gcd(a, b),)
            assert hopf_pi_n(p, 1).value.factors == want

    def test_dihedral_and_quaternion(self):
        assert hopf_pi_n(pres_d4(), 1).value.factors == (2,)
        assert hopf_pi_n(pres_q8(), 1).value.factors == ()

    def test_matches_bar_oracle(self):
        pairs = [(pres_v4(), klein4()),
                 (pres_cyclic(6), cyclic(6)),
                 (NilPresentation(["x", "y"], ["x^3", "y^3", "[x,y]"], 1),
                  abelian([3, 3]))]
        for pres, G in pairs:
            assert hopf_pi_n(pres, 1).value == homology(G, 2)

    def test_presentation_independence(self):
        # the same group through three different presentations
        two_gen = pres_v4()
        padded = NilPresentation(["x", "y"],
                                 ["x^2", "y^2", "[x,y]", "[y,x]"], 1)
        three_gen = NilPresentation(["x", "y", "z"],
                                    ["x^2", "y^2", "[x,y]", "zxy"], 1)
        want = hopf_pi_n(two_gen, 1).value
        assert hopf_pi_n(padded, 1).value == want
        assert hopf_pi_n(three_gen, 1).value == want


class TestLocalizedSecondHomology:
    def test_klein_four_at_each_prime(self):
        p = pres_v4()
        assert hopf_pi_n(p, n=1, primes=[2]).value.factors == ()
        assert hopf_pi_n(p, n=1, primes=[3]).value.factors == (2,)
        assert hopf_pi_n(p, n=1, primes=[2, 3]).value.factors == ()
        assert hopf_pi_n(p, n=1, primes=[]).value.factors == (2,)

    def test_mixed_torsion_splits_by_prime(self):
        p = NilPresentation(["x", "y"], ["x^6", "y^6", "[x,y]"], 1)
        assert hopf_pi_n(p, 1).value.factors == (6,)
        assert hopf_pi_n(p, n=1, primes=[2]).value.factors == (3,)
        assert hopf_pi_n(p, n=1, primes=[3]).value.factors == (2,)
        assert hopf_pi_n(p, n=1, primes=[5]).value.factors == (6,)
        assert hopf_pi_n(p, n=1, primes=[2, 3]).value.factors == ()

    def test_prime_set_inputs_are_normalized(self):
        p = pres_v4()
        a = hopf_pi_n(p, n=1, primes=[2, 2, 2])
        b = hopf_pi_n(p, n=1, primes=[2])
        assert a.value == b.value
        assert a.provenance == b.provenance


class TestHigherDegree:
    def test_cyclic_degree_three(self):
        for n in (2, 3, 4):
            r = hopf_pi_n(pres_cyclic(n), n=2)
            assert r.stabilization == "STABLE"
            assert r.value.factors == (n,)
            assert r.value == homology(cyclic(n), 3)

    def test_klein_four_degree_three(self):
        r = hopf_pi_n(pres_v4(), n=2)
        assert r.stabilization == "STABLE"
        assert r.value.factors == (2, 2, 2)
        assert r.provenance["classes"] == [2, 3]
        assert r.value == homology(klein4(), 3)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: consecutive working classes agree on a wrong "
        "value; a one-class-deep shadow leaves D4's numerator too big"))
    def test_dihedral_degree_three_is_right_or_unstable(self):
        r = hopf_pi_n(checks.presentation_for("D4"), 2, max_class=5)
        assert r.stabilization == "UNSTABLE" or \
            r.value == homology(named_group("D4"), 3)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: STABLE Z/2+Z/2+Z/4+Z/4 at max_class=5, where the "
        "bar oracle gives Z/2+Z/4+Z/4"))
    def test_z4_by_z4_degree_three_is_right_or_unstable(self):
        # Z4 x| Z4 = <a, b | a^4, b^4, a^b = a^-1>: a^i b^j is 4i + j
        table = [[4 * ((i + (-1) ** j * k) % 4) + (j + m) % 4
                  for k in range(4) for m in range(4)]
                 for i in range(4) for j in range(4)]
        p = NilPresentation(["a", "b"], ["a^4", "b^4", "[a,b]a^2"], 2)
        r = hopf_pi_n(p, 2, max_class=5)
        assert r.stabilization == "UNSTABLE" or \
            r.value == homology(FiniteGroup(table), 3, max_order=16)

    def test_class_budget_is_validated(self):
        with pytest.raises(ValidationError):
            hopf_pi_n(pres_cyclic(2), n=2, max_class=3)

    def test_rank_cap_propagates_when_nothing_ran(self):
        with pytest.raises(SizeLimitError):
            hopf_pi_n(pres_z2_cubed(), n=2)

    def test_unstable_results_carry_no_value(self):
        r = HopfResult(None, None, None, 4, "UNSTABLE", {})
        assert r.to_json()["value"] is None
        stable = hopf_pi_n(pres_cyclic(2), n=2)
        assert stable.stabilization == "STABLE"
        assert stable.value is not None


class TestResultShape:
    def test_json_round_trip_fields(self):
        r = hopf_pi_n(pres_v4(), 1)
        blob = json.loads(json.dumps(r.to_json()))
        assert blob["stabilization"] == "NONE"
        assert blob["working_class"] == 2
        assert FgAbelianGroup(**blob["value"]) == r.value
        assert blob["provenance"]["input"] == pres_v4().input_digest()

    def test_provenance_is_reproducible(self):
        a = hopf_pi_n(pres_cyclic(3), n=2)
        b = hopf_pi_n(pres_cyclic(3), n=2)
        assert json.dumps(a.to_json(), sort_keys=True) == \
            json.dumps(b.to_json(), sort_keys=True)
