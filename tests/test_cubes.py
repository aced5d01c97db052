import itertools
import random

import pytest

from hopfgal import cubes as cb
from hopfgal.checks import _normal_subgroups as normal_subgroups
from hopfgal.checks import check_cube_laws
from hopfgal.corpus import cyclic, dihedral, klein4, quaternion8, symmetric
from hopfgal.errors import SizeLimitError, ValidationError
from hopfgal.groups import GroupHom, identity_hom, inner_automorphism


def reference_is_double_extension(f1, f0, a, b):
    """Extension test for the square with top maps f1, f0 and bottom a, b.

    f1: A -> B, f0: A -> C, a: B -> D, b: C -> D.  Raises ValidationError
    if the square does not commute; otherwise True iff all four maps are
    surjective and <f1, f0> covers the pullback of a and b.  A reference
    route for is_n_extension on squares.
    """
    A = f1.domain
    for g in A.elements():
        if a(f1(g)) != b(f0(g)):
            raise ValidationError("square does not commute")
    if not (f1.is_surjective() and f0.is_surjective()
            and a.is_surjective() and b.is_surjective()):
        return False
    seen = {(f1(g), f0(g)) for g in A.elements()}
    fiber = sum(1 for x in a.domain.elements() for y in b.domain.elements()
                if a(x) == b(y))
    return len(seen) == fiber


def square(f1, f0, a, b):
    """The 2-cube with top maps f1 (direction 0) and f0 (direction 1)."""
    return cb.CubeExtension(
        2, {3: f1.domain, 1: f1.codomain, 2: f0.codomain, 0: a.codomain},
        {(3, 1): f1, (3, 2): f0, (1, 0): a, (2, 0): b})


def some_cubes(rng, dimension, count):
    pool = [cyclic(4), cyclic(6), klein4(), dihedral(3), dihedral(4),
            quaternion8()]
    cubes = []
    while len(cubes) < count:
        G = rng.choice(pool)
        normals = normal_subgroups(G)
        picks = [rng.choice(normals) for _ in range(dimension)]
        cubes.append(cb.cube_from_normal_subgroups(G, picks))
    return cubes


class TestConstruction:
    def test_quotient_cubes_are_extensions(self):
        D4 = dihedral(4)
        Z = D4.center()
        R = D4.generated_subgroup([1])
        square = cb.cube_from_normal_subgroups(D4, [Z, R])
        assert cb.is_n_extension(square)
        cube = cb.cube_from_normal_subgroups(D4, [Z, Z, R])
        assert cb.is_n_extension(cube)

    def test_three_order_two_subgroups_of_klein_four(self):
        V4 = klein4()
        picks = [V4.generated_subgroup([g]) for g in (1, 2, 3)]
        cube = cb.cube_from_normal_subgroups(V4, picks)
        assert not cb.is_n_extension(cube)

    @pytest.mark.parametrize("seed", [1282413051, 1268243019])
    def test_cube_suite_skips_non_extensions(self, seed):
        # these seeds draw a non-extension triple of normal subgroups
        report = check_cube_laws(seed=seed)
        assert report.ok and report.cases >= 200

    def test_one_cube_requires_surjection(self):
        Z4, Z2 = cyclic(4), cyclic(2)
        f = GroupHom(Z4, Z2, [0, 1, 0, 1])
        assert cb.is_n_extension(cb.CubeExtension(1, {1: Z4, 0: Z2},
                                                  {(1, 0): f}))
        assert not cb.is_n_extension(cb.CubeExtension(
            1, {1: Z2, 0: Z4}, {(1, 0): GroupHom(Z2, Z4, [0, 2])}))

    def test_missing_face_rejected(self):
        Z2 = cyclic(2)
        with pytest.raises(ValidationError):
            cb.CubeExtension(1, {1: Z2, 0: Z2}, {})

    def test_non_commuting_square_rejected(self):
        V = klein4()
        Z2 = cyclic(2)
        one = cyclic(1)
        p0 = GroupHom(V, Z2, [0, 1, 0, 1])
        p1 = GroupHom(V, Z2, [0, 0, 1, 1])
        to1 = GroupHom(Z2, one, [0, 0])
        # same projection on both top faces but swapped bottoms cannot
        # fail; force a failure with mismatched identifications instead
        swap = GroupHom(Z2, Z2, [0, 1])
        with pytest.raises(ValidationError):
            cb.CubeExtension(
                2, {3: V, 1: Z2, 2: Z2, 0: Z2},
                {(3, 1): p0, (3, 2): p1, (1, 0): swap, (2, 0): swap})
        # sanity: the honest completion commutes and is an extension
        assert cb.is_n_extension(cb.CubeExtension(
            2, {3: V, 1: Z2, 2: Z2, 0: one},
            {(3, 1): p0, (3, 2): p1, (1, 0): to1, (2, 0): to1}))

    def test_dimension_cap(self):
        Z2 = cyclic(2)
        with pytest.raises(SizeLimitError):
            cb.cube_from_normal_subgroups(
                Z2, [Z2.trivial_subgroup()] * 4)

    def test_iota_is_extension(self):
        # G at the top subset and trivial groups elsewhere
        Q8 = quaternion8()
        for n in (1, 2, 3):
            cube = cb.cube_from_normal_subgroups(Q8, [Q8.full_subgroup()] * n)
            assert cb.is_n_extension(cube)
            assert cube.top().order == 8
            assert all(cube.objects[mask].order == 1
                       for mask in range((1 << n) - 1))


class TestExtensionProperty:
    def test_punctured_limit_of_klein_square(self):
        V = klein4()
        square = cb.cube_from_normal_subgroups(
            V, [V.generated_subgroup([1]), V.generated_subgroup([2])])
        members, mapping = cb.punctured_limit(square, 3)
        # V4 / <1> and V4 / <2> over the trivial group: Z2 x Z2
        assert members == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert sorted(mapping) == [0, 1, 2, 3]

    def test_diagonal_square_is_not_an_extension(self):
        Z2 = cyclic(2)
        one = cyclic(1)
        ident = identity_hom(Z2)
        to1 = GroupHom(Z2, one, [0, 0])
        assert not cb.is_n_extension(square(ident, ident, to1, to1))

    def test_double_extension_function_matches_cube_route(self):
        rng = random.Random(420)
        for G in (cyclic(4), cyclic(8), klein4(), dihedral(3), dihedral(4),
                  quaternion8()):
            for M in normal_subgroups(G):
                for N in normal_subgroups(G):
                    cube = cb.cube_from_normal_subgroups(G, [M, N])
                    f1 = cube.faces[(3, 1)]
                    f0 = cube.faces[(3, 2)]
                    a = cube.faces[(1, 0)]
                    b = cube.faces[(2, 0)]
                    assert reference_is_double_extension(f1, f0, a, b)
                    assert cb.is_n_extension(cube)

    def test_double_extension_negative_matches_cube_route(self):
        for G in (cyclic(2), cyclic(4), klein4()):
            one = cyclic(1)
            ident = identity_hom(G)
            to1 = GroupHom(G, one, [0] * G.order)
            diagonal = square(ident, ident, to1, to1)
            assert reference_is_double_extension(
                ident, ident, to1, to1) is False
            assert cb.is_n_extension(diagonal) is False

    def test_non_commuting_input_raises(self):
        V = klein4()
        Z2 = cyclic(2)
        p0 = GroupHom(V, Z2, [0, 1, 0, 1])
        p1 = GroupHom(V, Z2, [0, 0, 1, 1])
        ident = identity_hom(Z2)
        with pytest.raises(ValidationError):
            reference_is_double_extension(p0, p1, ident, ident)


class TestFaceCalculus:
    def test_delta_roundtrip(self):
        rng = random.Random(421)
        for cube in some_cubes(rng, 2, 6) + some_cubes(rng, 3, 6):
            for i in range(cube.n):
                assert cb.delta_inverse(cb.delta_i(cube, i), i) == cube

    def test_interchange(self):
        rng = random.Random(422)
        for cube in some_cubes(rng, 3, 8):
            for i in range(3):
                for j in range(i + 1, 3):
                    assert cb.interchange_holds(cube, i, j)

    def test_delta_squares_commute(self):
        rng = random.Random(423)
        for cube in some_cubes(rng, 2, 5) + some_cubes(rng, 3, 5):
            for i in range(cube.n):
                for j in range(i + 1, cube.n):
                    assert cb.delta_square_commutes(cube, i, j)

    def test_rho_and_cod_faces(self):
        D4 = dihedral(4)
        cube = cb.cube_from_normal_subgroups(
            D4, [D4.center(), D4.generated_subgroup([1])])
        top = cb.rho_i(cube, 0)
        bottom = cb.cod_face(cube, 0)
        assert top.top() is cube.objects[3]
        assert top.objects[0] is cube.objects[1]
        assert bottom.top() is cube.objects[2]
        assert bottom.objects[0] is cube.objects[0]


class TestKernels:
    def test_joint_kernel_is_kernel_intersection(self):
        rng = random.Random(424)
        for cube in some_cubes(rng, 2, 6):
            K = cb.joint_kernel(cube)
            f1 = cube.faces[(3, 1)]
            f0 = cube.faces[(3, 2)]
            expected = sorted(g for g in cube.top().elements()
                              if f1(g) == 0 and f0(g) == 0)
            assert sorted(K.members) == expected

    def test_kernel_recursion_identities(self):
        rng = random.Random(425)
        full3 = (1 << 3) - 1
        for cube in some_cubes(rng, 3, 6):
            K = sorted(cb.joint_kernel(cube).members)
            for i in range(3):
                kcube, incl = cb.kernel_of_morphism(cb.delta_i(cube, i))
                inner = cb.joint_kernel(kcube)
                via_delta = sorted(incl[3](k) for k in inner.members)
                rho = cb.rho_i(cube, i)
                ai = cube.faces[(full3, full3 & ~(1 << i))]
                via_rho = sorted(g for g in cb.joint_kernel(rho).members
                                 if ai(g) == 0)
                assert via_delta == K == via_rho


class TestDerivedCubes:
    """Faces, reindexings, quotient cubes and kernel cubes are built
    without the constructor's checks; each must pass them."""

    @staticmethod
    def rebuilt(cube):
        return cb.CubeExtension(cube.n, cube.objects, cube.faces)

    def test_derived_cubes_pass_the_constructor(self):
        checked = 0
        for G in (cyclic(4), cyclic(6), klein4(), dihedral(3), dihedral(4),
                  quaternion8()):
            normals = normal_subgroups(G)
            for n in (1, 2, 3):
                for picks in itertools.combinations_with_replacement(
                        normals, n):
                    cube = cb.cube_from_normal_subgroups(G, list(picks))
                    assert self.rebuilt(cube) == cube
                    checked += 1
                    for i in range(n if n > 1 else 0):
                        for face in (cb.rho_i(cube, i),
                                     cb.cod_face(cube, i)):
                            assert self.rebuilt(face) == face
                        view = cb.delta_i(cube, i)
                        kcube, _ = cb.kernel_of_morphism(view)
                        assert self.rebuilt(kcube) == kcube
                        assert cb.delta_inverse(view, i) == cube
        assert checked == 293

    def test_non_natural_component_is_rejected(self):
        D3 = dihedral(3)
        cube = cb.cube_from_normal_subgroups(
            D3, [D3.trivial_subgroup()] * 2)
        dom, cod, comps = cb.delta_i(cube, 0)
        # conjugation by a reflection moves the rotations, so the
        # naturality square at the top subset no longer commutes
        twist = inner_automorphism(cod.objects[0], 3)
        assert twist.mapping != identity_hom(cod.objects[0]).mapping
        bad = dict(comps)
        bad[0] = comps[0].then(twist)
        with pytest.raises(ValidationError):
            cb.delta_inverse((dom, cod, bad), 0)
        assert cb.delta_inverse((dom, cod, comps), 0) == cube
