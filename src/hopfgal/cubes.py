"""Cubes of finite groups: n-fold extensions and their face calculus.

An n-cube assigns a finite group to every subset of {0..n-1} (subsets are
bitmasks) and a homomorphism to every covering pair, with all squares
commuting.  It is an n-fold extension when, for every nonempty subset I,
the comparison map into the limit of the punctured cube below I is
surjective; `is_n_extension` asks that, and no constructor does.

A morphism of cubes is plain data, the triple (domain cube, codomain
cube, {subset: component}).  `delta_i` returns the arrow view of an
n-cube along direction i as such a triple, and `delta_inverse` turns one
back into a cube through the checking constructor.

Only materialized finite groups live here; presentation-sized objects are
handled upstream by the evaluator, which never builds their cubes.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import prod

from .errors import SizeLimitError, ValidationError
from .groups import GroupHom, identity_hom

MAX_CUBE_DIMENSION = 3
_MAX_LIMIT_ENUM = 200_000


@cache
def _edges(n):
    """Every covering pair (T, S) of the n-cube: S is T minus one bit."""
    return tuple((t, t & ~(1 << i)) for t in range(1 << n)
                 for i in range(n) if t >> i & 1)


def _expand(mask, dirs):
    """Reindex a bitmask over positions into one over the listed directions."""
    out = 0
    for k, d in enumerate(dirs):
        if mask >> k & 1:
            out |= 1 << d
    return out


def _check_dimension(n):
    if n > MAX_CUBE_DIMENSION:
        raise SizeLimitError("cube dimension capped at %d"
                             % MAX_CUBE_DIMENSION)


class CubeExtension:
    """An n-cube of finite groups with commuting faces.

    `objects` maps every bitmask 0..2^n-1 to a group, `faces` maps every
    covering pair (T, S) with S = T minus one bit to a homomorphism
    object(T) -> object(S).  The constructor checks the dimension, that
    every object and face is there with the right endpoints, and that
    every square commutes.
    """

    def __init__(self, n, objects, faces):
        if n < 1:
            raise ValidationError("cube dimension must be at least 1")
        _check_dimension(n)
        objects, faces = dict(objects), dict(faces)
        for mask in range(1 << n):
            if mask not in objects:
                raise ValidationError("missing object for subset %d" % mask)
        for t, s in _edges(n):
            f = faces.get((t, s))
            if f is None:
                raise ValidationError("missing face %d -> %d" % (t, s))
            if f.domain is not objects[t] or f.codomain is not objects[s]:
                raise ValidationError(
                    "face %d -> %d has wrong endpoints" % (t, s))
        for t in range(1 << n):
            bits = [i for i in range(n) if t >> i & 1]
            for i, j in itertools.combinations(bits, 2):
                ti, tj = t & ~(1 << i), t & ~(1 << j)
                s = ti & ~(1 << j)
                via_i = faces[(t, ti)].then(faces[(ti, s)])
                via_j = faces[(t, tj)].then(faces[(tj, s)])
                if via_i.mapping != via_j.mapping:
                    raise ValidationError(
                        "faces of subset %d do not commute" % t)
        self.n, self.objects, self.faces, self._homs = n, objects, faces, {}

    @classmethod
    def _unchecked(cls, n, objects, faces):
        """Build from complete objects and faces whose squares are known
        to commute; nothing is checked."""
        cube = cls.__new__(cls)
        cube.n, cube.objects, cube.faces, cube._homs = n, objects, faces, {}
        return cube

    def hom(self, t, s):
        """The composite homomorphism object(t) -> object(s), s subset t."""
        if s & ~t:
            raise ValidationError("%d is not a subset of %d" % (s, t))
        if t == s:
            return identity_hom(self.objects[t])
        key = (t, s)
        f = self._homs.get(key)
        if f is None:
            diff = t & ~s
            i = (diff & -diff).bit_length() - 1
            mid = t & ~(1 << i)
            f = self.faces[(t, mid)].then(self.hom(mid, s))
            self._homs[key] = f
        return f

    def top(self):
        return self.objects[(1 << self.n) - 1]

    def __eq__(self, other):
        """Same objects, by identity, and faces with the same mappings."""
        return (isinstance(other, CubeExtension) and self.n == other.n
                and self.objects == other.objects
                and self.faces == other.faces)


# ---- punctured limits and the extension property -------------------------

def punctured_limit(cube, mask):
    """Limit of the cube strictly below `mask`, with the comparison map.

    Returns (member tuples, comparison mapping of object(mask) into
    their indices).  Members are tuples indexed by the coatoms of `mask`
    in increasing bitmask order, compatible over every pairwise meet.
    """
    if mask == 0:
        raise ValidationError("the empty subset has no punctured limit")
    coatoms = sorted(mask & ~(1 << i) for i in range(cube.n)
                     if mask >> i & 1)
    groups = [cube.objects[c] for c in coatoms]
    if prod(g.order for g in groups) > _MAX_LIMIT_ENUM:
        raise SizeLimitError("punctured limit enumeration too large")
    pair_maps = []
    for a in range(len(coatoms)):
        for b in range(a + 1, len(coatoms)):
            meet = coatoms[a] & coatoms[b]
            pair_maps.append((a, b, cube.hom(coatoms[a], meet),
                              cube.hom(coatoms[b], meet)))
    members = [tup for tup in itertools.product(*(g.elements()
                                                  for g in groups))
               if all(fa(tup[a]) == fb(tup[b]) for a, b, fa, fb in pair_maps)]
    index = {tup: k for k, tup in enumerate(members)}
    comps = [cube.hom(mask, c) for c in coatoms]
    mapping = [index[tuple(f(g) for f in comps)]
               for g in cube.objects[mask].elements()]
    return members, mapping


def is_n_extension(cube):
    """Every comparison map into a punctured limit is surjective."""
    for mask in range(1, 1 << cube.n):
        members, mapping = punctured_limit(cube, mask)
        if len(set(mapping)) != len(members):
            return False
    return True


# ---- building cubes -------------------------------------------------------

def cube_from_normal_subgroups(G, normals):
    """The n-cube S |-> G / (product of N_i over i not in S).

    The face T -> S sends gN_T to gN_S, for N_T the product at T, which
    lies in N_S.  Both routes round a square send gN_T to the same coset,
    so the squares commute and the cube is built unchecked.  It need not
    be an n-fold extension once n >= 3: three distinct order-2 subgroups
    of V4 give one whose comparison maps are not all surjective.
    """
    n = len(normals)
    if n < 1:
        raise ValidationError("need at least one normal subgroup")
    _check_dimension(n)
    for N in normals:
        if N.ambient is not G or not N.is_normal():
            raise ValidationError("each subgroup must be normal in G")
    objects, projections = {}, {}
    for mask in range(1 << n):
        N = G.trivial_subgroup()
        for i in range(n):
            if not mask >> i & 1:
                N = N.product_with(normals[i])
        objects[mask], projections[mask] = G.quotient(N)
    faces = {}
    for t, s in _edges(n):
        mapping = [0] * objects[t].order
        for g in G.elements():
            mapping[projections[t](g)] = projections[s](g)
        faces[(t, s)] = GroupHom(objects[t], objects[s], mapping,
                                 validate=False)  # ints
    return CubeExtension._unchecked(n, objects, faces)


# ---- face calculus --------------------------------------------------------

def _face(cube, i, fixed):
    """The subsets `fixed` plus any of the directions other than i, as an
    (n-1)-cube over their positions.  Its objects, faces and squares are
    the cube's own, so it is built unchecked."""
    if cube.n < 2:
        raise ValidationError("need dimension at least 2")
    dirs = [d for d in range(cube.n) if d != i]
    objects = {m: cube.objects[_expand(m, dirs) | fixed]
               for m in range(1 << len(dirs))}
    faces = {(t, s): cube.faces[(_expand(t, dirs) | fixed,
                                 _expand(s, dirs) | fixed)]
             for t, s in _edges(len(dirs))}
    return CubeExtension._unchecked(len(dirs), objects, faces)


def rho_i(cube, i):
    """The domain face: subsets containing direction i, reindexed."""
    return _face(cube, i, 1 << i)


def cod_face(cube, i):
    """The codomain face: subsets avoiding direction i, reindexed."""
    return _face(cube, i, 0)


def delta_i(cube, i):
    """View the n-cube as a morphism of (n-1)-cubes along direction i:
    the triple (rho_i, cod_face, {S: the face S+{i} -> S})."""
    dom, cod = rho_i(cube, i), cod_face(cube, i)
    dirs = [d for d in range(cube.n) if d != i]
    bases = [_expand(m, dirs) for m in range(1 << dom.n)]
    return dom, cod, {m: cube.faces[(base | (1 << i), base)]
                      for m, base in enumerate(bases)}


def delta_inverse(morphism, i):
    """Reassemble the n-cube whose direction-i arrow view is `morphism`.

    The constructor checks it, so a component with the wrong endpoints,
    or one whose naturality square does not commute, raises.
    """
    dom, cod, comps = morphism
    if dom.n != cod.n:
        raise ValidationError("dimension mismatch")
    n = dom.n + 1
    if not 0 <= i < n:
        raise ValidationError("direction out of range")
    dirs = [d for d in range(n) if d != i]
    objects, faces = {}, {}
    for mask in range(1 << dom.n):
        base = _expand(mask, dirs)
        objects[base | (1 << i)] = dom.objects[mask]
        objects[base] = cod.objects[mask]
        faces[(base | (1 << i), base)] = comps.get(mask)
    for t, s in _edges(dom.n):
        et, es = _expand(t, dirs), _expand(s, dirs)
        faces[(et | (1 << i), es | (1 << i))] = dom.faces[(t, s)]
        faces[(et, es)] = cod.faces[(t, s)]
    return CubeExtension(n, objects, faces)


def interchange_holds(cube, i, j):
    """delta_{j-1} of the i-th domain face against delta_j restricted to
    the subsets containing i.

    For i < j the two (n-2)-cube morphisms must coincide.
    """
    if not i < j:
        raise ValidationError("need i < j")
    dom, cod, comps = delta_i(cube, j)
    dirs = [d for d in range(dom.n) if d != i]
    right = (rho_i(dom, i), rho_i(cod, i),
             {m: comps[_expand(m, dirs) | (1 << i)]
              for m in range(1 << len(dirs))})
    return delta_i(rho_i(cube, i), j - 1) == right


def delta_square_commutes(cube, i, j):
    """Both double-face routes from S+{i,j} down to S agree everywhere."""
    if not i < j:
        raise ValidationError("need i < j")
    dirs = [d for d in range(cube.n) if d not in (i, j)]
    bi, bj = 1 << i, 1 << j
    for mask in range(1 << len(dirs)):
        base = _expand(mask, dirs)
        via_i = cube.hom(base | bi | bj, base | bj).then(
            cube.hom(base | bj, base))
        via_j = cube.hom(base | bi | bj, base | bi).then(
            cube.hom(base | bi, base))
        if via_i.mapping != via_j.mapping:
            return False
    return True


# ---- kernels --------------------------------------------------------------

def joint_kernel(cube):
    """The intersection of the top face kernels, inside the top object."""
    full = (1 << cube.n) - 1
    K = cube.top().full_subgroup()
    for i in range(cube.n):
        K = K.intersection(cube.faces[(full, full & ~(1 << i))].kernel())
    return K


def kernel_of_morphism(morphism):
    """Levelwise kernels of a cube morphism, as a cube plus embeddings.

    The morphism is an arrow view, as `delta_i` returns it.  Returns
    (cube, inclusions) where inclusions[mask] sends an element of the
    kernel cube's object to the corresponding element of the domain
    cube's object.  Each face of the kernel cube is a domain face f
    restricted to the kernels: naturality, c_S f = g c_T for the
    codomain face g, sends ker c_T into ker c_S.  Restrictions of
    commuting squares commute, so the cube is built unchecked.
    """
    dom, _, comps = morphism
    objects, inclusions, member_index = {}, {}, {}
    for mask in range(1 << dom.n):
        objects[mask], incl = comps[mask].kernel().as_group()
        inclusions[mask] = incl
        member_index[mask] = {m: k for k, m in enumerate(incl.mapping)}
    faces = {}
    for t, s in _edges(dom.n):
        f, incl = dom.faces[(t, s)].mapping, inclusions[t].mapping
        faces[(t, s)] = GroupHom(objects[t], objects[s],
                                 [member_index[s][f[g]] for g in incl],
                                 validate=False)  # ints
    return CubeExtension._unchecked(dom.n, objects, faces), inclusions
