"""Cubes of finite groups: n-fold extensions and their face calculus.

An n-cube assigns a finite group to every subset of {0..n-1} (subsets are
bitmasks) and a surjection-candidate homomorphism to every covering pair,
with all squares commuting.  It is an n-fold extension when, for every
nonempty subset I, the comparison map into the limit of the punctured
cube below I is surjective.

Only materialized finite groups live here; presentation-sized objects are
handled upstream by the evaluator, which never builds their cubes.
"""

from __future__ import annotations

import itertools

from .errors import SizeLimitError, ValidationError
from .groups import GroupHom, identity_hom

MAX_CUBE_DIMENSION = 3
_MAX_LIMIT_ENUM = 200_000


def _expand(mask, dirs):
    """Reindex a bitmask over positions into one over the listed directions."""
    out = 0
    for k, d in enumerate(dirs):
        if mask >> k & 1:
            out |= 1 << d
    return out


class CubeExtension:
    """An n-cube of finite groups with commuting faces.

    `objects` maps every bitmask 0..2^n-1 to a group, `faces` maps every
    covering pair (T, S) with S = T minus one bit to a homomorphism
    object(T) -> object(S).  Functoriality is always validated; pass
    check_extension=False to build a mere cube (for negative examples).
    """

    def __init__(self, n, objects, faces, check_extension=True):
        if n < 1:
            raise ValidationError("cube dimension must be at least 1")
        if n > MAX_CUBE_DIMENSION:
            raise SizeLimitError("cube dimension capped at %d"
                                 % MAX_CUBE_DIMENSION)
        self.n = n
        self.objects = dict(objects)
        self.faces = dict(faces)
        full = 1 << n
        for mask in range(full):
            if mask not in self.objects:
                raise ValidationError("missing object for subset %d" % mask)
        for t in range(full):
            for i in range(n):
                if t >> i & 1:
                    s = t & ~(1 << i)
                    f = self.faces.get((t, s))
                    if f is None:
                        raise ValidationError(
                            "missing face %d -> %d" % (t, s))
                    if f.domain is not self.objects[t] or \
                            f.codomain is not self.objects[s]:
                        raise ValidationError(
                            "face %d -> %d has wrong endpoints" % (t, s))
        self._homs = {}
        for t in range(full):
            bits = [i for i in range(n) if t >> i & 1]
            for i, j in itertools.combinations(bits, 2):
                ti, tj = t & ~(1 << i), t & ~(1 << j)
                s = ti & ~(1 << j)
                via_i = self.faces[(t, ti)].then(self.faces[(ti, s)])
                via_j = self.faces[(t, tj)].then(self.faces[(tj, s)])
                if via_i.mapping != via_j.mapping:
                    raise ValidationError(
                        "faces of subset %d do not commute" % t)
        if check_extension and not is_n_extension(self):
            raise ValidationError(
                "comparison maps are not all surjective; "
                "build with check_extension=False for a mere cube")

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
        if not isinstance(other, CubeExtension) or self.n != other.n:
            return False
        if any(self.objects[m] is not other.objects[m]
               for m in self.objects):
            return False
        return all(self.faces[k].mapping == other.faces[k].mapping
                   for k in self.faces)

    def __hash__(self):
        return hash((self.n, tuple(sorted((k, f.mapping)
                                          for k, f in self.faces.items()))))


class CubeMorphism:
    """A morphism of (n-1)-cubes: one component per subset, all natural."""

    def __init__(self, dom, cod, components):
        if dom.n != cod.n:
            raise ValidationError("dimension mismatch")
        self.dom = dom
        self.cod = cod
        self.components = dict(components)
        full = 1 << dom.n
        for mask in range(full):
            f = self.components.get(mask)
            if f is None:
                raise ValidationError("missing component %d" % mask)
            if f.domain is not dom.objects[mask] or \
                    f.codomain is not cod.objects[mask]:
                raise ValidationError("component %d has wrong endpoints"
                                      % mask)
        for t in range(full):
            for i in range(dom.n):
                if t >> i & 1:
                    s = t & ~(1 << i)
                    left = dom.faces[(t, s)].then(self.components[s])
                    right = self.components[t].then(cod.faces[(t, s)])
                    if left.mapping != right.mapping:
                        raise ValidationError(
                            "component squares do not commute at %d" % t)

    def __eq__(self, other):
        return (isinstance(other, CubeMorphism) and self.dom == other.dom
                and self.cod == other.cod
                and all(self.components[m].mapping
                        == other.components[m].mapping
                        for m in self.components))

    def __hash__(self):
        return hash((hash(self.dom), hash(self.cod)))


# ---- punctured limits and the extension property -------------------------

def punctured_limit(cube, mask):
    """Limit of the cube strictly below `mask`, with the comparison map.

    Returns (member tuples, comparison mapping of object(mask) into
    their indices).  Members are tuples indexed by the coatoms of `mask`
    in increasing bitmask order, compatible over every pairwise meet.
    """
    if mask == 0:
        raise ValidationError("the empty subset has no punctured limit")
    coatoms = [mask & ~(1 << i) for i in range(cube.n) if mask >> i & 1]
    coatoms.sort()
    groups = [cube.objects[c] for c in coatoms]
    total = 1
    for g in groups:
        total *= g.order
    if total > _MAX_LIMIT_ENUM:
        raise SizeLimitError("punctured limit enumeration too large")
    pair_maps = []
    for a in range(len(coatoms)):
        for b in range(a + 1, len(coatoms)):
            meet = coatoms[a] & coatoms[b]
            pair_maps.append((a, b, cube.hom(coatoms[a], meet),
                              cube.hom(coatoms[b], meet)))
    members = []
    for tup in itertools.product(*(range(g.order) for g in groups)):
        if all(fa(tup[a]) == fb(tup[b]) for a, b, fa, fb in pair_maps):
            members.append(tup)
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

def cube_from_normal_subgroups(G, normals, check_extension=True):
    """The n-cube S |-> G / (product of N_i over i not in S).

    Every face is a natural projection between quotients of G.  The
    cube need not be an n-fold extension once n >= 3: three distinct
    order-2 subgroups of V4 give one whose comparison maps are not all
    surjective.  Such a cube raises ValidationError unless it is built
    with check_extension=False.
    """
    n = len(normals)
    if n < 1:
        raise ValidationError("need at least one normal subgroup")
    if n > MAX_CUBE_DIMENSION:
        raise SizeLimitError("cube dimension capped at %d"
                             % MAX_CUBE_DIMENSION)
    for N in normals:
        if N.ambient is not G or not N.is_normal():
            raise ValidationError("each subgroup must be normal in G")
    objects = {}
    projections = {}
    for mask in range(1 << n):
        prod = G.trivial_subgroup()
        for i in range(n):
            if not mask >> i & 1:
                prod = prod.product_with(normals[i])
        Q, proj = G.quotient(prod)
        objects[mask] = Q
        projections[mask] = proj
    faces = {}
    for t in range(1 << n):
        for i in range(n):
            if t >> i & 1:
                s = t & ~(1 << i)
                mapping = [0] * objects[t].order
                for g in G.elements():
                    mapping[projections[t](g)] = projections[s](g)
                faces[(t, s)] = GroupHom(objects[t], objects[s], mapping,
                                         validate=False)  # ints
    return CubeExtension(n, objects, faces, check_extension=check_extension)


# ---- face calculus --------------------------------------------------------

def _restriction(cube, fixed, dirs):
    objects = {}
    faces = {}
    for mask in range(1 << len(dirs)):
        objects[mask] = cube.objects[_expand(mask, dirs) | fixed]
    for t in range(1 << len(dirs)):
        for k in range(len(dirs)):
            if t >> k & 1:
                s = t & ~(1 << k)
                faces[(t, s)] = cube.faces[(_expand(t, dirs) | fixed,
                                            _expand(s, dirs) | fixed)]
    return CubeExtension(len(dirs), objects, faces, check_extension=False)


def rho_i(cube, i):
    """The domain face: subsets containing direction i, reindexed."""
    if cube.n < 2:
        raise ValidationError("need dimension at least 2")
    dirs = [d for d in range(cube.n) if d != i]
    return _restriction(cube, 1 << i, dirs)


def cod_face(cube, i):
    """The codomain face: subsets avoiding direction i, reindexed."""
    if cube.n < 2:
        raise ValidationError("need dimension at least 2")
    dirs = [d for d in range(cube.n) if d != i]
    return _restriction(cube, 0, dirs)


def delta_i(cube, i):
    """View the n-cube as a morphism of (n-1)-cubes along direction i."""
    dom = rho_i(cube, i)
    cod = cod_face(cube, i)
    dirs = [d for d in range(cube.n) if d != i]
    comps = {}
    for mask in range(1 << (cube.n - 1)):
        base = _expand(mask, dirs)
        comps[mask] = cube.faces[(base | (1 << i), base)]
    return CubeMorphism(dom, cod, comps)


def delta_inverse(morphism, i):
    """Reassemble the n-cube whose direction-i arrow view is `morphism`;
    CubeExtension checks that n is at most MAX_CUBE_DIMENSION."""
    n = morphism.dom.n + 1
    if not 0 <= i < n:
        raise ValidationError("direction out of range")
    dirs = [d for d in range(n) if d != i]
    pos = {d: k for k, d in enumerate(dirs)}

    def compress(mask):
        out = 0
        for d in dirs:
            if mask >> d & 1:
                out |= 1 << pos[d]
        return out

    objects = {}
    for mask in range(1 << n):
        if mask >> i & 1:
            objects[mask] = morphism.dom.objects[compress(mask)]
        else:
            objects[mask] = morphism.cod.objects[compress(mask)]
    faces = {}
    for t in range(1 << n):
        for j in range(n):
            if t >> j & 1:
                s = t & ~(1 << j)
                if j == i:
                    faces[(t, s)] = morphism.components[compress(s)]
                elif t >> i & 1:
                    faces[(t, s)] = morphism.dom.faces[(compress(t),
                                                        compress(s))]
                else:
                    faces[(t, s)] = morphism.cod.faces[(compress(t),
                                                        compress(s))]
    return CubeExtension(n, objects, faces, check_extension=False)


def rho_i_morphism(morphism, i):
    """Restrict a morphism of cubes to the subsets containing direction i."""
    dom = rho_i(morphism.dom, i)
    cod = rho_i(morphism.cod, i)
    dirs = [d for d in range(morphism.dom.n) if d != i]
    comps = {mask: morphism.components[_expand(mask, dirs) | (1 << i)]
             for mask in range(1 << len(dirs))}
    return CubeMorphism(dom, cod, comps)


def interchange_holds(cube, i, j):
    """delta_{j-1} of the i-th domain face against the restricted delta_j.

    For i < j the two (n-2)-cube morphisms must coincide.
    """
    if not i < j:
        raise ValidationError("need i < j")
    left = delta_i(rho_i(cube, i), j - 1)
    right = rho_i_morphism(delta_i(cube, j), i)
    return left == right


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

    Returns (cube, inclusions) where inclusions[mask] sends an element of
    the kernel cube's object to the corresponding element of the domain
    cube's object.
    """
    n = morphism.dom.n
    objects = {}
    inclusions = {}
    member_index = {}
    for mask in range(1 << n):
        K = morphism.components[mask].kernel()
        Kg, incl = K.as_group()
        objects[mask] = Kg
        inclusions[mask] = incl
        member_index[mask] = {incl(k): k for k in range(Kg.order)}
    faces = {}
    for t in range(1 << n):
        for i in range(n):
            if t >> i & 1:
                s = t & ~(1 << i)
                f = morphism.dom.faces[(t, s)]
                mapping = [member_index[s][f(inclusions[t](k))]
                           for k in range(objects[t].order)]
                faces[(t, s)] = GroupHom(objects[t], objects[s], mapping,
                                         validate=False)  # ints
    return CubeExtension(n, objects, faces, check_extension=False), \
        inclusions
