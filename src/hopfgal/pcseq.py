"""Subgroups of free nilpotent groups via induced triangular sequences.

A subgroup is stored as a sequence of members with strictly increasing
leading letters and positive leading exponents, closed enough that every
subgroup element factors as an ordered product of sequence powers.  That
gives exact membership tests, canonical coset remainders, and integer
coordinates, which the quotient and intersection routines below exploit.

Weight bookkeeping does the pruning: a member with leading letter of
weight w lies in the w-th term of the lower central series, so any
commutator whose leading weights sum past the class is trivial and can
be skipped without computing it.

One routine, _fill, closes a generating set into a sequence.  It fills
one weight layer at a time and, when a layer is final, commutes its
members with the acting words; its docstring proves the result full.
The acting words are the ambient generators for normal_closure, and the
members found so far for induced_sequence, which closes any generating
set.  The kernel of a split surjection between free nilpotent groups
needs no closure: split_kernel forms it one layer at a time from the
Hermite kernels of the linear maps the surjection induces.  Every
result ends in the same canonical box-reduced form, so two generating
sets of one subgroup, or a closure and a kernel, give the same sequence
member for member.  Each subgroup the Hopf engine forms is one such
fill, split kernel or elimination, at the class it reports: a product
of commutator subgroups is one normal closure, and each level of
intersect is one fill of the products of members its eliminations
find, which need no commutator subgroup added.  meet_image is
intersect's top level without the lift, so it gives the meet's image
one class down at the cost of the meet there.
"""

from __future__ import annotations

from bisect import bisect_left

from .abelian import FgAbelianGroup, torsion_closure_rows
from .errors import (InternalCheckError, NotAbelianError, NotNormalError,
                     NotSubsetError, SizeLimitError, ValidationError)
from .freenil import NilWord
from .matrices import (HnfSolver, IntMatrix, lattice_intersection,
                       left_kernel)


def reduce_against(word, members, start=0):
    """Divide off leading powers of `members` from the left.

    `members` maps leading letters to members with positive leading
    exponents; a sequence of members with distinct leads may stand in
    for the map.  Only leads from letter `start` on divide.  Returns
    (quotients, remainder): word = prod members[l]**q[l] * remainder in
    increasing lead order, with q a map from lead to nonzero quotient
    and the remainder's coordinate at each lead lying in [0, leading
    exponent).

    The walk visits the remainder's nonzero letters, not the members.
    Dividing by a member leading at l leaves every coordinate before l
    unchanged, so the walk goes on from the first letter after l.
    """
    if not isinstance(members, dict):
        members = {m.leading()[0]: m for m in members}
    r = word
    qs = {}
    sylls = r.syllables()
    i = bisect_left(sylls, (start,))
    while i < len(sylls):
        l, c = sylls[i]
        m = members.get(l)
        if m is not None:
            q = c // m.leading()[1]
            if q:
                qs[l] = q
                r = m.pow(-q).mul(r)
                sylls = r.syllables()
                if i < len(sylls) and sylls[i][0] == l:
                    i += 1
                continue
        i += 1
    return qs, r


class PcSubgroup:
    """A subgroup presented by a full triangular member sequence."""

    __slots__ = ("parent", "seq", "_by_lead")

    def __init__(self, parent, seq, _checked=False):
        if not _checked:
            raise ValidationError("construct subgroups via induced_sequence")
        self.parent = parent
        self.seq = tuple(seq)
        self._by_lead = {m.leading()[0]: m for m in self.seq}

    def reduce(self, word):
        if word.parent is not self.parent:
            raise ValidationError("word from a different ambient group")
        return reduce_against(word, self._by_lead)

    def remainder(self, word):
        return self.reduce(word)[1]

    def contains(self, word):
        return self.remainder(word).is_identity()

    def coords(self, word):
        qs, r = self.reduce(word)
        if not r.is_identity():
            raise InternalCheckError("coordinates of a non-member")
        return [qs.get(l, 0) for l in self._by_lead]

    def is_trivial(self):
        return not self.seq

    def leading_weights(self):
        w = self.parent.weights
        return [w[m.leading()[0]] for m in self.seq]

    def __len__(self):
        return len(self.seq)

    def __eq__(self, other):
        return (isinstance(other, PcSubgroup)
                and self.parent is other.parent and self.seq == other.seq)

    def __hash__(self):
        return hash(self.seq)

    def __repr__(self):
        return "PcSubgroup(%d members)" % len(self.seq)


def induced_sequence(F, words):
    """The subgroup generated by `words`, as a full triangular sequence.

    The route for subgroups that need not be normal: the layer fill with
    the members themselves acting, so each pair of members is commuted
    once, when the heavier of the two is final.

    >>> from .freenil import FreeNilGroup
    >>> F = FreeNilGroup(2, 2)
    >>> S = induced_sequence(F, [F.generator(0), F.generator(1)])
    >>> [m.exps for m in S.seq]
    [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    >>> x1, x2 = F.generator(0), F.generator(1)
    >>> T = induced_sequence(F, [x1.pow(2), x2.pow(2), F.word((0, 0, 1))])
    >>> [m.leading() for m in T.seq]
    [(0, 2), (1, 2), (2, 1)]
    """
    return _fill(F, words, False)


def trivial_subgroup(F):
    return PcSubgroup(F, (), _checked=True)


def letter_span(F, indices):
    """Subgroup generated by a coordinate-closed set of letters.

    The caller promises the letter set is closed under basic-commutator
    formation inside the basis (true for "every letter touching a given
    generator block" and for "every letter of weight >= w"), which makes
    the unit-exponent sequence full as written.
    """
    return PcSubgroup(F, tuple(F.letter(i) for i in sorted(indices)),
                      _checked=True)


def derived_subgroup(F):
    """[F, F]: the letters of weight at least two.

    >>> from .freenil import FreeNilGroup
    >>> F = FreeNilGroup(2, 3)
    >>> [m.leading()[0] for m in derived_subgroup(F).seq]
    [2, 3, 4]
    """
    return letter_span(F, [i for i, w in enumerate(F.weights) if w >= 2])


def shadow(S, low):
    """Image of S in `low`, a truncation of its ambient to a lower class.

    Basis letters of the truncation are a prefix of the ambient's, and
    dropping the heavier coordinates is the quotient map, so members
    shadow down by coordinate prefix.  The images of the members that
    lead below the cut keep their leading letters, exponents and box
    reduction, and every image element is the image of an ordered
    product of members; the members that lead above the cut map to the
    identity.  So the surviving images are the canonical full sequence
    of the image, with no closure work.
    """
    F = S.parent
    if low is F:
        return S
    if low.rank != F.rank or low.nclass > F.nclass:
        raise ValidationError("not a truncation of the ambient group")
    images = (low.truncate_word(m) for m in S.seq)
    return PcSubgroup(low, [m for m in images if not m.is_identity()],
                      _checked=True)


def _box(layer, lead):
    """Box-reduce a layer after its member at `lead` changed.

    The new member is reduced against the later leads.  Then each earlier
    member whose coordinate at `lead` is outside [0, e), for e the new
    leading exponent, is reduced against the new member and the later
    leads.  Weight-w coordinates add modulo the next lower central term,
    so these reductions touch no coordinate to the left of the lead
    divided by, and the whole layer ends box-reduced.
    """
    new = layer[lead] = reduce_against(layer[lead], layer, lead + 1)[1]
    e = new.leading()[1]
    for l in sorted(layer):
        if l >= lead:
            break
        if not 0 <= layer[l].exponent(lead) < e:
            layer[l] = reduce_against(layer[l], layer, lead)[1]


def _fill(F, words, normal):
    """The closure of `words`, one weight layer at a time: the normal
    closure when `normal` is true, else the subgroup they generate.

    The acting words are the ambient generators when `normal` is true,
    and the members themselves otherwise.  Layer w holds the members
    whose leading letter has weight w.  Every word waits on the layer of
    its leading weight, and layers are filled lightest first, each from
    its sparsest waiting word up.  A word entering layer w takes Euclid
    steps on its leading letter against the member there; whenever a
    member changes, the layer is box-reduced again, so no coordinate
    inside the layer grows.  A remainder that leads deeper moves on to
    its own layer.  Once layer w is final, [m, x] for each member m and
    each acting word x is sent on, unless the leading weights of m and x
    add up past the class (then it is trivial).  With the members
    acting, x runs over the members of the lighter layers and those
    before m in its own layer, so each unordered pair is commuted once,
    when the heavier member is final.  [m, x] lies in gamma_{w+1}, and
    nothing ever moves back to a lighter layer, so one pass over the
    layers is the whole computation.

    Why the result is the closure, as a full sequence.  Write A for the
    acting words (the generators, or all final members), and let M_w be
    the group generated by the members of layers w and deeper.  Every
    member lies in the closure, being built from the words, commutators
    with A and Euclid combinations of those; each word was inserted, and
    Euclid steps keep the generated subgroup, so M_1 contains the words
    and lies in the closure.  It is the closure once M_1 is normalised
    by A, which follows going down from the class: assume M_{w+1} is
    normalised by every x in A.
    For a member m of layer w, [m, x] (or its inverse [x, m], when x is
    the heavier member) was pushed into a layer deeper than w, so it lies
    in M_{w+1}, m^x = m [m, x] lies in M_w, and M_w is normalised by x
    too (a subgroup of a finitely generated nilpotent group mapped into
    itself by conjugation with x is mapped onto itself, by the ascending
    chain condition).  A generates a group that contains every M_w (the
    ambient group for normal_closure, M_1 for induced_sequence), so
    M_{w+1} is normal in M_w, and m commutes with every element of M_w
    modulo M_{w+1}: M_w/M_{w+1} is abelian and generated by the layer's
    members.  Their weight-w coordinate vectors have distinct leading
    letters, so layer w embeds in gamma_w/gamma_{w+1}, M_w meets
    gamma_{w+1} in M_{w+1}, and every element of M_w is an ordered
    product of powers of the layer's members times an element of
    M_{w+1}.  That is fullness.  Finally each member is box-reduced
    against the deeper ones, which changes no generated subgroup and
    makes the sequence canonical.
    """
    weights = F.weights
    pending = [[] for _ in range(F.nclass + 1)]

    def push(g):
        lead = g.leading()
        if lead is not None:
            pending[weights[lead[0]]].append(g)

    for g in words:
        if g.parent is not F:
            raise ValidationError("generator from a different ambient group")
        push(g)
    acting = [(F.generator(i), 1) for i in range(F.rank)]
    members = {}
    for w in range(1, F.nclass + 1):
        layer = {}
        # sparse words first: they make sparse members, which keep the
        # Euclid steps of the dense words that follow short
        for g in sorted(pending[w], key=lambda g: len(g.syllables())):
            while True:
                lead = g.leading()
                if lead is None:
                    break
                l, e = lead
                if weights[l] != w:
                    push(g)
                    break
                m = layer.get(l)
                if m is None:
                    layer[l] = g if e > 0 else g.inverse()
                    _box(layer, l)
                    break
                # floor division leaves the lead in [0, em), sign or not
                q = e // m.leading()[1]
                if q:
                    g = m.pow(-q).mul(g)
                if g.exponent(l):
                    # smaller positive lead at the same letter: swap roles
                    layer[l] = g
                    _box(layer, l)
                    g = m
        final = [(m, weights[l]) for l, m in members.items()]
        for l in sorted(layer):
            m = layer[l]
            for x, wx in acting if normal else final:
                if w + wx <= F.nclass:
                    push(m.comm(x))
            final.append((m, w))
        members.update(layer)
    return _canonical(F, members)


def _canonical(F, members):
    """The subgroup of a full sequence given as a map from leads to
    members, each box-reduced against the deeper members.

    The reduction goes from the deepest lead up, so each member is
    reduced against final ones; it changes no generated subgroup, and
    the result is the canonical sequence.
    """
    leads = sorted(members)
    for l in reversed(leads[:-1]):
        members[l] = reduce_against(members[l], members, l + 1)[1]
    return PcSubgroup(F, [members[l] for l in leads], _checked=True)


def normal_closure(F, words):
    """The normal closure of `words`: the layer fill with the ambient
    generators acting.

    >>> from .freenil import FreeNilGroup
    >>> F = FreeNilGroup(2, 2)
    >>> x1, x2 = F.generator(0), F.generator(1)
    >>> R = normal_closure(F, [x1.pow(2), x2.pow(2)])
    >>> [m.leading() for m in R.seq]
    [(0, 2), (1, 2), (2, 2)]
    """
    return _fill(F, words, True)


def split_kernel(pi, section):
    """The kernel of pi: Q -> F, given a section s: F -> Q with
    pi(s(y)) = y, as Q's canonical full sequence.  Q and F are free
    nilpotent groups of one class c.

    It is formed one weight layer at a time by linear algebra, with no
    commutator closure (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, 2005, ch. 8).  Write K for the kernel
    and K_w for K /\\ gamma_w(Q).  The weight-w coordinates embed
    gamma_w/gamma_{w+1} of each group in a lattice, and pi induces the
    linear map gr_w(pi) between them, whose row for a weight-w letter
    b_l holds the weight-w coordinates of pi(b_l).  The maps gr(pi)
    form a homomorphism of graded Lie rings, so they are read off the
    weight-one parts of the generator images and the Lie brackets of
    F's letters: for letters b_a, b_b of F, the bracket is the
    weight-(w_a + w_b) part of the commutator [b_a, b_b], the leading
    part of its collection tail.  No group product is formed for them.

    Layer w holds one member for each row v of the Hermite basis of
    L_w = ker gr_w(pi): for g the word with syllables v, the member is
    g s(pi(g))^-1.  The weight-w part of pi(g) is v gr_w(pi) = 0, so
    pi(g) lies in gamma_{w+1}(F) and its image under the homomorphism s
    in gamma_{w+1}(Q): the member's weight-w coordinates are v, its
    lead is v's pivot, and pi maps it to pi(g) pi(g)^-1 = 1, since
    pi s, a homomorphism that fixes the generators, is the identity.
    At w = c, gamma_{c+1}(F) is trivial and the member is g itself, so
    the top layer needs no group arithmetic.

    Why the members are a full sequence for K.  K_w meets
    gamma_{w+1}(Q) in K_{w+1}, so K_w/K_{w+1} embeds in
    gamma_w/gamma_{w+1}.  The image lies in L_w, for pi kills K_w and
    with it the weight-w part of each of its elements, and it holds the
    layer's members, whose weight-w parts are L_w's Hermite basis: the
    image is L_w, and the members map to a basis of it.  Going down
    from K_{c+1} = 1, every element of K_w is an ordered product of
    powers of layer w's members times an element of K_{w+1}, which is
    _fill's fullness, and K_1 = K.  The leads are the Hermite pivots,
    distinct and with positive exponents, and each member is finally
    box-reduced against the deeper ones, as _fill does; so the result
    is the canonical sequence of K, equal member for member to any
    closure that forms K.

    Raises ValidationError when Q and F differ in class, when s does
    not run from F to Q, or when pi s is not the identity on F's
    generators.

    The pullback cover of <x | x^2> at class 2 sends its generators
    x, r to x and x^2:

    >>> from .freenil import FreeNilGroup, NilHom
    >>> Q, F = FreeNilGroup(2, 2), FreeNilGroup(1, 2)
    >>> x = F.generator(0)
    >>> pi = NilHom(Q, F, [x, x.pow(2)])
    >>> K = split_kernel(pi, NilHom(F, Q, [Q.generator(0)]))
    >>> [m.exps for m in K.seq]   # x^2 r^-1, then [r, x]
    [(2, -1, 0), (0, 0, 1)]
    """
    Q, F = pi.src, pi.dst
    if Q.nclass != F.nclass:
        raise ValidationError("ambients of different class")
    if section.src is not F or section.dst is not Q:
        raise ValidationError("the section does not run from the "
                              "codomain to the domain")
    for i, y in enumerate(section.images):
        if pi.apply(y) != F.generator(i):
            raise ValidationError("the map does not undo the section "
                                  "on generator %d" % i)
    c = Q.nclass
    q_weights, f_weights = Q.weights, F.weights
    graded = _graded_images(pi)
    members = {}
    for w in range(1, c + 1):
        q0, q1 = bisect_left(q_weights, w), bisect_left(q_weights, w + 1)
        f0, f1 = bisect_left(f_weights, w), bisect_left(f_weights, w + 1)
        rows = [tuple((k - f0, e) for k, e in graded[l])
                for l in range(q0, q1)]
        basis = left_kernel(IntMatrix.from_sparse_rows(q1 - q0, f1 - f0,
                                                       rows))
        for v in basis.sparse_rows():
            g = NilWord(Q, tuple((q0 + j, e) for j, e in v))
            if w < c:
                g = g.mul(section.apply(pi.apply(g)).inverse())
            members[q0 + v[0][0]] = g
    return _canonical(Q, members)


def _graded_images(pi):
    """For each letter b_l of pi's domain, of weight w, the weight-w
    coordinates of pi(b_l), as a stored row over the codomain's letters.

    A generator's row is the weight-one part of its image; a letter
    [b_u, b_v] gets the Lie bracket of the rows of b_u and b_v.  The
    bracket of two letters of the codomain is the weight-(w_a + w_b)
    part of their collection tail, taken with the larger letter first
    (the one collection derives) and negated for the other order.
    """
    F = pi.dst
    weights = F.weights
    brackets = {}

    def bracket(a, b):
        out = brackets.get((a, b))
        if out is None:
            if a < b:
                out = tuple((k, -e) for k, e in bracket(b, a))
            else:
                w = weights[a] + weights[b]
                out = tuple((k, e) for k, e in F.tail(a, b, 1, 1)
                            if weights[k] == w)
            brackets[a, b] = out
        return out

    rows = []
    for letter in pi.src.letters:
        if letter.left is None:
            rows.append(tuple((k, e) for k, e in
                              pi.images[letter.index].syllables()
                              if k < F.rank))
            continue
        acc = {}
        for a, x in rows[letter.left]:
            for b, y in rows[letter.right]:
                for k, e in bracket(a, b):
                    acc[k] = acc.get(k, 0) + x * y * e
        rows.append(tuple(sorted((k, e) for k, e in acc.items() if e)))
    return rows


def commutator_subgroup(F, pairs):
    """The product of the [N, T] over `pairs` of (gens, T), for N the
    normal closure of gens and T normal in F.

    It is one normal closure: that of the [g, t] over each pair's g in
    gens and t in T.seq.  For one pair this is Robinson, A Course in the
    Theory of Groups, 5.1.7.  [N, T] is normal and contains each [g, t].
    Conversely, with [a, b] = a^-1 b^-1 a b, the identities
    [g, ab] = [g, b] [g, a]^b and [g, a^-1] = ([g, a]^(a^-1))^-1 put
    [g, t] in the closure C for every t in T; then
    [g^y, t] = [g, t^(y^-1)]^y, with t^(y^-1) in T because T is normal,
    puts [g^y, t] in C; and [ab, t] = [a, t]^b [b, t] extends that to
    all of N, which the conjugates g^y generate.  For several pairs, a
    product of normal subgroups is the normal closure of the union of
    their generating sets: it is normal and contains the union, and the
    closure of the union contains each factor.

    >>> from .freenil import FreeNilGroup
    >>> F = FreeNilGroup(2, 2)
    >>> x1, x2 = F.generator(0), F.generator(1)
    >>> R = normal_closure(F, [x1.pow(2), x2.pow(2), F.word((0, 0, 1))])
    >>> RF = commutator_subgroup(F, [([x1, x2], R)])
    >>> RF.contains(F.word((0, 0, 2)))   # [x1^2, x2] = c^2 in class 2
    True
    >>> RF.contains(F.word((0, 0, 1)))
    False
    """
    weights = F.weights
    comms = []
    for gens, T in pairs:
        for g in gens:
            wg = weights[g.leading()[0]]
            for t in T.seq:
                if wg + weights[t.leading()[0]] <= F.nclass:
                    comms.append(g.comm(t))
    return normal_closure(F, comms)


def _product(F, seq, exps):
    """The ordered product of the powers seq[i]**exps[i]."""
    g = F.identity()
    for m, c in zip(seq, exps):
        if c:
            g = g.mul(m.pow(c))
    return g


def intersect_with_kernel(S):
    """S /\\ [F, F], the kernel of the abelianization met with S.

    It is the suffix of S's members that lead at weight >= 2.  The
    members of layer 1 lead at distinct generators, so their weight-one
    vectors are triangular and hence independent; the deeper members
    lead past every generator, so their weight-one vectors are zero.  An
    ordered product of members therefore lies in [F, F] exactly when
    every layer-1 exponent is 0, so S /\\ [F, F] is the set of ordered
    products of the deeper members, a full sequence by _fill's fullness
    argument.  Every lead later than a suffix member is inside the
    suffix, so the suffix is already box-reduced: it is the canonical
    sequence of S /\\ [F, F], member for member.
    """
    F = S.parent
    weights = F.weights
    return PcSubgroup(F, [m for m in S.seq if weights[m.leading()[0]] >= 2],
                      _checked=True)


def meet_image(S, T):
    """The image of S /\\ T in F.truncated(), for F the ambient of both.

    It is intersect's top level without the lift: the subgroup M of
    liftable products in V, the meet of the images one class down.  Each
    member of M lifts, times a central word, into S /\\ T, so M lies in
    the image.  Conversely, for s in S /\\ T the zero-padded lift of
    its image v is s times a central word z, so the central defects of
    that lift are those of s less z on both sides: their difference
    splits, v lies in M, and M is the image.  Raises ValidationError at
    class 1, which has no truncation.

    >>> from .freenil import FreeNilGroup
    >>> F = FreeNilGroup(2, 2)
    >>> x1, x2 = F.generator(0), F.generator(1)
    >>> S = normal_closure(F, [x1.pow(2)])
    >>> T = normal_closure(F, [x1.pow(3), x2])
    >>> [m.exps for m in meet_image(S, T).seq]
    [(6, 0)]
    """
    M, _ = _meet_level(S, T)
    if M is None:
        raise ValidationError("class 1 has no truncation")
    return M


def intersect(S, T):
    """S /\\ T by downward recursion through the class filtration.

    At each level the top-weight letters span a central block Z; members
    leading below the top weight truncate onto full sequences one class
    down, the recursive intersection V is lifted back, and the central
    defects of the two reductions define a homomorphism V -> Z/(Z_S+Z_T)
    whose kernel, corrected by explicit central witnesses, is S /\\ T.
    The top level's kernel is meet_image(S, T), the image of S /\\ T one
    class down; intersect is that image lifted, plus the witnesses.

    That kernel K_V is generated by the products of V's members whose
    defect splits; [V, V] needs no generators of its own.  The defect
    map is a homomorphism to an abelian group, so the ordered product of
    V's members with exponents x has defect x D (D the members'
    defects), and K_V is the set of those products with x in
    L = {x : x D in Z_S + Z_T}.  Let P_w be generated by the products
    of the rows r_i of L's Hermite basis that pivot at a member of
    weight >= w; members come in weight order, so those rows span the x
    in L that vanish below weight w.  Claim: K_V /\\ gamma_w lies in
    P_w.  Above the class it is trivial.  Going down, v in
    K_V /\\ gamma_w is the product of an x in L that vanishes below
    weight w (fullness), so x = sum c_i r_i over those rows.  Modulo
    gamma_{w+1} the members of weight w commute and the deeper ones
    vanish, so v = prod (product of r_i)^c_i * u with u in
    K_V /\\ gamma_{w+1} (v and each product lie in K_V), inside P_{w+1}
    and so in P_w.  At w = 1 this is K_V = P_1.

    A level's matrix work is two Hermite forms (Zassenhaus; Cohen, A
    Course in Computational Algebraic Number Theory, 1993, ch. 2).  The
    rows of [Z_S | Z_S ; Z_T | 0] span the pairs (a + b | a), a in Z_S,
    b in Z_T.  Those with zero left half are the (0 | c), c in
    Z_S /\\ Z_T, and a Hermite form writes them with its zero-left rows
    alone (the first pivot of any other row would survive), so the
    right halves of those rows are the Hermite basis of the meet: the
    central witnesses.  The other rows' left halves are the Hermite
    basis of Z_S + Z_T, and reducing (d | 0) by them leaves (0 | -a)
    with d = a + b.  A lifted member of V with defects r_S, r_T and
    d = r_S - r_T, times the central word a - r_S, has remainder a in
    Z_S against S and -b in Z_T against T, so it lies in S /\\ T; two
    splits of d differ by an element of the meet, a central witness, so
    the closure does not depend on the split.  The zero-left rows of
    [D | I ; Z_S + Z_T | 0], D the defects of V's members, are the
    Hermite basis of {x : x D in Z_S + Z_T}: the exponents of the
    products of V's members whose defect splits.
    """
    _, witnesses = _meet_level(S, T)
    return induced_sequence(S.parent, witnesses())


def _meet_level(S, T):
    """intersect's top level: (M, witnesses).

    M is meet_image(S, T), or None at class 1, where there is no class
    below.  witnesses() gives words that generate S /\\ T: the central
    witnesses and each member of M lifted into S /\\ T.
    """
    F = S.parent
    if T.parent is not F:
        raise ValidationError("subgroups of different ambient groups")
    weights = F.weights
    zcols = weights.count(F.nclass)
    z_offset = len(weights) - zcols

    def central(word):
        # the stored row of a central word's top-weight exponents
        return tuple((l - z_offset, e) for l, e in word.syllables())

    def split(P):
        low = {l: m for l, m in P._by_lead.items() if weights[l] < F.nclass}
        rows = [central(m) for m in P.seq
                if weights[m.leading()[0]] == F.nclass]
        return low, IntMatrix.from_sparse_rows(len(rows), zcols, rows)

    s_low, s_lat = split(S)
    t_low, t_lat = split(T)
    if F.nclass == 1:
        # every letter is central: the meet is the lattice meet
        meet = lattice_intersection(s_lat, t_lat)
        return None, lambda: [F.word(r) for r in meet.to_rows()]
    low_group = F.truncated()
    if S.is_trivial() or T.is_trivial():
        return trivial_subgroup(low_group), lambda: []
    V = intersect(shadow(S, low_group), shadow(T, low_group))

    def central_defect(word):
        # word lies over a common truncation; after dividing off the
        # below-top members on each side only a central part may remain
        _, rs = reduce_against(word, s_low)
        _, rt = reduce_against(word, t_low)
        for r in (rs, rt):
            if not r.is_identity() and r.leading()[0] < z_offset:
                raise InternalCheckError("reduction left a non-central part")
        rs = central(rs)
        d = dict(rs)
        for j, e in central(rt):
            d[j] = d.get(j, 0) - e
        return rs, tuple(sorted((j, e) for j, e in d.items() if e))

    glue = HnfSolver(s_lat.stack(t_lat),
                     s_lat.stack(IntMatrix.zero(t_lat.rows, zcols)))
    defects = [central_defect(F.lift_word(v))[1] for v in V.seq]
    xrows = left_kernel(IntMatrix.from_sparse_rows(len(defects), zcols,
                                                   defects), glue.span)

    M = induced_sequence(low_group, [_product(low_group, V.seq, x)
                                     for x in xrows.to_rows()])

    def central_word(row):
        return NilWord(F, tuple((z_offset + j, e) for j, e in row))

    def witnesses():
        out = [central_word(c) for c in glue.kernel.sparse_rows()]
        for m in M.seq:
            lifted = F.lift_word(m)
            rs, d = central_defect(lifted)
            a = glue.solve(d)
            if a is None:
                raise InternalCheckError(
                    "central defect left the glue lattice")
            a = dict(a)
            for j, e in rs:
                a[j] = a.get(j, 0) - e
            out.append(lifted.mul(central_word(
                sorted((j, e) for j, e in a.items() if e))))
        return out

    return M, witnesses


def abelian_quotient(N, D):
    """Invariant factors of N/D for D normal in N with N/D abelian.

    >>> from .freenil import FreeNilGroup
    >>> F = FreeNilGroup(2, 2)
    >>> c1 = induced_sequence(F, [F.word((0, 0, 1))])
    >>> c2 = induced_sequence(F, [F.word((0, 0, 2))])
    >>> str(abelian_quotient(c1, c2))
    'Z/2'
    >>> str(abelian_quotient(c1, trivial_subgroup(F)))
    'Z'
    >>> str(abelian_quotient(c1, c1))
    '0'
    """
    F = N.parent
    if D.parent is not F:
        raise ValidationError("subgroups of different ambient groups")
    for d in D.seq:
        if not N.contains(d):
            raise NotSubsetError("denominator is not inside the numerator")
    weights = F.weights
    for d in D.seq:
        wd = weights[d.leading()[0]]
        for n in N.seq:
            if wd + weights[n.leading()[0]] > F.nclass:
                continue
            for by in (n, n.inverse()):
                if not D.contains(d.conj(by)):
                    raise NotNormalError(
                        "denominator is not normal in the numerator")
    return FgAbelianGroup.from_relation_matrix(len(N.seq),
                                               _relation_rows(N, D))


def _relation_rows(N, D):
    """Relations of the abelian quotient N/D on the members of N.

    The rows are the coordinates of D's members and of the commutators
    of weight-compatible member pairs, in all four signs.  Raises
    NotAbelianError when a commutator of members leaves D.
    """
    F = N.parent
    weights = F.weights
    rows = [N.coords(d) for d in D.seq]
    for i, a in enumerate(N.seq):
        wa = weights[a.leading()[0]]
        for b in N.seq[i + 1:]:
            if wa + weights[b.leading()[0]] > F.nclass:
                continue
            plain = a.comm(b)
            if not D.contains(plain):
                raise NotAbelianError("quotient is not abelian")
            ai, bi = a.inverse(), b.inverse()
            for c in (plain, a.comm(bi), ai.comm(b), ai.comm(bi)):
                rows.append(N.coords(c))
    return IntMatrix(rows, cols=len(N.seq))


def torsion_closure_in(K, D, primes):
    """Preimage in K of the local torsion of the abelian quotient K/D."""
    if not K.seq:
        return D
    closure = torsion_closure_rows(len(K.seq), _relation_rows(K, D), primes)
    gens = list(D.seq)
    gens.extend(_product(K.parent, K.seq, row) for row in closure.to_rows())
    return induced_sequence(K.parent, gens)


def materialize_quotient(F, R, max_order=2048):
    """The finite quotient F/R as a multiplication table, via coset reps.

    Canonical remainders are complete coset invariants, so breadth-first
    exploration from the identity enumerates each coset exactly once.
    Raises SizeLimitError if the quotient is infinite or too large.
    """
    from collections import deque

    from .groups import FiniteGroup

    ident = R.remainder(F.identity())
    if not ident.is_identity():
        raise InternalCheckError("identity coset has a nontrivial remainder")
    reps = [F.identity()]
    index = {F.identity(): 0}
    steps = []
    for i in range(F.rank):
        steps.append(F.generator(i))
        steps.append(F.generator(i).inverse())
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for g in steps:
            w = R.remainder(reps[i].mul(g))
            if w not in index:
                if len(reps) >= max_order:
                    raise SizeLimitError(
                        "quotient exceeds %d elements" % max_order)
                index[w] = len(reps)
                reps.append(w)
                queue.append(len(reps) - 1)
    n = len(reps)
    table = []
    for a in range(n):
        row = []
        for b in range(n):
            row.append(index[R.remainder(reps[a].mul(reps[b]))])
        table.append(row)
    return FiniteGroup(table, validate=False), reps
