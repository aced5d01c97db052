"""Hopf formulae evaluated exactly inside free nilpotent truncations.

hopf_pi_n(pres, n, primes) is the one entry point: it gives H_{n+1} of
the presented group for n = 0, 1, 2.  First homology (n = 0) is the
abelianization F/R[F,F], read off the generator exponents of the
relator closure.

For a presentation of a group of nilpotency class <= c, the classical
Hopf quotient ([F,F] /\\ R) / [R,F] can be computed in the free
nilpotent group of class c+1: the omitted part gamma_{c+2}(F) already
lies in [R,F], so nothing is lost.  That gives second homology exactly.

Third homology comes from the two-fold version: the presentation is
squared into a pullback, covered by a bigger free nilpotent group, and
the same kind of quotient is taken over both kernels.  Both are kernels
of surjections onto the free nilpotent group on the presentation's
generators, split by the diagonal map: the relator generators go to 1
for the first, a span of letters, and to their relators for the second,
which pcseq.split_kernel forms one weight layer at a time by linear
algebra instead of a normal closure.  Truncation is not exact there,
and it fails in a specific way: the intersection of the two kernels at
class k admits elements whose defect only shows above class k (the
obstruction word has higher weight).  So the kernels are met one class
deeper, and the numerator and denominator are formed at the working
class from the image of that meet, which the deeper intersection's top
level gives without lifting it.  No
exactness is claimed even then; the value is recomputed at the next
working class and only reported when two consecutive classes agree.
"""

from __future__ import annotations

import hashlib
import json

from .abelian import FgAbelianGroup, _prime_set_or_none
from .errors import SizeLimitError, ValidationError
from .freenil import NilHom, free_nil_group
from .matrices import IntMatrix
from .pcseq import (abelian_quotient, commutator_subgroup, intersect,
                    intersect_with_kernel, letter_span, meet_image,
                    normal_closure, shadow, split_kernel,
                    torsion_closure_in)

DEFAULT_MAX_CLASS = 4
# the largest rank a pullback cover may have
RANK_CAP = 8
# brackets nested deeper than this in a word are rejected, well within
# the interpreter's recursion limit for parsing and evaluating the word
MAX_NESTING = 100
# a word error quotes at most this many characters on each side of its
# position
QUOTE_RADIUS = 30


# ---- word expressions ----------------------------------------------------

def _parse_word(text, names):
    """Parse a word over named generators into a small syntax tree.

    Grammar: a word is a sequence of factors; a factor is an atom with an
    optional integer exponent; an atom is a generator name, a
    parenthesized word, or a commutator [u,v] = u^-1 v^-1 u v.  Longest
    declared name wins, so adjacent single-letter generators need no
    separator.  Brackets nest at most MAX_NESTING deep.
    """
    by_length = sorted(names, key=len, reverse=True)
    pos = 0
    depth = 0

    def skip():
        nonlocal pos
        while pos < len(text) and (text[pos].isspace() or text[pos] == "*"):
            pos += 1

    def fail(what):
        # quote a window around the position, so that the error stays one
        # short line however long the relator is
        lo, hi = max(0, pos - QUOTE_RADIUS), pos + QUOTE_RADIUS
        window = (("..." if lo else "") + text[lo:hi]
                  + ("..." if hi < len(text) else ""))
        raise ValidationError("%s at position %d in %r" % (what, pos, window))

    def atom():
        nonlocal pos, depth
        ch = text[pos]
        if ch in "([":
            if depth == MAX_NESTING:
                fail("brackets nested deeper than %d" % MAX_NESTING)
            depth += 1
            pos += 1
            if ch == "(":
                node = word(")")
            else:
                left = word(",")
                pos += 1
                node = ("comm", left, word("]"))
            pos += 1
            depth -= 1
            return node
        for name in by_length:
            if text.startswith(name, pos):
                pos += len(name)
                return ("gen", name)
        fail("unknown generator")

    def integer():
        nonlocal pos
        skip()
        start = pos
        if pos < len(text) and text[pos] in "+-":
            pos += 1
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == start or not text[start:pos].lstrip("+-"):
            fail("expected an exponent")
        try:
            return int(text[start:pos])
        except ValueError:
            # more digits than the interpreter converts
            pos = start
            fail("exponent too long")

    def factor():
        nonlocal pos
        node = atom()
        skip()
        if pos < len(text) and text[pos] == "^":
            pos += 1
            node = ("pow", node, integer())
        return node

    def word(closer):
        nonlocal pos
        parts = []
        skip()
        while pos < len(text) and text[pos] != closer:
            parts.append(factor())
            skip()
        if closer and pos >= len(text):
            fail("missing %r" % closer)
        return ("seq", parts)

    tree = word("")
    return tree


def _eval_word(node, gens, F):
    kind = node[0]
    if kind == "gen":
        return gens[node[1]]
    if kind == "seq":
        out = F.identity()
        for part in node[1]:
            out = out.mul(_eval_word(part, gens, F))
        return out
    if kind == "pow":
        return _eval_word(node[1], gens, F).pow(node[2])
    return _eval_word(node[1], gens, F).comm(_eval_word(node[2], gens, F))


# ---- presentations -------------------------------------------------------

class NilPresentation:
    """A finite presentation together with a verified class bound.

    >>> p = NilPresentation(["x", "y"], ["x^2", "y^2", "[x,y]"], 1)
    >>> p.rank
    2
    >>> NilPresentation(["x", "y"], ["x^4", "y^2", "(xy)^2"], 1)
    Traceback (most recent call last):
        ...
    hopfgal.errors.ValidationError: relators do not force nilpotency \
class <= 1
    """

    __slots__ = ("names", "relators", "nclass", "_trees", "_ambients",
                 "_kernels")

    def __init__(self, names, relators, nclass, verify=True):
        names = [str(n) for n in names]
        if not names or len(set(names)) != len(names):
            raise ValidationError("generator names must be distinct")
        if any(not n or n[0] in "0123456789^()[],*-+" or
               any(c.isspace() or c in "^()[],*" for c in n) for n in names):
            raise ValidationError("generator names clash with word syntax")
        if nclass < 1:
            raise ValidationError("class bound must be at least 1")
        self.names = names
        self.relators = [str(r) for r in relators]
        self.nclass = int(nclass)
        self._trees = [_parse_word(r, names) for r in self.relators]
        self._ambients = {}
        self._kernels = {}
        if verify:
            self._verify_class()

    @property
    def rank(self):
        return len(self.names)

    def ambient(self, k):
        """(free nilpotent group of class k, relators evaluated there)."""
        entry = self._ambients.get(k)
        if entry is None:
            F = free_nil_group(self.rank, k)
            gens = {n: F.generator(i) for i, n in enumerate(self.names)}
            entry = (F, [_eval_word(t, gens, F) for t in self._trees])
            self._ambients[k] = entry
        return entry

    def kernel_at(self, k):
        """Normal closure of the relators at class k."""
        R = self._kernels.get(k)
        if R is None:
            F, rels = self.ambient(k)
            R = normal_closure(F, rels)
            self._kernels[k] = R
        return R

    def _verify_class(self):
        # class <= c for the presented group means its (c+1)st lower
        # central term dies, i.e. every weight-(c+1) basis letter of the
        # class-(c+1) truncation falls into the relator closure.  For
        # nilpotent groups this is an exact criterion; a non-nilpotent
        # group whose lower central series stalls is outside the scope
        # of truncated computation and cannot be detected here.
        k = self.nclass + 1
        F, _ = self.ambient(k)
        R = self.kernel_at(k)
        for i, w in enumerate(F.weights):
            if w == k and not R.contains(F.letter(i)):
                raise ValidationError(
                    "relators do not force nilpotency class <= %d"
                    % self.nclass)

    def input_digest(self):
        blob = json.dumps({"gens": self.names, "rels": self.relators,
                           "class": self.nclass}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()

    def __repr__(self):
        return "NilPresentation(%r, %r, class=%d)" % (
            self.names, self.relators, self.nclass)


def parse_presentation(text):
    """Read the three-line presentation format.

    >>> parse_presentation("gens: x y\\nrels: x^2, y^2, [x,y]\\nclass: 1")
    NilPresentation(['x', 'y'], ['x^2', 'y^2', '[x,y]'], class=1)
    """
    names = rels = nclass = None
    seen = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label = line.split(":", 1)[0]
        if label in seen:
            raise ValidationError("%s: appears more than once" % label)
        seen.add(label)
        if line.startswith("gens:"):
            names = line[5:].split()
        elif line.startswith("rels:"):
            rels = [r.strip() for r in line[5:].split(",")]
            # commutator relators contain commas; re-balance brackets
            rels = _rejoin_relators(rels)
        elif line.startswith("class:"):
            try:
                nclass = int(line[6:].strip())
            except ValueError:
                raise ValidationError("class: wants an integer, got %r"
                                      % line[6:].strip())
        else:
            raise ValidationError("unrecognized line %r" % line)
    if names is None or rels is None or nclass is None:
        raise ValidationError("presentation needs gens:, rels: and class:")
    return NilPresentation(names, rels, nclass)


def _rejoin_relators(pieces):
    out = []
    depth = 0
    for piece in pieces:
        if depth > 0:
            out[-1] = out[-1] + "," + piece
        elif piece:
            out.append(piece)
        depth = out[-1].count("[") - out[-1].count("]") if out else 0
    if depth:
        raise ValidationError("unbalanced commutator brackets")
    return [r for r in out if r]


# ---- presentation cubes --------------------------------------------------

class PresentationCube:
    """A free nilpotent ambient with the kernels of its face maps; the
    first `diagonal_rank` generators of a two-fold cube are diagonal."""

    __slots__ = ("n", "ambient", "kernels", "diagonal_rank")

    def __init__(self, n, ambient, kernels, diagonal_rank=None):
        self.n = n
        self.ambient = ambient
        self.kernels = kernels
        self.diagonal_rank = diagonal_rank

    def __repr__(self):
        return "PresentationCube(n=%d, rank=%d, class=%d)" % (
            self.n, self.ambient.rank, self.ambient.nclass)


def build_presentation_cube(pres, n, k=None):
    """Realize an n-fold presentation at working class k.

    For n=1 this is the presentation itself: the ambient group with the
    relator closure as the only kernel.  For n=2 the ambient is squared
    over the presented group, the resulting fiber product is covered by
    a fresh free nilpotent group (one generator per diagonal generator
    pair plus one per relator, since conjugates of the pairs (1, r)
    already normally generate the off-diagonal part), and both
    projection kernels are returned.  The first kernel is the normal
    closure of the relator generators x_d, ..., a span of letters; the
    second is the normal closure N of the twisted relator generators
    x_{d+l} s(r_l)^-1, for s: F -> Q the diagonal map x_i -> x_i.

    N is the kernel of pi1: Q -> F, x_i -> x_i, x_{d+l} -> r_l, which s
    splits, so it comes from pcseq.split_kernel one weight layer at a
    time, with no closure.  pi1 kills each twisted generator, so N lies
    in its kernel.  Modulo N, x_{d+l} is congruent to s(r_l) =
    s(pi1(x_{d+l})), and x_i = s(pi1(x_i)).  So q -> qN and
    q -> s(pi1(q))N, two homomorphisms Q -> Q/N, agree on the
    generators and hence everywhere: q lies in N when pi1(q) = 1.
    """
    if n not in (1, 2):
        raise ValidationError("only 1- and 2-fold cubes are supported")
    if k is None:
        k = pres.nclass + 1
    if k < pres.nclass + 1:
        raise ValidationError("working class must exceed the class bound")
    F, rels = pres.ambient(k)
    if n == 1:
        return PresentationCube(1, F, [pres.kernel_at(k)])

    d = F.rank
    t = len(rels)
    if d + t > RANK_CAP:
        raise SizeLimitError(
            "pullback cover needs rank %d, above the cap %d"
            % (d + t, RANK_CAP))
    Q = free_nil_group(d + t, k)
    # the cover sends the first d generators to diagonal pairs (x, x)
    # and the remaining t to pairs (1, r); its first projection kills
    # exactly the letters whose leaves touch a relator generator
    contents = []
    for i, letter in enumerate(Q.letters):
        if letter.left is None:
            contents.append(frozenset([i]))
        else:
            contents.append(contents[letter.left] | contents[letter.right])
    high = [i for i, cs in enumerate(contents) if any(j >= d for j in cs)]
    K0 = letter_span(Q, high)

    # the second kernel is that of x_i -> x_i, x_{d+l} -> r_l, which
    # the diagonal map splits
    gens = [F.generator(i) for i in range(d)]
    section = NilHom(F, Q, [Q.generator(i) for i in range(d)])
    K1 = split_kernel(NilHom(Q, F, gens + rels), section)

    return PresentationCube(2, Q, [K0, K1], d)


# ---- evaluation ----------------------------------------------------------

def _subgroup_info(S):
    return {"generators": len(S.seq),
            "leading_weights": S.leading_weights()}


def evaluate_cube(cube, primes=None, k=None):
    """One Hopf quotient of a cube, formed at working class k (default:
    the cube's class b).

    Returns (value, numerator info, denominator info).  Write Q for the
    cube's ambient, f: Q -> Q_k for the truncation to class k, and K for
    the meet of the kernels, K = R for the one-fold cube and K0 /\\ K1
    for the two-fold one.  Every subgroup is formed in Q_k from
    K_k = f(K): the one kernel shadowed down, or for two kernels
    meet_image(K0, K1) shadowed down when k < b (intersect's top level,
    which stops short of the lift to class b), and intersect(K0, K1)
    when k = b.

    - The numerator is f(K /\\ [Q, Q]) = K_k /\\ [Q_k, Q_k].  The kernel
      of f is gamma_{k+1}, inside [Q, Q]; so if f(a) = f(c) with a in
      K and c in [Q, Q], then a lies in c gamma_{k+1}, inside [Q, Q],
      and f(a) is the image of an element of K /\\ [Q, Q].  It is read
      off K_k's sequence as its members of weight >= 2; since the
      ambient abelianization is free, this is also the full torsion
      preimage, so the same numerator serves every prime set.
    - The denominator is one normal closure (commutator_subgroup over
      pairs): [K, Q] for the one-fold cube, and [K0 /\\ K1, Q] [K0, K1]
      for the two-fold one (Brown and Ellis, Bull. LMS 20, 1988), where
      [K0, K1] is the pair (relator generators, K1) because K0 is the
      normal closure of the relator generators.  Under the surjection f
      commutator subgroups and products map onto the commutator
      subgroups and products of the images, so its image is the same
      closure in Q_k over K_k and f(K1).
    - With primes given the denominator is enlarged to its torsion
      closure inside K_k.

    So each subgroup is the image of the one formed at class b, and
    canonical sequences make it that one's shadow, member for member.
    What is computed is thus f(N)/f(D) for the class-b numerator N and
    denominator D.  f(K) can be smaller than the meet of the kernels
    formed at class k, but no depth b - k is proven to make the value
    H3; hopf_pi_n only compares consecutive working classes.
    """
    Q = cube.ambient
    low = free_nil_group(Q.rank, Q.nclass if k is None else k)
    gens = [low.generator(i) for i in range(low.rank)]
    K, cross = cube.kernels[0], []
    if cube.n == 2:
        K0, K1 = cube.kernels
        K = intersect(K0, K1) if low is Q else meet_image(K0, K1)
        cross.append((gens[cube.diagonal_rank:], shadow(K1, low)))
    K = shadow(K, low)
    N = intersect_with_kernel(K)
    D = commutator_subgroup(low, [(gens, K)] + cross)
    if primes is not None and primes.primes:
        D = torsion_closure_in(K, D, primes)
    value = abelian_quotient(N, D)
    return value, _subgroup_info(N), _subgroup_info(D)


class HopfResult:
    """Outcome of a Hopf evaluation, including how it was trusted."""

    __slots__ = ("value", "numerator", "denominator", "working_class",
                 "stabilization", "provenance")

    def __init__(self, value, numerator, denominator, working_class,
                 stabilization, provenance):
        self.value = value
        self.numerator = numerator
        self.denominator = denominator
        self.working_class = working_class
        self.stabilization = stabilization
        self.provenance = provenance

    def to_json(self):
        return {
            "value": None if self.value is None else self.value.to_json(),
            "numerator": self.numerator,
            "denominator": self.denominator,
            "working_class": self.working_class,
            "stabilization": self.stabilization,
            "provenance": self.provenance,
        }

    def __repr__(self):
        return "HopfResult(%r, class=%d, %s)" % (
            self.value, self.working_class, self.stabilization)


def _provenance(pres, n, primes, classes):
    return {"input": pres.input_digest(), "n": n,
            "primes": sorted(primes.primes) if primes else [],
            "classes": list(classes)}


def hopf_pi_n(pres, n, primes=None, max_class=DEFAULT_MAX_CLASS):
    """Hopf value for an n-fold presentation: H_{n+1} of the presented
    group, for n = 0, 1, 2.

    With primes given, the value is the quotient of that homology by its
    torsion at those primes.  n=0 is the abelianization F/R[F,F], read
    off the weight-one vectors of the relator closure; it forms no
    Hopf quotient of subgroups, so numerator and denominator are None.
    n=1 is the Hopf quotient, exact at class c+1; with primes it is
    computed from the closed denominator, not by quotienting the plain
    answer.  For n=2 the quotient is evaluated at consecutive working
    classes until two agree (each evaluation builds its cube one class
    deeper than it reports and forms the quotient at the reported class
    from the image of the deeper kernel meet); an agreement is reported
    STABLE, exhaustion of the class budget yields an UNSTABLE result
    whose value is None.  An UNSTABLE result is never a number: the caller
    gets the verdict, not a guess.
    """
    if n not in (0, 1, 2):
        raise ValidationError("hopf_pi_n is computed for n = 0, 1, 2")
    primes = _prime_set_or_none(primes)
    k0 = pres.nclass + 1
    if n == 0:
        rows = [m.weight_one() for m in pres.kernel_at(k0).seq]
        value = FgAbelianGroup.from_relation_matrix(
            pres.rank, IntMatrix(rows, cols=pres.rank))
        if primes is not None:
            value = value.quotient_by_torsion(primes)
        return HopfResult(value, None, None, k0, "NONE",
                          _provenance(pres, n, primes, [k0]))
    if n == 1:
        value, num, den = evaluate_cube(build_presentation_cube(pres, 1, k0),
                                        primes)
        return HopfResult(value, num, den, k0, "NONE",
                          _provenance(pres, n, primes, [k0]))
    if max_class < k0 + 2:
        raise ValidationError("stabilization needs to build at class %d; "
                              "raise max_class" % (k0 + 2))
    runs = {}

    def run(k):
        if k not in runs:
            runs[k] = evaluate_cube(
                build_presentation_cube(pres, n, k + 1), primes, k)
        return runs[k]

    for k in range(k0, max_class - 1):
        try:
            value, num, den = run(k)
            nxt, _, _ = run(k + 1)
        except SizeLimitError:
            if not runs:
                raise
            break
        if value == nxt:
            return HopfResult(value, num, den, k, "STABLE",
                              _provenance(pres, n, primes, [k, k + 1]))
    return HopfResult(None, None, None, max_class, "UNSTABLE",
                      _provenance(pres, n, primes, sorted(runs)))
