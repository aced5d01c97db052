"""Free nilpotent groups of finite rank and class, with exact arithmetic.

Elements are Mal'cev normal forms over a Hall basis of basic
commutators, denoting the product b_1^e_1 ... b_m^e_m in basis order.
A word stores only its syllables: the (letter, exponent) pairs with
nonzero exponent, in increasing letter order.  The words of a degree-3
Hopf computation on a rank-5 cover hold about five of the 205 letters
of FreeNilGroup(5, 4), so collection, powers, extraction, truncation
and the reductions in pcseq touch the nonzero letters alone; the
central blocks of pcseq.intersect are stored matrix rows read off the
syllables.  A dense exponent vector is built on demand: NilWord.exps
gives the whole vector, for tests and doctests, and weight_one the
generator part, for the relation rows of first homology in
hopf.hopf_pi_n; FreeNilGroup.word is the constructor from such a
vector.

Multiplication is collection from the left.  The commutator tails
it needs are Hall polynomials: for each letter pair the coordinates of
[b_t^f, b_l^e] are integer-valued polynomials in (f, e), derived once per
pair from a few small-exponent tails computed inside a truncated free
associative algebra (the Magnus embedding), then evaluated at any
exponents.  No cost grows with the size of an exponent.

An algebra element is graded, one dict per degree 0..c, and a
monomial's letters are packed into an int, so products hash small ints
and pair only degrees that fit under c.  Each letter keeps the powers
of X = M(b) - 1 up to degree c, which give every M(b)^e with no
product, and a bracket's X is (BA)^-1 (XY - YX) over its factors' A, B,
with (BA)^-1 needed only below degree c - w_a - w_b.

The algebra model doubles as an independent multiplication oracle: the
embedding g -> 1 + (higher terms) is faithful on the class-c truncation,
so disagreement between collection and the model is a hard bug.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb
from operator import itemgetter

from .errors import InternalCheckError, SizeLimitError, ValidationError
from .matrices import HnfSolver, IntMatrix

MAX_BASIS = 2000


def witt_number(d, w):
    """Rank of the weight-w layer of the free Lie ring on d generators.

    >>> [witt_number(2, w) for w in range(1, 6)]
    [2, 1, 2, 3, 6]
    >>> witt_number(1, 3)
    0
    """
    def mobius(n):
        out = 1
        p = 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                out = -out
            p += 1
        if n > 1:
            out = -out
        return out

    total = 0
    e = 1
    while e <= w:
        if w % e == 0:
            total += mobius(e) * d ** (w // e)
        e += 1
    return total // w


class HallLetter:
    """One basic commutator: a generator, or a bracket of earlier letters."""

    __slots__ = ("index", "weight", "left", "right")

    def __init__(self, index, weight, left=None, right=None):
        self.index = index
        self.weight = weight
        self.left = left
        self.right = right

    def __repr__(self):
        if self.left is None:
            return "x%d" % self.index
        return "[%d,%d]" % (self.left, self.right)


class FreeNilGroup:
    """Free nilpotent group of the given rank and class.

    >>> F = FreeNilGroup(2, 2)
    >>> len(F.letters)
    3
    >>> len(FreeNilGroup(2, 3).letters)
    5
    """

    def __init__(self, rank, nclass):
        if rank < 1 or nclass < 1:
            raise ValidationError("need rank >= 1 and class >= 1")
        if nclass > MAX_BASIS:
            # each weight adds a Hall letter at rank >= 2; bound rank 1 too
            raise SizeLimitError("class %d exceeds the Hall basis bound %d"
                                 % (nclass, MAX_BASIS))
        self.rank = rank
        self.nclass = nclass
        letters = [HallLetter(i, 1) for i in range(rank)]
        for w in range(2, nclass + 1):
            pairs = []
            for u in range(len(letters)):
                lu = letters[u]
                for v in range(u):
                    if lu.weight + letters[v].weight != w:
                        continue
                    if lu.left is not None and lu.right > v:
                        continue
                    pairs.append((u, v))
            pairs.sort()
            for u, v in pairs:
                if len(letters) >= MAX_BASIS:
                    raise SizeLimitError("Hall basis exceeds bound %d"
                                         % MAX_BASIS)
                letters.append(HallLetter(len(letters), w, u, v))
        self.letters = letters
        self.weights = tuple(l.weight for l in letters)
        # letters from _stop[l] on commute with b_l and with every heavier
        # letter: they are those of weight > nclass - weight(b_l)
        self._stop = tuple(bisect_right(self.weights, nclass - w)
                           for w in self.weights)
        # letters from _linear on have weight above nclass / 2: their
        # Magnus images minus 1 square to zero in the truncation
        self._linear = bisect_right(self.weights, nclass // 2)
        self._identity = NilWord(self, ())
        self._polys = {}
        # bits per letter of a packed Magnus monomial
        self._bits = max(1, (rank - 1).bit_length())
        self._magnus_letters = [None] * len(letters)
        self._solvers = {}

    def identity(self):
        return self._identity

    def generator(self, i):
        if not 0 <= i < self.rank:
            raise ValidationError("no generator %d" % i)
        return self.letter(i)

    def letter(self, i):
        """The basis letter b_i as a word."""
        if not 0 <= i < len(self.letters):
            raise ValidationError("no letter %d" % i)
        return NilWord(self, ((i, 1),))

    def word(self, exps):
        """The word with the dense exponent vector `exps`."""
        exps = [int(e) for e in exps]
        if len(exps) != len(self.letters):
            raise ValidationError("exponent vector length mismatch")
        return NilWord(self, tuple((l, e) for l, e in enumerate(exps) if e))

    # ---- collection -----------------------------------------------------

    def multiply(self, u, v):
        """Normal form of u * v by collection from the left.

        >>> F = FreeNilGroup(2, 2)
        >>> x1, x2 = F.generator(0), F.generator(1)
        >>> F.multiply(x2, x1).exps   # x2 x1 = x1 x2 [x2,x1]
        (1, 1, 1)
        >>> xy = F.multiply(x1, x2)
        >>> F.multiply(xy, xy).exps   # (x1 x2)^2 = x1^2 x2^2 c
        (2, 2, 1)

        When the leading weights of u and v add up past the class, every
        letter of u commutes with every letter of v (their commutators
        have weight above the class), so the product is the coordinate
        sum and needs no collection.
        """
        if u.parent is not self or v.parent is not self:
            raise ValidationError("words from a different group")
        head, tail = u._sylls, v._sylls
        if not head or not tail:
            return v if not head else u
        if self.weights[head[0][0]] + self.weights[tail[0][0]] > self.nclass:
            if len(head) < len(tail):
                head, tail = tail, head
            out = dict(head)
            get = out.get
            fresh = False
            for l, e in tail:
                a = get(l)
                if a is None:
                    out[l] = e
                    fresh = True
                elif a + e:
                    out[l] = a + e
                else:
                    del out[l]
            # the dict keeps head's letters in order, and fresh letters
            # follow them in order: at most two sorted runs to merge
            return NilWord(self, tuple(sorted(out.items()) if fresh
                                       else out.items()))
        return self._collect(head, list(reversed(tail)))

    def inverse(self, u):
        """u^-1; a word whose letters commute pairwise is negated."""
        sylls = u._sylls
        if not sylls or 2 * self.weights[sylls[0][0]] > self.nclass:
            return NilWord(self, tuple((l, -e) for l, e in sylls))
        return self._collect((), [(l, -e) for l, e in sylls])

    def _collect(self, head, stack):
        """The normal form of the word `head` times the syllables on
        `stack`, which is consumed from its end.

        The result is kept as its nonzero letters, in order, and their
        exponents.  Multiplying by b_l^e moves each b_m^a of the result
        with l < m < _stop[l] back onto the stack as b_m^a [b_m^a, b_l^e],
        since b_m^a b_l^e = b_l^e b_m^a [b_m^a, b_l^e]; bisection finds
        those letters without a scan of the ones outside the range.  The
        letters from _stop[l] on commute with b_l and with every letter
        between l and them, so they keep their place.
        """
        tail = self.tail
        stop = self._stop
        keys = [l for l, _ in head]
        vals = [e for _, e in head]
        pop, push, extend = stack.pop, stack.append, stack.extend
        while stack:
            l, e = pop()
            i = bisect_right(keys, l)
            j = bisect_left(keys, stop[l], i)
            if i < j:
                for k in range(j - 1, i - 1, -1):
                    m, a = keys[k], vals[k]
                    extend(reversed(tail(m, l, a, e)))
                    push((m, a))
                del keys[i:j], vals[i:j]
            if i and keys[i - 1] == l:
                e += vals[i - 1]
                if e:
                    vals[i - 1] = e
                else:
                    del keys[i - 1], vals[i - 1]
            else:
                keys.insert(i, l)
                vals.insert(i, e)
        return NilWord(self, tuple(zip(keys, vals)))

    def tail(self, t, l, f, e):
        """Syllables of [b_t^f, b_l^e], the collection correction term.

        Each coordinate is an integer-valued polynomial in (f, e).  Write
        w_k for the weight of letter k.  The Magnus image of b^f is
        sum_k C(f, k) X^k, where X = M(b) - 1 has only terms of length
        >= weight(b); so giving f the weight w_t and e the weight w_l,
        every coefficient of a length-n monomial of M(b_t^f) and M(b_l^e)
        is a polynomial of weighted degree <= n.  Products and inverses
        add degrees as they add lengths, and extract solves each layer
        linearly and strips powers b_k^c whose Magnus images obey the same
        bound, so the coordinate of a weight-w letter in [b_t^f, b_l^e]
        has weighted degree <= w.  It vanishes at f = 0 and at e = 0.  In
        the basis C(f, i) C(e, j) it is therefore supported on i, j >= 1
        with i w_t + j w_l <= w, and its coefficients are the 2-D forward
        differences at the origin of its values on that grid, computed
        once per pair by _tail_poly.
        """
        poly = self._polys.get((t, l))
        if poly is None:
            poly = self._polys[t, l] = self._tail_poly(t, l)
        if not poly or not f or not e:
            return ()
        df, de, rows = poly
        bf, be = _binomials(f, df), _binomials(e, de)
        out = []
        for k, terms in rows:
            v = 0
            for i, j, a in terms:
                v += a * bf[i] * be[j]
            if v:
                out.append((k, v))
        return tuple(out)

    def _tail_poly(self, t, l):
        """(max i, max j, rows) of the Hall polynomials of the pair (t, l).

        rows lists (letter k, ((i, j, a_ij), ...)) in letter order, where
        coordinate k of [b_t^f, b_l^e] is sum a_ij C(f, i) C(e, j).  Empty
        if the letters commute.
        """
        nclass = self.nclass
        wt, wl = self.weights[t], self.weights[l]
        if t == l or wt + wl > nclass:
            return ()
        df, de = (nclass - wl) // wt, (nclass - wt) // wl
        grid = [(i, j) for i in range(1, df + 1) for j in range(1, de + 1)
                if i * wt + j * wl <= nclass]
        values = {(i, j): self.extract([{0: 1}] + self._bracket(
                      t, i, l, j)[1:]).syllables()
                  for i, j in grid}
        rows = {}
        for i, j in grid:
            coeffs = {}
            for i2 in range(1, i + 1):
                for j2 in range(1, j + 1):
                    s = (-1) ** (i - i2 + j - j2) * comb(i, i2) * comb(j, j2)
                    for k, x in values[i2, j2]:
                        coeffs[k] = coeffs.get(k, 0) + s * x
            for k, a in coeffs.items():
                if not a:
                    continue
                if i * wt + j * wl > self.weights[k]:
                    raise InternalCheckError(
                        "tail of (%d, %d) exceeds its degree bound" % (t, l))
                rows.setdefault(k, []).append((i, j, a))
        return df, de, tuple((k, tuple(terms))
                             for k, terms in sorted(rows.items()))

    # ---- Magnus model ---------------------------------------------------

    def _magnus_letter(self, i):
        """(X, X^2, ..., X^k) for X = M(b_i) - 1 and k = c // w_i, built
        on first use.

        Each entry is graded as in magnus_image, with layer 0 empty.  X
        has no term of degree below w_i, so X^(k+1) vanishes, and
        M(b_i)^e = sum_k C(e, k) X^k (_letter_power) needs no product.
        A generator's X is its own letter.  A bracket [a, b]'s X is
        (BA)^-1 (XY - YX) over A = 1 + X and B = 1 + Y, the images of a
        and b, with (BA)^-1 taken only up to degree c - w_a - w_b
        (_bracket): no image is powered or inverted by products.
        """
        table = self._magnus_letters[i]
        if table is None:
            letter = self.letters[i]
            if letter.left is None:
                x = [{}, {i: 1}] + [{} for _ in range(self.nclass - 1)]
            else:
                x = self._bracket(letter.left, 1, letter.right, 1)
            table = [x]
            for _ in range(1, self.nclass // letter.weight):
                table.append(_alg_mul(table[-1], x, self._bits))
            self._magnus_letters[i] = table
        return table

    def _letter_power(self, l, e, top):
        """M(b_l)^e = sum_k C(e, k) X_l^k, up to degree top."""
        table = self._magnus_letter(l)
        if e == 1:    # X's own layers: no caller changes a layer it gets
            return [{0: 1}] + table[0][1:top + 1]
        return _alg_add(_alg_one(top), zip(
            _binomials(e, len(table))[1:], table))

    def _bracket(self, t, f, l, e):
        """M([b_t^f, b_l^e]) - 1, for w_t + w_l <= c.

        Write A = M(b_t^f) = 1 + X and B = M(b_l^e) = 1 + Y.  The
        commutator's image is A^-1 B^-1 A B = (BA)^-1 AB, so its part
        above 1 is (BA)^-1 (AB - BA), and AB - BA = XY - YX since the
        1 and the linear terms cancel.  XY - YX has no term of degree
        below w_t + w_l, so only the terms of (BA)^-1 = A^-1 B^-1 of
        degree <= c - w_t - w_l reach the truncation: the product of
        the two inverse powers is formed up to that degree only, and
        for a pair of weight c it is 1.
        """
        nclass, bits = self.nclass, self._bits
        x, y = (self._letter_power(t, f, nclass),
                self._letter_power(l, e, nclass))
        x[0] = y[0] = {}
        z = _alg_add(_alg_mul(x, y, bits), [(-1, _alg_mul(y, x, bits))])
        top = nclass - self.weights[t] - self.weights[l]
        if top:
            z = _alg_mul(_alg_mul(self._letter_power(t, -f, top),
                                  self._letter_power(l, -e, top), bits),
                         z, bits)
        return z

    def magnus_image(self, u):
        """Image of a normal form in the truncated free algebra.

        The image is graded: a list of c + 1 dicts, where layer L maps
        each length-L monomial, its letters packed into an int of _bits
        bits per letter, to its coefficient.  Write X_l = M(b_l) - 1; it
        has only terms of degree >= w_l.  Each M(b_l)^e comes from the
        letter's power table.  When 2 w_l > c, X_l^2 vanishes in the
        truncation, so M(b_l)^e = 1 + e X_l, and a product of such
        factors is 1 plus the sum of their e X_l, since every cross term
        has degree above c.  Letters are sorted by weight, so these are
        the trailing syllables: only the letters of weight <= c/2 are
        multiplied out, and the rest are applied as one summed factor.
        """
        nclass, bits = self.nclass, self._bits
        sylls = u.syllables()
        split = bisect_left(sylls, self._linear, key=itemgetter(0))
        z = _alg_one(nclass)
        for l, e in sylls[:split]:
            z = _alg_mul(z, self._letter_power(l, e, nclass), bits)
        if split < len(sylls):
            z = _alg_mul(z, _alg_add(_alg_one(nclass), [
                (e, self._magnus_letter(l)[0]) for l, e in sylls[split:]]),
                bits)
        return z

    def _solver(self, w):
        solver = self._solvers.get(w)
        if solver is None:
            idx = [i for i in range(len(self.letters))
                   if self.weights[i] == w]
            leads = [self._magnus_letter(i)[0][w] for i in idx]
            mono_pos = {m: j for j, m in enumerate(
                sorted({m for lead in leads for m in lead}))}
            rows = [tuple(sorted((mono_pos[m], c) for m, c in lead.items()))
                    for lead in leads]
            solver = (idx, mono_pos, HnfSolver(IntMatrix.from_sparse_rows(
                len(rows), len(mono_pos), rows)))
            self._solvers[w] = solver
        return solver

    def extract(self, z):
        """Recover the normal form whose Magnus image is z.

        z is graded as in magnus_image, one dict of packed monomials per
        degree, and peeled one weight layer at a time.  z must be a unit, 1 + (terms of degree >= 1), and the
        unit coefficient is checked first.  Before layer w the residue
        is 1 + R, with R of degree >= w; its degree-w layer is solved as
        an integer combination of the leading layers of the weight-w
        letters' images, giving the strip S = prod M(b_i)^c_i = 1 + T,
        T of degree >= w, and the residue becomes S^-1 (1 + R).  For
        2w <= c, S^-1 is the reversed product of the letters' inverse
        powers, read off their power tables.  For 2w > c,
        S = 1 + sum c_i X_i and S^-1 = 1 - sum c_i X_i (X_i = M(b_i) - 1),
        and (1 - T)(1 + R) = 1 + R - T because TR has degree >= 2w > c,
        so these top layers only subtract.  A layer that is not an
        integer combination of basic-commutator leading terms, or a
        residue left over at the end, means z was not the image of a
        group element, which is an internal bug.
        """
        if z[0].get(0, 0) != 1:
            raise InternalCheckError("unit coefficient corrupted")
        nclass, bits = self.nclass, self._bits
        sylls = []
        residue = z
        for w in range(1, nclass + 1):
            layer = residue[w]
            if not layer:
                continue
            idx, mono_pos, solver = self._solver(w)
            target = []
            for m, c in layer.items():
                if m not in mono_pos:
                    raise InternalCheckError(
                        "weight-%d layer outside the Hall span" % w)
                target.append((mono_pos[m], c))
            coeffs = solver.solve(sorted(target))
            if coeffs is None:
                raise InternalCheckError(
                    "weight-%d layer is not an integer Hall combination" % w)
            # letters are sorted by weight, so the strips concatenate
            # into the syllables in letter order
            strip = [(idx[j], c) for j, c in coeffs]
            sylls.extend(strip)
            if 2 * w > nclass:
                residue = _alg_add(residue, [
                    (-c, self._magnus_letter(i)[0]) for i, c in strip])
                continue
            inverse = _alg_one(nclass)
            for i, c in reversed(strip):
                inverse = _alg_mul(inverse, self._letter_power(i, -c, nclass),
                                   bits)
            residue = _alg_mul(inverse, residue, bits)
        if any(residue[1:]):
            raise InternalCheckError("nonidentity residue after extraction")
        return NilWord(self, tuple(sylls))

    def multiply_via_model(self, u, v):
        """Independent product via the algebra model (oracle for multiply)."""
        return self.extract(_alg_mul(self.magnus_image(u),
                                     self.magnus_image(v), self._bits))

    # ---- truncation -----------------------------------------------------

    def truncated(self):
        """The class-(c-1) group on the same generators.

        Its Hall letters are exactly the weight < c prefix of this basis,
        so truncating a word is dropping the top-weight coordinates.
        """
        if self.nclass == 1:
            raise ValidationError("cannot truncate class 1")
        return free_nil_group(self.rank, self.nclass - 1)

    def lift_word(self, u):
        """Zero-pad a word of the truncation back into this group.

        A section of dropping the top-weight coordinates, not a
        homomorphism.
        """
        if u.parent is not self.truncated():
            raise ValidationError("word not from the truncation")
        return NilWord(self, u._sylls)

    def truncate_word(self, u):
        """Image of a word of a higher-class group on the same generators.

        This group's letters are a prefix of that group's, and dropping
        the other coordinates is the quotient map.
        """
        F = u.parent
        if F.rank != self.rank or F.nclass < self.nclass:
            raise ValidationError("not a truncation of the word's group")
        sylls = u._sylls
        return NilWord(self, sylls[:bisect_left(sylls, (len(self.letters),))])

    def __repr__(self):
        return "FreeNilGroup(rank=%d, class=%d)" % (self.rank, self.nclass)


_GROUPS = {}


def free_nil_group(rank, nclass):
    """The shared FreeNilGroup of this rank and class.

    The package builds every group here, so each collection tail is
    derived once per process.
    """
    F = _GROUPS.get((rank, nclass))
    if F is None:
        F = _GROUPS[rank, nclass] = FreeNilGroup(rank, nclass)
    return F


class NilWord:
    """An element in Mal'cev normal form, stored as its syllables.

    The syllables are the (letter index, exponent) pairs with nonzero
    exponent, in strictly increasing letter order: the normal form is
    unique, so equality and hashing compare syllables.  `exps` builds the
    dense exponent vector on demand.
    """

    __slots__ = ("parent", "_sylls")

    def __init__(self, parent, sylls):
        self.parent = parent
        self._sylls = sylls

    def syllables(self):
        """The nonzero (letter index, exponent) pairs in letter order."""
        return self._sylls

    @property
    def exps(self):
        """The dense exponent vector over every letter of the parent."""
        out = [0] * len(self.parent.letters)
        for l, e in self._sylls:
            out[l] = e
        return tuple(out)

    def exponent(self, l):
        """The exponent of letter l."""
        sylls = self._sylls
        i = bisect_left(sylls, (l,))
        return sylls[i][1] if i < len(sylls) and sylls[i][0] == l else 0

    def is_identity(self):
        return not self._sylls

    def leading(self):
        """(letter index, exponent) of the first nonzero coordinate."""
        sylls = self._sylls
        return sylls[0] if sylls else None

    def weight_one(self):
        """The generator-exponent vector (the abelianization image)."""
        rank = self.parent.rank
        out = [0] * rank
        for l, e in self._sylls:
            if l >= rank:
                break
            out[l] = e
        return out

    def mul(self, other):
        return self.parent.multiply(self, other)

    def inverse(self):
        return self.parent.inverse(self)

    def pow(self, n):
        """self^n; a word whose letters commute pairwise is scaled."""
        F = self.parent
        sylls = self._sylls
        if not sylls or 2 * F.weights[sylls[0][0]] > F.nclass:
            return NilWord(F, tuple((l, n * e) for l, e in sylls)
                           if n else ())
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        out = F.identity()
        while n:
            if n & 1:
                out = out.mul(base)
            n >>= 1
            if n:
                base = base.mul(base)
        return out

    def conj(self, by):
        """by^-1 * self * by."""
        return by.inverse().mul(self).mul(by)

    def comm(self, other):
        """[self, other] = self^-1 other^-1 self other."""
        return self.inverse().mul(other.inverse()).mul(self).mul(other)

    def __eq__(self, other):
        return (isinstance(other, NilWord) and self.parent is other.parent
                and self._sylls == other._sylls)

    def __hash__(self):
        return hash(self._sylls)

    def __repr__(self):
        return "NilWord(%r)" % (self._sylls,)


class NilHom:
    """Homomorphism between free nilpotent groups, given on generators."""

    __slots__ = ("src", "dst", "images", "_letter_images")

    def __init__(self, src, dst, images):
        if len(images) != src.rank:
            raise ValidationError("need one image per generator")
        for w in images:
            if w.parent is not dst:
                raise ValidationError("images must live in the codomain")
        self.src = src
        self.dst = dst
        self.images = list(images)
        self._letter_images = {}

    def letter_image(self, i):
        img = self._letter_images.get(i)
        if img is None:
            letter = self.src.letters[i]
            if letter.left is None:
                img = self.images[i]
            else:
                img = self.letter_image(letter.left).comm(
                    self.letter_image(letter.right))
            self._letter_images[i] = img
        return img

    def apply(self, u):
        out = self.dst.identity()
        for l, e in u.syllables():
            out = out.mul(self.letter_image(l).pow(e))
        return out


# ---- truncated free associative algebra ---------------------------------
#
# An element is graded: a list of c + 1 dicts, layer L mapping each
# length-L noncommutative monomial to its integer coefficient.  A
# monomial's generator indices are packed into an int, `bits` bits per
# letter with the first letter highest, so concatenating x of length L1
# and y of length L2 is (x << bits * L2) | y and no tuple is hashed.
# No zero coefficient is stored, monomials longer than the class are
# dropped, and a list that ends early is zero above its last layer.
# Group elements embed as units 1 + (degree >= 1 terms).

def _alg_one(nclass):
    return [{0: 1}] + [{} for _ in range(nclass)]


def _alg_add(z, terms):
    """z + sum s a over the pairs (s, a) in terms, as a new element of
    z's length."""
    out = [dict(layer) for layer in z]
    for s, a in terms:
        for layer, part in zip(out, a if s else ()):
            get = layer.get
            for m, c in part.items():
                layer[m] = get(m, 0) + s * c
    return [{m: c for m, c in layer.items() if c} for layer in out]


def _alg_mul(a, b, bits):
    """a b, up to the degree of the longer of the two lists."""
    top = max(len(a), len(b)) - 1
    # layer 0 holds the empty monomial 0 alone, so a pair with a factor
    # in layer 0 scales the other factor's layer: no packing
    a0, b0 = a[0].get(0, 0), b[0].get(0, 0)
    out = [{} for _ in range(top + 1)]
    if a0:
        out[:len(b)] = [dict(y) if a0 == 1 else
                        {m: a0 * c for m, c in y.items()} for y in b]
    for l1 in range(1, len(a)):
        x = a[l1]
        if not x:
            continue
        if b0:
            layer = out[l1]
            get = layer.get
            for m, c in x.items():
                layer[m] = get(m, 0) + b0 * c
        for l2 in range(1, min(len(b), top + 1 - l1)):
            y = b[l2]
            if not y:
                continue
            shift = bits * l2
            layer = out[l1 + l2]
            get = layer.get
            for m1, c1 in x.items():
                m1 <<= shift
                for m2, c2 in y.items():
                    key = m1 | m2
                    layer[key] = get(key, 0) + c1 * c2
    return [{m: c for m, c in layer.items() if c} for layer in out]


def _binomials(n, k):
    """[C(n, 0), ..., C(n, k)], for any integer n."""
    out = [1]
    for i in range(1, k + 1):
        out.append(out[-1] * (n - i + 1) // i)
    return out
