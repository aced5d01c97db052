"""Exact integer matrices with Hermite and Smith normal forms.

Conventions used throughout the package: vectors are rows, lattices are row
spans, and a matrix presents the map x -> x * M.  A relation matrix therefore
has one row per relation, one column per generator.

All arithmetic is arbitrary-precision.  An `IntMatrix` stores only its
nonzero entries, row by row, so the bar oracle's boundary matrices (well
under 1% nonzero) cost memory in proportion to their entries.  Invariant
factors come from one sparse elimination for every matrix.  Hermite forms
come from one sparse elimination with a column index that keeps no
transform: transforms, kernels, solutions and lattice meets are read off
the Hermite form of a block [mat | carry].  The Smith form with
transforms is dense and stays as the reference.

The invariant-factor elimination takes unit pivots from the shortest rows
first (length as read, then row index) and clears a unit's column in one
pass.  The pivot order fixes the fill-in: taken in row order, the pivots
followed whatever order the rows came in, and a row-shuffled degree-4
bar boundary of Q8 took over a minute instead of a fraction of a second.
What no unit clears is finished by the Hermite elimination, run on the
remainder and on its transpose in turn until the form is diagonal.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from math import gcd


class IntMatrix:
    """Immutable integer matrix.

    Each row is stored as a tuple of its nonzero (col, value) pairs in
    ascending column order, so equal matrices compare and hash equal
    however they were built.

    >>> IntMatrix([[1, 2], [3, 4]]).shape
    (2, 2)
    >>> IntMatrix.from_sparse_rows(2, 2, [((1, 5),), ()]).to_rows()
    [[0, 5], [0, 0]]
    """

    __slots__ = ("rows", "cols", "_nz")

    def __init__(self, data, cols=None):
        data = [tuple(row) for row in data]
        if data:
            cols = len(data[0])
            if any(len(row) != cols for row in data):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        self.rows = len(data)
        self.cols = int(cols)
        self._nz = tuple(tuple((j, v) for j, v in enumerate(row) if v)
                         for row in data)

    @classmethod
    def from_sparse_rows(cls, rows, cols, nz):
        """Build from stored rows, each a tuple of its nonzero (col,
        value) pairs in ascending column order; nothing is checked."""
        mat = cls.__new__(cls)
        mat.rows = rows
        mat.cols = cols
        mat._nz = tuple(nz)
        return mat

    @classmethod
    def identity(cls, n):
        return cls.from_sparse_rows(n, n, (((i, 1),) for i in range(n)))

    @classmethod
    def zero(cls, rows, cols):
        return cls.from_sparse_rows(rows, cols, ((),) * rows)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i, j):
        if not 0 <= j < self.cols:
            raise IndexError("column %d out of range" % j)
        for c, v in self._nz[i]:
            if c == j:
                return v
        return 0

    def sparse_rows(self):
        """The stored rows, each a tuple of its nonzero (col, value)
        pairs in ascending column order, as from_sparse_rows takes them."""
        return self._nz

    def row(self, i):
        out = [0] * self.cols
        for j, v in self._nz[i]:
            out[j] = v
        return out

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        onz = other._nz
        out = []
        for row in self._nz:
            acc = {}
            for k, a in row:
                for j, b in onz[k]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
        return IntMatrix.from_sparse_rows(self.rows, other.cols, out)

    def stack(self, other):
        if self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix.from_sparse_rows(self.rows + other.rows,
                                          self.cols, self._nz + other._nz)

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and self.shape == other.shape
                and self._nz == other._nz)

    def __hash__(self):
        return hash((self.shape, self._nz))

    def __repr__(self):
        return "IntMatrix(%r)" % (self.to_rows(),)


def _addmul_row(target, source, q):
    # target += q * source, in place
    for j, s in enumerate(source):
        if s:
            target[j] += q * s


def _split(row, n):
    """A stored row cut at column n: (its entries before n, its entries
    from n on, shifted back by n)."""
    cut = bisect_left(row, (n,))
    return row[:cut], tuple((c - n, v) for c, v in row[cut:])


def _echelon(nz, ncols):
    """Hermite normal form of the stored rows nz (or of rows given as
    dicts from column to value); no transform.

    Returns the nonzero rows of the form, stored, in pivot order: positive
    pivots with the entries above each in [0, pivot).  A caller appends
    columns (an identity block for a transform) to carry the operations
    along; the elimination runs on through them.

    Each row is a dict from column to nonzero value, and a column index
    holds the rows with an entry in each column.  Columns go left to
    right.  A column's pivot is its live (not yet pivot) entry of least
    absolute value, then lowest row, with Euclid steps until it is alone;
    it is made positive, and the pivot rows above that hold an entry in
    the column are reduced into [0, pivot).  A column visits only the
    rows in its index, and a row operation walks only the source row's
    entries.  A live row is zero left of the current column, so a step
    fills in only at or right of it.

    The result does not depend on the pivot order: the Hermite basis of a
    lattice is unique, so these rows equal, entry for entry, those of the
    dense elimination that swapped each pivot row into place.
    """
    rows = [dict(r) for r in nz]
    index = {}
    for i, r in enumerate(rows):
        for c in r:
            index.setdefault(c, set()).add(i)
    placed = [False] * len(rows)

    def addmul(i, src, q):
        # rows[i] += q * src, src a list of (col, value) pairs
        r = rows[i]
        for c, v in src:
            old = r.get(c)
            if old is None:
                r[c] = q * v
                index.setdefault(c, set()).add(i)
            else:
                old += q * v
                if old:
                    r[c] = old
                else:
                    del r[c]
                    index[c].discard(i)

    order = []
    for j in range(ncols):
        col = index.get(j)
        if not col:
            continue
        live = [i for i in col if not placed[i]]
        while len(live) > 1:
            p = min(live, key=lambda i: (abs(rows[i][j]), i))
            a = rows[p][j]
            src = list(rows[p].items())
            for i in live:
                if i != p:
                    addmul(i, src, -(rows[i][j] // a))
            live = [i for i in live if j in rows[i]]
        if live:
            p = live[0]
            prow = rows[p]
            if prow[j] < 0:
                for c in prow:
                    prow[c] = -prow[c]
            a = prow[j]
            src = list(prow.items())
            for i in [i for i in col if placed[i]]:
                q = rows[i][j] // a
                if q:
                    addmul(i, src, -q)
            placed[p] = True
            order.append(p)
    return [tuple(sorted(rows[p].items())) for p in order]


def hnf(mat):
    """Row-style Hermite normal form.

    Returns (H, U) with H = U * mat, U unimodular, H in row echelon form with
    positive pivots and the entries above each pivot reduced into [0, pivot):
    the two halves of the Hermite form of [mat | I].  That block has full
    row rank, so its Hermite form has a row for each row of mat, and it is
    unique: U does not depend on the pivot order either.

    >>> H, U = hnf(IntMatrix([[2, 0], [1, 1]]))
    >>> H.to_rows()
    [[1, 1], [0, 2]]
    >>> U.mul(IntMatrix([[2, 0], [1, 1]])) == H
    True
    """
    m, n = mat.shape
    halves = [_split(row, n) for row in _echelon(
        (row + ((n + i, 1),) for i, row in enumerate(mat._nz)), n + m)]
    return (IntMatrix.from_sparse_rows(m, n, (h for h, _ in halves)),
            IntMatrix.from_sparse_rows(m, m, (u for _, u in halves)))


def left_kernel(mat, modulo=None):
    """Hermite basis of {x : x * mat = 0}, or with `modulo` of
    {x : x * mat in rowspan(modulo)}, one basis vector per row."""
    carry = IntMatrix.identity(mat.rows)
    if modulo is not None:
        mat = mat.stack(modulo)
        carry = carry.stack(IntMatrix.zero(modulo.rows, carry.cols))
    return HnfSolver(mat, carry).kernel


class HnfSolver:
    """One Hermite form of [mat | carry], for many targets.

    Its rows span the pairs (x * mat, x * carry).  Those with a pivot in
    mat's part hold there the Hermite basis `span` of rowspan(mat); the
    others are zero there and hold the Hermite basis `kernel` of
    {x * carry : x * mat = 0}.  The carry defaults to the identity, and
    it must have a row for each row of mat.

    The form comes from the sparse elimination `_echelon`, run on the
    stored rows of the block.  The Hermite form of a lattice is unique,
    so `span`, `kernel` and the rows `solve` reduces by do not depend on
    the pivot order.  `solve` gives one x * carry of many: any two
    differ by an element of `kernel`.  Its callers need no particular
    one.  In FreeNilGroup.extract mat's rows are independent leading
    terms, so the kernel is zero and the solution unique; in pcseq the
    split of a central defect is fixed up to a central witness of the
    meet, which the closure holds anyway (see pcseq.intersect).
    """

    __slots__ = ("span", "kernel", "_pivots")

    def __init__(self, mat, carry=None):
        n = mat.cols
        if carry is None:
            carry = IntMatrix.identity(mat.rows)
        elif carry.rows != mat.rows:
            raise ValueError("shape mismatch")
        block = _echelon((a + tuple((n + c, v) for c, v in b)
                          for a, b in zip(mat._nz, carry._nz)),
                         n + carry.cols)
        k = sum(row[0][0] < n for row in block)
        self._pivots = {row[0][0]: row for row in block[:k]}
        self.span = IntMatrix.from_sparse_rows(
            k, n, (_split(row, n)[0] for row in block[:k]))
        self.kernel = IntMatrix.from_sparse_rows(
            len(block) - k, carry.cols,
            (_split(row, n)[1] for row in block[k:]))

    def solve(self, target):
        """x * carry for some x with x * mat = target, or None; target
        and answer are stored rows, tuples of nonzero (col, value) pairs
        in ascending column order.

        Reducing (target | 0) by the `span` rows leaves (0 | -x * carry).
        A pivot row is zero left of its pivot, so a reduction fills in
        only to the right of the column it clears: the live columns of
        mat's part are taken from a heap, lowest first, and each visits
        the one pivot row of its column.  A live column with no pivot
        row, or an entry its pivot does not divide, stays nonzero
        whatever the later rows do, so the target is outside the span.
        """
        n = self.span.cols
        y = dict(target)
        live = list(y)
        heapq.heapify(live)
        while live:
            j = heapq.heappop(live)
            v = y.get(j)
            if v is None:
                continue
            row = self._pivots.get(j)
            if row is None:
                return None
            q, r = divmod(v, row[0][1])
            if r:
                return None
            for k, a in row:
                v = y.get(k, 0) - q * a
                if not v:
                    del y[k]
                    continue
                if k < n and k not in y:
                    heapq.heappush(live, k)
                y[k] = v
        return tuple(sorted((k - n, -v) for k, v in y.items()))


def lattice_intersection(a, b):
    """Hermite basis of rowspan(a) /\\ rowspan(b): the kernel of
    [a | a ; b | 0] (Zassenhaus; see pcseq.intersect)."""
    carry = a.stack(IntMatrix.zero(b.rows, a.cols))
    return HnfSolver(a.stack(b), carry).kernel


def _swap_cols(W, i, j):
    for row in W:
        row[i], row[j] = row[j], row[i]


def snf(mat):
    """Smith normal form with transforms.

    Returns (D, U, V) with D = U * mat * V diagonal, diagonal entries
    nonnegative and each dividing the next, U and V unimodular.  Pivots are
    chosen by minimal absolute value, ties by position, so output is a
    deterministic function of the input.  The transforms ride along in
    one dense block [mat | I ; I | 0]: row operations on its first m rows
    carry U, column operations on its first n columns carry V.

    >>> D, U, V = snf(IntMatrix([[2, 4], [6, 8]]))
    >>> [D.entry(i, i) for i in range(2)]
    [2, 4]
    >>> U.mul(IntMatrix([[2, 4], [6, 8]])).mul(V) == D
    True
    """
    m, n = mat.shape
    W = [row + [int(i == k) for k in range(m)]
         for i, row in enumerate(mat.to_rows())]
    W.extend([int(i == k) for k in range(n)] + [0] * m for i in range(n))
    t = 0
    while True:
        best = None
        for i in range(t, m):
            row = W[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
            if best is not None and abs(best[2]) == 1:
                break
        if best is None:
            break
        bi, bj, _ = best
        if bi != t:
            W[t], W[bi] = W[bi], W[t]
        if bj != t:
            _swap_cols(W, t, bj)
        while True:
            # clear column t with row operations
            while True:
                nz = [i for i in range(t + 1, m) if W[i][t]]
                if not nz:
                    break
                i0 = min(nz, key=lambda i: (abs(W[i][t]), i))
                if abs(W[i0][t]) < abs(W[t][t]):
                    W[t], W[i0] = W[i0], W[t]
                for i in range(t + 1, m):
                    if W[i][t]:
                        q = W[i][t] // W[t][t]
                        if q:
                            _addmul_row(W[i], W[t], -q)
            # clear row t with column operations
            while True:
                nz = [j for j in range(t + 1, n) if W[t][j]]
                if not nz:
                    break
                j0 = min(nz, key=lambda j: (abs(W[t][j]), j))
                if abs(W[t][j0]) < abs(W[t][t]):
                    _swap_cols(W, t, j0)
                for j in range(t + 1, n):
                    if W[t][j]:
                        q = W[t][j] // W[t][t]
                        for row in W:
                            if row[t]:
                                row[j] -= q * row[t]
            if all(W[i][t] == 0 for i in range(t + 1, m)):
                break
        # enforce divisibility of the remaining block by the pivot
        a = W[t][t]
        culprit = None
        for i in range(t + 1, m):
            row = W[i]
            for j in range(t + 1, n):
                if row[j] % a:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            _addmul_row(W[t], W[culprit], 1)
            continue
        t += 1
        if t == m or t == n:
            break
    for i in range(min(m, n)):
        if W[i][i] < 0:
            W[i] = [-x for x in W[i]]
    return (IntMatrix([r[:n] for r in W[:m]], cols=n),
            IntMatrix([r[n:] for r in W[:m]], cols=m),
            IntMatrix([r[:n] for r in W[m:]], cols=n))


def divisibility_chain(values):
    """Rewrite a multiset of cyclic orders into an invariant-factor chain.

    Repeated gcd/lcm exchanges; the product is preserved at every step.

    Unit entries are kept: they are genuine invariant factors and their
    count enters the rank.

    >>> divisibility_chain([6, 4])
    [2, 12]
    >>> divisibility_chain([2, 3])
    [1, 6]
    """
    ds = [abs(int(v)) for v in values]
    if any(d == 0 for d in ds):
        # zero entries (free ranks) must be handled by the caller
        raise ValueError("divisibility_chain expects nonzero orders")
    changed = True
    while changed:
        changed = False
        for i in range(len(ds) - 1):
            a, b = ds[i], ds[i + 1]
            if b % a:
                g = gcd(a, b)
                ds[i], ds[i + 1] = g, a // g * b
                changed = True
    return ds


def _sparse_diagonal(mat):
    """Diagonal entries of an equivalent diagonal matrix, no transforms.

    Works on dict copies of the stored nonzero rows, with an index of the
    rows that touch each column.  The entries are not yet a divisibility
    chain.

    Pivot order: rows that hold an entry of absolute value 1 wait in a
    heap, each at most once, keyed by (length of the row as read, row
    index), so short rows pivot first; the pivot column is the row's unit
    entry whose column holds the fewest rows.  The order decides the
    fill-in and with it the cost.  Keyed on the row index alone, the
    elimination followed the order the rows came in, and shuffling the
    rows of the Q8 degree-4 bar boundary took it from 0.18 s to over a
    minute.

    A unit pivot needs no Euclid step: every other row r in the pivot
    column becomes r - (r[pj] * pivot) * pivot row, which leaves nothing
    in the column, and column operations against the unit then clear the
    rest of the pivot row, which leaves at once.

    Once no unit is left, the remaining rows go through `_echelon`, and
    its Hermite form is transposed and sent through again, until every
    row of the form holds one entry (Kannan & Bachem, SIAM J. Comput. 8,
    1979).  Each round is unimodular row operations on the matrix or on
    its transpose, and drops only zero rows, so the invariant factors
    are unchanged.  The rounds end.  The first pivot p is alone in its
    column, so the transpose has a row holding p alone, and its first
    column is p's row.  The next first pivot is the gcd of that row: it
    never grows, and it drops strictly until p divides its row.  Then
    the next first row is p alone: its difference from the lone row p
    lies in the span of the rows below and is reduced against their
    pivots, and a zero above a pivot reduces to zero.  From then on p
    stays isolated, and induction on the remaining block ends the
    rounds.
    """
    rows = {}
    col_index = {}
    heap = []
    queued = set()

    def queue(i, r):
        for v in r.values():
            if v == 1 or v == -1:
                heapq.heappush(heap, (len(mat._nz[i]), i))
                queued.add(i)
                return

    for i, nz in enumerate(mat._nz):
        if nz:
            rows[i] = r = dict(nz)
            for j in r:
                col_index.setdefault(j, set()).add(i)
            queue(i, r)
    diag = []
    while heap:
        pi = heapq.heappop(heap)[1]
        queued.discard(pi)
        prow = rows.get(pi)
        units = prow and [j for j, v in prow.items() if v == 1 or v == -1]
        if not units:
            continue
        pj = min(units, key=lambda j: (len(col_index[j]), j))
        del rows[pi]
        pv = prow.pop(pj)
        others = col_index.pop(pj)
        others.discard(pi)
        # the rest of the pivot row times pv: r - r[pj] * rest clears
        # column pj from row r
        rest = []
        for j, v in prow.items():
            col = col_index[j]
            col.discard(pi)
            rest.append((j, v * pv, col))
        for i in others:
            r = rows[i]
            q = r.pop(pj)
            for j, v, col in rest:
                old = r.get(j)
                if old is None:
                    r[j] = -q * v
                    col.add(i)
                else:
                    nv = old - q * v
                    if nv:
                        r[j] = nv
                    else:
                        del r[j]
                        col.discard(i)
            if not r:
                del rows[i]
            elif i not in queued:
                queue(i, r)
        diag.append(1)
    # each remaining row is freed once `_echelon` has copied it
    del col_index
    nz = (rows.pop(i) for i in list(rows))
    ncols = mat.cols
    while True:
        nz = _echelon(nz, ncols)
        if all(len(row) == 1 for row in nz):
            break
        # the transpose of the Hermite form, as stored rows
        ncols = len(nz)
        cols = {}
        for i, row in enumerate(nz):
            for j, v in row:
                cols.setdefault(j, []).append((i, v))
        nz = [tuple(cols[j]) for j in sorted(cols)]
    diag.extend(row[0][1] for row in nz)
    return diag


def snf_diagonal(mat):
    """Invariant factors of mat (the nonzero diagonal of its Smith form).

    One sparse elimination for every matrix, finished with gcd/lcm
    exchanges that restore the divisibility chain.

    >>> snf_diagonal(IntMatrix([[2, 4], [6, 8]]))
    [2, 4]
    """
    return divisibility_chain(_sparse_diagonal(mat))


def bareiss_det(mat):
    """Determinant by fraction-free elimination (exact)."""
    m, n = mat.shape
    if m != n:
        raise ValueError("determinant needs a square matrix")
    if m == 0:
        return 1
    A = mat.to_rows()
    sign = 1
    prev = 1
    for k in range(m - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, m) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[m - 1][m - 1]
