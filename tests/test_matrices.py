import random
import tracemalloc

import pytest

from hopfgal import pcseq
from hopfgal.corpus import PRESENTED
from hopfgal.hopf import NilPresentation, build_presentation_cube
from hopfgal.matrices import (
    HnfSolver, IntMatrix, hnf, snf, snf_diagonal, left_kernel,
    lattice_intersection, divisibility_chain, bareiss_det,
)


def is_unimodular(U):
    return abs(bareiss_det(U)) == 1


def reference_hnf(mat):
    """The Hermite loop hnf ran before it became the echelon of [mat | I]:
    H and U as separate dense copies, each row operation applied to both."""
    m, n = mat.shape
    H = mat.to_rows()
    U = IntMatrix.identity(m).to_rows()

    def addmul(target, source, q):
        for j, s in enumerate(source):
            target[j] += q * s

    r = 0
    for j in range(n):
        if r == m:
            break
        while True:
            pivots = [i for i in range(r, m) if H[i][j]]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: (abs(H[i][j]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            clean = True
            a = H[r][j]
            for i in range(r + 1, m):
                if H[i][j]:
                    q = H[i][j] // a
                    if q:
                        addmul(H[i], H[r], -q)
                        addmul(U[i], U[r], -q)
                    if H[i][j]:
                        clean = False
            if clean:
                break
        if H[r][j]:
            if H[r][j] < 0:
                H[r] = [-x for x in H[r]]
                U[r] = [-x for x in U[r]]
            a = H[r][j]
            for i in range(r):
                q = H[i][j] // a
                if q:
                    addmul(H[i], H[r], -q)
                    addmul(U[i], U[r], -q)
            r += 1
    return IntMatrix(H, cols=n), IntMatrix(U, cols=m)


def reference_span(mat):
    """Nonzero rows of the reference Hermite form."""
    H, _ = reference_hnf(mat)
    return IntMatrix([row for row in H.to_rows() if any(row)], cols=mat.cols)


def reference_kernel(mat):
    """The rows of the reference transform that H sends to zero."""
    H, U = reference_hnf(mat)
    return IntMatrix([U.row(i) for i in range(mat.rows) if not any(H.row(i))],
                     cols=mat.rows)


def reference_lattice_intersection(a, b):
    """The route lattice_intersection took before the Zassenhaus block:
    the kernel of [a ; -b], its a-part times a, and a Hermite form."""
    if a.rows == 0 or b.rows == 0:
        return IntMatrix([], cols=a.cols)
    neg = IntMatrix([[-x for x in row] for row in b.to_rows()], cols=b.cols)
    kern = reference_kernel(a.stack(neg))
    rows = [IntMatrix([k[:a.rows]], cols=a.rows).mul(a).row(0)
            for k in kern.to_rows()]
    return reference_span(IntMatrix(rows, cols=a.cols))


def reference_echelon(rows):
    """The dense Hermite elimination that _echelon replaced, in place on
    list rows: the same column-by-column rule, each pivot row swapped
    into place; returns the pivot columns."""
    m = len(rows)
    pivots = []

    def addmul(target, nz, q):
        for k, v in nz:
            target[k] += q * v

    for j in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        live = [i for i in range(r, m) if rows[i][j]]
        while len(live) > 1:
            i0 = min(live, key=lambda i: (abs(rows[i][j]), i))
            nz = [(k, v) for k, v in enumerate(rows[i0][j:], j) if v]
            for i in live:
                if i != i0:
                    addmul(rows[i], nz, -(rows[i][j] // nz[0][1]))
            live = [i for i in live if rows[i][j]]
        if live:
            prow = rows[live[0]]
            if prow[j] < 0:
                prow = [-v for v in prow]
            rows[live[0]], rows[r] = rows[r], prow
            nz = [(k, v) for k, v in enumerate(prow[j:], j) if v]
            for row in rows[:r]:
                if row[j]:
                    addmul(row, nz, -(row[j] // prow[j]))
            pivots.append(j)
    return pivots


def reference_block(mat, carry):
    """(span, kernel) of the dense Hermite form of [mat | carry]."""
    n = mat.cols
    rows = [r + c for r, c in zip(mat.to_rows(), carry.to_rows())]
    pivots = reference_echelon(rows)
    k = sum(j < n for j in pivots)
    return (IntMatrix([r[:n] for r in rows[:k]], cols=n),
            IntMatrix([r[n:] for r in rows[k:len(pivots)]], cols=carry.cols))


def reference_block_hnf(mat):
    """(H, U): the two halves of the dense Hermite form of [mat | I]."""
    m, n = mat.shape
    rows = [r + c for r, c in zip(mat.to_rows(),
                                  IntMatrix.identity(m).to_rows())]
    reference_echelon(rows)
    return (IntMatrix([r[:n] for r in rows], cols=n),
            IntMatrix([r[n:] for r in rows], cols=m))


def stored(row):
    """A dense row as solve takes it: its nonzero (col, value) pairs."""
    return tuple((j, v) for j, v in enumerate(row) if v)


def dense(row, n):
    """A stored row of n columns as a dense list."""
    out = [0] * n
    for j, v in row:
        out[j] = v
    return out


def reference_solve(mat, carry, target):
    """The dense solve HnfSolver ran before it took stored rows: (target
    | 0) reduced by every pivot row of the dense Hermite form of
    [mat | carry] in turn; -x * carry as a dense list, or None."""
    n = mat.cols
    rows = [r + c for r, c in zip(mat.to_rows(), carry.to_rows())]
    pivots = reference_echelon(rows)
    y = list(target) + [0] * carry.cols
    for row, j in zip(rows, pivots):
        if j >= n:
            break
        if y[j] % row[j]:
            return None
        q = -(y[j] // row[j])
        if q:
            for k, v in enumerate(row):
                y[k] += q * v
    if any(y[:n]):
        return None
    return [-v for v in y[n:]]


def is_hermite(M):
    """Echelon rows, no zero row, positive pivots, entries above each
    pivot in [0, pivot)."""
    rows = M.to_rows()
    leads = [next((j for j, v in enumerate(row) if v), None) for row in rows]
    if None in leads or leads != sorted(set(leads)):
        return False
    return all(rows[i][j] > 0 and all(0 <= rows[k][j] < rows[i][j]
                                      for k in range(i))
               for i, j in enumerate(leads))


def random_matrix(rng, m, n):
    """Entries of both signs, with some zero rows and zero columns."""
    zero_rows = {i for i in range(m) if rng.random() < 0.2}
    zero_cols = {j for j in range(n) if rng.random() < 0.2}
    return IntMatrix([[0 if i in zero_rows or j in zero_cols
                       else rng.randrange(-9, 10) for j in range(n)]
                      for i in range(m)], cols=n)


def test_hnf_matches_the_reference_loop():
    rng = random.Random(23)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)] + [
        (rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(300)]
    negative_pivot = IntMatrix([[-2, 1, 0], [0, -3, 5], [-4, 0, -1]])
    cases = [random_matrix(rng, m, n) for m, n in shapes] + [negative_pivot]
    for M in cases:
        H, U = hnf(M)
        assert H == reference_hnf(M)[0]
        assert U.mul(M) == H
        assert is_unimodular(U)


def test_left_kernel_is_the_hermite_basis_of_the_kernel():
    rng = random.Random(24)
    for _ in range(200):
        M = random_matrix(rng, rng.randrange(0, 7), rng.randrange(0, 6))
        K = left_kernel(M)
        assert is_hermite(K)
        assert K.mul(M) == IntMatrix.zero(K.rows, M.cols)
        # the reference transform's kernel rows span the kernel, and the
        # Hermite basis of a lattice is unique
        assert K == reference_span(reference_kernel(M))


def test_left_kernel_modulo_a_lattice():
    # {x : x * D in rowspan(L)} is the projection of the kernel of [D; L]
    rng = random.Random(25)
    for _ in range(150):
        n = rng.randrange(1, 5)
        D = random_matrix(rng, rng.randrange(0, 5), n)
        L = random_matrix(rng, rng.randrange(0, 4), n)
        kern = reference_kernel(D.stack(L))
        expect = reference_span(IntMatrix(
            [row[:D.rows] for row in kern.to_rows()], cols=D.rows))
        assert left_kernel(D, L) == expect


def test_lattice_intersection_matches_the_old_route():
    rng = random.Random(26)
    for _ in range(200):
        n = rng.randrange(1, 6)
        A = random_matrix(rng, rng.randrange(0, 5), n)
        B = random_matrix(rng, rng.randrange(0, 5), n)
        expect = reference_lattice_intersection(A, B)
        assert lattice_intersection(A, B) == expect


def test_solver_with_a_carry_splits_a_sum():
    # [A | A ; B | 0]: span is A + B, kernel is the meet, and solve(d)
    # is an A-part a of d with d - a in B
    rng = random.Random(27)
    for _ in range(150):
        n = rng.randrange(1, 5)
        A = random_matrix(rng, rng.randrange(1, 4), n)
        B = random_matrix(rng, rng.randrange(1, 4), n)
        glue = HnfSolver(A.stack(B), A.stack(IntMatrix.zero(B.rows, n)))
        assert glue.span == reference_span(A.stack(B))
        assert glue.kernel == reference_lattice_intersection(A, B)
        x = [rng.randrange(-4, 5) for _ in range(A.rows + B.rows)]
        d = IntMatrix([x], cols=A.rows + B.rows).mul(A.stack(B)).row(0)
        a = dense(glue.solve(stored(d)), n)
        assert HnfSolver(A).solve(stored(a)) is not None
        assert HnfSolver(B).solve(
            stored([u - v for u, v in zip(d, a)])) is not None


def test_hnf_worked_example():
    H, U = hnf(IntMatrix([[2, 0], [1, 1]]))
    assert H.to_rows() == [[1, 1], [0, 2]]
    assert U.mul(IntMatrix([[2, 0], [1, 1]])) == H
    assert is_unimodular(U)


def test_snf_worked_example():
    M = IntMatrix([[2, 4], [6, 8]])
    D, U, V = snf(M)
    assert [D.entry(i, i) for i in range(2)] == [2, 4]
    assert U.mul(M).mul(V) == D
    assert is_unimodular(U) and is_unimodular(V)


def test_divisibility_chain_example():
    assert divisibility_chain([6, 4]) == [2, 12]
    assert snf_diagonal(IntMatrix([[6, 0], [0, 4]])) == [2, 12]


def test_hnf_shape_properties():
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        M = IntMatrix([[rng.randrange(-9, 10) for _ in range(n)]
                       for _ in range(m)])
        H, U = hnf(M)
        assert U.mul(M) == H
        assert is_unimodular(U)
        # echelon with positive pivots, entries above reduced
        lead_prev = -1
        for row in H.to_rows():
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                continue
            assert lead > lead_prev
            lead_prev = lead
            assert row[lead] > 0
        hrows = H.to_rows()
        for i, row in enumerate(hrows):
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                continue
            for k in range(i):
                assert 0 <= hrows[k][lead] < row[lead]


def test_snf_properties():
    rng = random.Random(12)
    for _ in range(200):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        M = IntMatrix([[rng.randrange(-9, 10) for _ in range(n)]
                       for _ in range(m)])
        D, U, V = snf(M)
        assert U.mul(M).mul(V) == D
        assert is_unimodular(U) and is_unimodular(V)
        diag = [D.entry(i, i) for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert D.entry(i, j) == 0
        nz = [d for d in diag if d]
        assert all(d > 0 for d in nz)
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0
        # no nonzero after a zero on the diagonal
        seen_zero = False
        for d in diag:
            if d == 0:
                seen_zero = True
            elif seen_zero:
                pytest.fail("zero before nonzero on Smith diagonal")


def test_snf_diagonal_matches_dense_and_sparse():
    # the one sparse path against the diagonal of the dense Smith form
    rng = random.Random(13)
    for _ in range(120):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        entries = [[0] * n for _ in range(m)]
        for _ in range(rng.randrange(0, m * n + 1)):
            entries[rng.randrange(m)][rng.randrange(n)] = rng.randrange(-9, 10)
        M = IntMatrix(entries)
        D, _, _ = snf(M)
        expect = [D.entry(i, i) for i in range(min(m, n)) if D.entry(i, i)]
        assert snf_diagonal(M) == expect
        nz = [tuple((j, v) for j, v in enumerate(row) if v)
              for row in entries]
        assert snf_diagonal(IntMatrix.from_sparse_rows(m, n, nz)) == expect
    # no unit anywhere, so the alternating Hermite forms do all the work:
    # the first Hermite form of [[2, 3], [0, 2]] is not diagonal; tall
    # blocks in the shapes bar boundaries leave after their units, with
    # every fourth column even; and one of them times 2^40
    assert snf_diagonal(IntMatrix([[2, 3], [0, 2]])) == [1, 4]
    blocks = [[[2, 3], [0, 2]]]
    for m, n in ((300, 4), (800, 12)):
        blocks.append([[rng.choice((2, -2, 4, -4, 6, 9) if j % 4
                                   else (2, -2, 4, -4, 6))
                        if rng.random() < 0.4 else 0 for j in range(n)]
                       for _ in range(m)])
    blocks.append([[v << 40 for v in row] for row in blocks[1]])
    for entries in blocks:
        M = IntMatrix(entries)
        D, _, _ = snf(M)
        expect = [D.entry(i, i) for i in range(M.cols) if D.entry(i, i)]
        assert snf_diagonal(M) == expect


def test_snf_diagonal_ignores_row_and_column_order():
    # units and non-units mixed (some matrices have no unit at all), so
    # both pivot paths run; permuting rows and columns changes the pivot
    # order but not the invariant factors
    rng = random.Random(22)
    for trial in range(60):
        m, n = rng.randrange(1, 13), rng.randrange(1, 13)
        values = (2, -2, 3, 4, -6, 9) if trial % 4 == 0 else (1, -1, 2, -3, 4)
        entries = [[rng.choice(values) if rng.random() < 0.35 else 0
                    for _ in range(n)] for _ in range(m)]
        D, _, _ = snf(IntMatrix(entries, cols=n))
        expect = [D.entry(i, i) for i in range(min(m, n)) if D.entry(i, i)]
        assert snf_diagonal(IntMatrix(entries, cols=n)) == expect
        for _ in range(3):
            rows = rng.sample(entries, m)
            cols = rng.sample(range(n), n)
            permuted = [[row[j] for j in cols] for row in rows]
            assert snf_diagonal(IntMatrix(permuted, cols=n)) == expect


def test_square_snf_preserves_abs_det():
    rng = random.Random(14)
    for _ in range(100):
        n = rng.randrange(1, 5)
        M = IntMatrix([[rng.randrange(-6, 7) for _ in range(n)]
                       for _ in range(n)])
        det = abs(bareiss_det(M))
        D, _, _ = snf(M)
        prod = 1
        for i in range(n):
            prod *= D.entry(i, i)
        assert abs(prod) == det


def test_rank_and_left_kernel():
    rng = random.Random(15)
    for _ in range(150):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        M = IntMatrix([[rng.randrange(-5, 6) for _ in range(n)]
                       for _ in range(m)])
        r = HnfSolver(M).span.rows
        K = left_kernel(M)
        assert K.rows == m - r
        zero = IntMatrix.zero(1, n)
        for krow in K.to_rows():
            assert IntMatrix([krow], cols=m).mul(M) == zero


def test_hnf_solver_solves_left_systems():
    rng = random.Random(16)
    solved = 0
    for _ in range(300):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        M = IntMatrix([[rng.randrange(-5, 6) for _ in range(n)]
                       for _ in range(m)])
        if rng.randrange(2):
            x = [rng.randrange(-4, 5) for _ in range(m)]
            target = IntMatrix([x], cols=m).mul(M).row(0)
        else:
            target = [rng.randrange(-20, 21) for _ in range(n)]
        sol = HnfSolver(M).solve(stored(target))
        if sol is not None:
            sol = dense(sol, m)
            assert IntMatrix([sol], cols=m).mul(M).row(0) == list(target)
            solved += 1
        else:
            # certificate of no solution: target outside the row span
            aug = HnfSolver(M.stack(IntMatrix([target], cols=n))).span
            base = HnfSolver(M).span
            if aug.rows == base.rows:
                # same rational span: solvability can only fail integrally
                D, U, _ = snf(M)
                y = list(target)
                # verify via Smith form: x * M = t  <=>  (x U^-1) D = t V
                _, _, V = snf(M)
                tv = IntMatrix([y], cols=n).mul(V).row(0)
                ok = True
                for i in range(min(M.shape)):
                    d = D.entry(i, i)
                    if d == 0:
                        if tv[i]:
                            ok = False
                    elif tv[i] % d:
                        ok = False
                for i in range(min(M.shape), n):
                    if tv[i]:
                        ok = False
                assert not ok
    assert solved >= 100


def test_lattice_algebra():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(1, 5)
        A = IntMatrix([[rng.randrange(-4, 5) for _ in range(n)]
                       for _ in range(rng.randrange(1, 4))])
        B = IntMatrix([[rng.randrange(-4, 5) for _ in range(n)]
                       for _ in range(rng.randrange(1, 4))])
        in_a, in_b = HnfSolver(A), HnfSolver(B)
        in_sum = HnfSolver(HnfSolver(A.stack(B)).span)
        for row in A.to_rows() + B.to_rows():
            assert in_sum.solve(stored(row)) is not None
        I = lattice_intersection(A, B)
        in_i = HnfSolver(I)
        for row in I.to_rows():
            assert in_a.solve(stored(row)) is not None
            assert in_b.solve(stored(row)) is not None
        # intersection contains the product-scaled rows of A that land in B
        for row in A.to_rows():
            if in_b.solve(stored(row)) is not None:
                assert in_i.solve(stored(row)) is not None


def test_bareiss_det_small_cases():
    assert bareiss_det(IntMatrix([[3]])) == 3
    assert bareiss_det(IntMatrix([[1, 2], [3, 4]])) == -2
    assert bareiss_det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert bareiss_det(IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30


def test_bareiss_det_multiplicative():
    rng = random.Random(18)
    for _ in range(80):
        n = rng.randrange(1, 5)
        A = IntMatrix([[rng.randrange(-4, 5) for _ in range(n)]
                       for _ in range(n)])
        B = IntMatrix([[rng.randrange(-4, 5) for _ in range(n)]
                       for _ in range(n)])
        assert bareiss_det(A.mul(B)) == bareiss_det(A) * bareiss_det(B)


def test_dense_and_sparse_construction_agree():
    rng = random.Random(19)
    for _ in range(150):
        m, n = rng.randrange(0, 6), rng.randrange(1, 6)
        entries = _random_dense(rng, m, n, rng.random())
        dense = IntMatrix(entries, cols=n)
        built = IntMatrix.from_sparse_rows(m, n, [
            tuple((j, v) for j, v in enumerate(row) if v) for row in entries])
        assert dense == built
        assert hash(dense) == hash(built)
        assert built.to_rows() == entries
    assert IntMatrix([[0, 0], [0, 0]]) == IntMatrix.zero(2, 2)
    assert IntMatrix([[1, 0], [0, 1]]) == IntMatrix.identity(2)
    assert IntMatrix([[1, 0]]) != IntMatrix([[1, 0, 0]])
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def _random_dense(rng, m, n, density):
    return [[rng.randrange(-9, 10) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def test_mul_matches_dense_triple_loop():
    rng = random.Random(20)
    for _ in range(150):
        m, k, n = (rng.randrange(0, 6) for _ in range(3))
        a = _random_dense(rng, m, k, rng.random())
        b = _random_dense(rng, k, n, rng.random())
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(n)]
                for i in range(m)]
        got = IntMatrix(a, cols=k).mul(IntMatrix(b, cols=n))
        assert got.shape == (m, n)
        assert got.to_rows() == want
        assert got == IntMatrix(want, cols=n)


def test_entry_row_to_rows_and_stack_round_trip():
    rng = random.Random(21)
    for _ in range(100):
        n = rng.randrange(1, 6)
        a = _random_dense(rng, rng.randrange(0, 5), n, 0.4)
        b = _random_dense(rng, rng.randrange(0, 5), n, 0.4)
        A, B = IntMatrix(a, cols=n), IntMatrix(b, cols=n)
        assert A.to_rows() == a
        assert [A.row(i) for i in range(A.rows)] == a
        assert all(A.entry(i, j) == a[i][j]
                   for i in range(A.rows) for j in range(n))
        S = A.stack(B)
        assert S.shape == (len(a) + len(b), n)
        assert S.to_rows() == a + b
        assert S == IntMatrix(a + b, cols=n)
        assert IntMatrix(S.to_rows(), cols=n) == S
        assert repr(S) == "IntMatrix(%r)" % (a + b,)


# ---- sparse shapes against the dense elimination ----------------------------

def sparse_matrix(rng, m, n, density):
    """Entries of both signs, one in ten of size about 10^6."""
    rows = []
    for _ in range(m):
        row = [0] * n
        for j in range(n):
            if rng.random() < density:
                v = rng.randrange(1, 10)
                if rng.random() < 0.1:
                    v = 10 ** 6 + rng.randrange(10)
                row[j] = rng.choice((v, -v))
        rows.append(row)
    return IntMatrix(rows, cols=n)


def sparse_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        m, n = rng.randrange(20, 81), rng.randrange(20, 81)
        yield rng, sparse_matrix(rng, m, n, rng.uniform(0.01, 0.10))


def check_glue(a, b, rng):
    """HnfSolver on [a | a ; b | 0] against the dense elimination, and a
    split d = a-part + b-part of a random element d of a + b."""
    glue = HnfSolver(a.stack(b), a.stack(IntMatrix.zero(b.rows, a.cols)))
    span, meet = reference_block(a.stack(b),
                                 a.stack(IntMatrix.zero(b.rows, a.cols)))
    assert glue.span == span and glue.kernel == meet
    assert lattice_intersection(a, b) == meet
    x = [rng.randrange(-3, 4) for _ in range(a.rows + b.rows)]
    d = IntMatrix([x], cols=len(x)).mul(a.stack(b)).row(0)
    part = dense(glue.solve(stored(d)), a.cols)
    assert HnfSolver(a).solve(stored(part)) is not None
    assert HnfSolver(b).solve(
        stored([u - v for u, v in zip(d, part)])) is not None


def test_sparse_hermite_forms_match_the_dense_elimination():
    for i, (rng, M) in enumerate(sparse_cases(31, 8)):
        H, U = hnf(M)
        assert (H, U) == reference_block_hnf(M)
        assert U.mul(M) == H
        if i < 5:
            assert is_unimodular(U)
        # the block [M | I] has full row rank: its rows with a zero
        # M-part are the kernel's Hermite basis
        span = IntMatrix([row for row in H.to_rows() if any(row)],
                         cols=M.cols)
        kernel = IntMatrix([U.row(r) for r in range(M.rows)
                            if not H._nz[r]], cols=M.rows)
        solver = HnfSolver(M)
        assert solver.span == span and solver.kernel == kernel
        assert is_hermite(span) and is_hermite(kernel)


def test_sparse_left_kernel_modulo_and_meet():
    for rng, D in sparse_cases(33, 10):
        L = sparse_matrix(rng, rng.randrange(5, 40), D.cols,
                          rng.uniform(0.02, 0.10))
        carry = IntMatrix.identity(D.rows).stack(
            IntMatrix.zero(L.rows, D.rows))
        assert left_kernel(D, L) == reference_block(D.stack(L), carry)[1]
        check_glue(D, L, rng)


def test_glue_over_a_coordinate_span():
    # Z_S spanned by coordinate vectors, as the central block of K0 is
    rng = random.Random(34)
    for _ in range(12):
        n = rng.randrange(20, 81)
        coords = sorted(rng.sample(range(n), rng.randrange(1, n)))
        z_s = IntMatrix.from_sparse_rows(len(coords), n,
                                         (((j, 1),) for j in coords))
        z_t = sparse_matrix(rng, rng.randrange(20, 81), n,
                            rng.uniform(0.01, 0.10))
        check_glue(z_s, z_t, rng)
        check_glue(z_t, z_s, rng)


def test_matrices_recorded_from_the_v4_meet_image(monkeypatch):
    """The glue blocks and defect kernels meet_image builds on the
    class-4 cube of V4, at every level, against the dense elimination."""
    _, _, gens, rels, nclass = next(row for row in PRESENTED
                                    if row[0] == "Z2xZ2")
    K0, K1 = build_presentation_cube(
        NilPresentation(gens, rels, nclass), 2, 4).kernels
    solvers, kernels = [], []

    def record(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(pcseq, "HnfSolver", record(solvers, HnfSolver))
    monkeypatch.setattr(pcseq, "left_kernel", record(kernels, left_kernel))
    pcseq.meet_image(K0, K1)
    assert solvers and kernels
    assert max(mat.rows for mat, _ in solvers) >= 200
    rng = random.Random(35)
    for mat, carry in solvers:
        cut = sum(1 for row in carry._nz if row)
        a = IntMatrix.from_sparse_rows(cut, mat.cols, mat._nz[:cut])
        b = IntMatrix.from_sparse_rows(mat.rows - cut, mat.cols,
                                       mat._nz[cut:])
        assert carry == a.stack(IntMatrix.zero(b.rows, a.cols))
        check_glue(a, b, rng)
    for mat, modulo in kernels:
        carry = IntMatrix.identity(mat.rows).stack(
            IntMatrix.zero(modulo.rows, mat.rows))
        assert left_kernel(mat, modulo) == \
            reference_block(mat.stack(modulo), carry)[1]


def test_solver_rejects_a_carry_of_another_height():
    with pytest.raises(ValueError, match="shape mismatch"):
        HnfSolver(IntMatrix([[1, 0], [0, 1], [1, 1]]), IntMatrix([[1], [2]]))


def test_sparse_solver_memory_on_a_near_identity_block():
    """Rows e_i + 2 e_((7i + 3) mod n): the dense elimination peaked at
    about 72 MB here, the sparse one at about 5 MB."""
    n = 1500
    mat = IntMatrix.from_sparse_rows(n, n, (
        tuple(sorted(((i, 1), ((7 * i + 3) % n, 2)))) for i in range(n)))
    tracemalloc.start()
    try:
        solver = HnfSolver(mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solver.span.rows == n and solver.kernel.rows == 0
    assert peak < 20 * 2 ** 20


def test_sparse_solve_matches_the_dense_walk():
    """solve on stored targets against the dense walk over every pivot
    row, None included: targets in the span, off it by one entry, and
    random, for solvers with and without a carry."""
    rng = random.Random(36)
    answered = unsolvable = 0
    for _ in range(300):
        m, n = rng.randrange(1, 12), rng.randrange(1, 12)
        mat = sparse_matrix(rng, m, n, rng.uniform(0.1, 0.6))
        carry = (IntMatrix.identity(m) if rng.randrange(2)
                 else sparse_matrix(rng, m, rng.randrange(1, 6), 0.5))
        solver = HnfSolver(mat, carry)
        x = [rng.randrange(-3, 4) for _ in range(m)]
        inside = IntMatrix([x], cols=m).mul(mat).row(0)
        nudged = list(inside)
        nudged[rng.randrange(n)] += rng.choice((-1, 1, 2))
        for target in (inside, nudged,
                       [rng.randrange(-6, 7) for _ in range(n)],
                       [0] * n):
            expect = reference_solve(mat, carry, target)
            got = solver.solve(stored(target))
            assert got == (None if expect is None else stored(expect))
            if expect is None:
                unsolvable += 1
            else:
                answered += 1
    assert answered >= 300 and unsolvable >= 100
