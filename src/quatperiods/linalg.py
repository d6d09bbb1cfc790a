"""Exact integer linear algebra plus lattice-point enumeration.

Everything here is exact: integer Hermite/Smith forms with their solves and
kernels, Bareiss determinants, and Fincke-Pohst enumeration of the
integer vectors in an ellipsoid or shell (Fincke-Pohst, Math. Comp. 44
(1985); Cohen, GTM 138, Alg. 2.7.5). The enumeration runs on integers only:
a rational Gram matrix, centre and bound are scaled to integers once, the
form gets one fraction-free LDL decomposition, and each level of the search
carries its exact remainder as an integer, so every coordinate range is an
isqrt and two floor divisions. No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm


def hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the nonzero rows of the HNF basis; the rows generate the same
    lattice as the input rows. Pivots are positive and entries above a
    pivot are reduced into [0, pivot).
    """
    work = [list(map(int, r)) for r in rows]
    work = [r for r in work if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    basis = []
    for col in range(ncols):
        pivots = [r for r in work if r[col] != 0]
        if not pivots:
            continue
        while len(pivots) > 1:
            pivots.sort(key=lambda r: abs(r[col]))
            p = pivots[0]
            for r in pivots[1:]:
                q = r[col] // p[col]
                if q:
                    for k in range(ncols):
                        r[k] -= q * p[k]
            pivots = [r for r in pivots if r[col] != 0]
        p = pivots[0]
        if p[col] < 0:
            for k in range(ncols):
                p[k] = -p[k]
        for b in basis:
            q = b[col] // p[col]
            if q:
                for k in range(ncols):
                    b[k] -= q * p[k]
        basis.append(p)
        work = [r for r in work if r is not p and any(r)]
    return basis


def pivot_col(row):
    return next(i for i, x in enumerate(row) if x)


def hnf_solve(basis, v):
    """Express v as an integer combination of HNF basis rows.

    Returns the coefficient list, or None if v is not in the lattice.
    """
    v = list(map(int, v))
    coeffs = []
    for b in basis:
        pc = pivot_col(b)
        if v[pc] % b[pc]:
            return None
        c = v[pc] // b[pc]
        coeffs.append(c)
        for k in range(len(v)):
            v[k] -= c * b[k]
    if any(v):
        return None
    return coeffs


def left_kernel(rows):
    """Integer basis of {x : x * M = 0} for an integer matrix M (list of rows)."""
    n = len(rows)
    if n == 0:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [1 if j == i else 0 for j in range(n)]
           for i, r in enumerate(rows)]
    h = hnf(aug)
    return [r[ncols:] for r in h if not any(r[:ncols])]


def snf(A):
    """Smith normal form with transforms: returns (D, U, V) with U*A*V = D.

    D is diagonal with d_1 | d_2 | ..., U and V unimodular. A is a list of
    integer rows and is not modified.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [list(map(int, r)) for r in A]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, c):
        for k in range(n):
            D[dst][k] += c * D[src][k]
        for k in range(m):
            U[dst][k] += c * U[src][k]

    def addmul_col(dst, src, c):
        for r in D:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    def diagonalize(start):
        t = start
        while t < min(m, n):
            while True:
                # move the absolutely smallest nonzero entry to the pivot
                piv = None
                for i in range(t, m):
                    for j in range(t, n):
                        if D[i][j] and (piv is None or
                                        abs(D[i][j]) < abs(D[piv[0]][piv[1]])):
                            piv = (i, j)
                if piv is None:
                    return
                swap_rows(t, piv[0])
                swap_cols(t, piv[1])
                clean = True
                for i in range(t + 1, m):
                    if D[i][t]:
                        addmul_row(i, t, -(D[i][t] // D[t][t]))
                        clean = clean and D[i][t] == 0
                for j in range(t + 1, n):
                    if D[t][j]:
                        addmul_col(j, t, -(D[t][j] // D[t][t]))
                        clean = clean and D[t][j] == 0
                if clean and all(D[i][t] == 0 for i in range(t + 1, m)):
                    break
            if D[t][t] < 0:
                addmul_row(t, t, -2)
            t += 1

    diagonalize(0)
    # enforce the divisibility chain with local 2x2 gcd folds
    while True:
        bad = None
        for i in range(min(m, n) - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a and b and b % a:
                bad = i
                break
        if bad is None:
            break
        i = bad
        addmul_col(i, i + 1, 1)          # block becomes [[a, 0], [b, b]]
        while D[i + 1][i]:               # Euclid on column i, rows i, i+1
            q = D[i][i] // D[i + 1][i]
            addmul_row(i, i + 1, -q)
            swap_rows(i, i + 1)
        if D[i][i] < 0:
            addmul_row(i, i, -2)
        q = D[i][i + 1] // D[i][i]       # pivot is gcd(a, b), divides the row
        addmul_col(i + 1, i, -q)
        if D[i + 1][i + 1] < 0:
            addmul_row(i + 1, i + 1, -2)
    return D, U, V


def int_det(M):
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination: every intermediate entry is a minor of M, so each division
    is exact."""
    A = [list(map(int, r)) for r in M]
    n = len(A)
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if A[r][k]), None)
            if piv is None:
                return 0
            A[k], A[piv] = A[piv], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[k][k] * A[i][j] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if n else 1


def ldl(G):
    """Fraction-free LDL decomposition of a symmetric positive-definite
    integer Gram matrix (Bareiss elimination without pivoting).

    Returns (d, M): d[k] is the k-th leading principal minor (d[0] = 1) and M
    is upper triangular with M[i][i] = d[i+1], such that
        Q(y) = y G y^T = sum_i (sum_{j>=i} M[i][j] y_j)^2 / (d[i] d[i+1]).
    """
    n = len(G)
    A = [list(map(int, r)) for r in G]
    d = [1] * (n + 1)
    M = []
    for k in range(n):
        if A[k][k] <= 0:
            raise ValueError("form is not positive definite")
        d[k + 1] = A[k][k]
        M.append([0] * k + A[k][k:])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[k][k] * A[i][j] - A[i][k] * A[k][j]) // d[k]
    return d, M


def _common_den(values) -> int:
    den = 1
    for v in values:
        if type(v) is not int:
            den = lcm(den, Fraction(v).denominator)
    return den


def qf_enumerate(G, bound, center=None, lo=None):
    """Yield (x, rem) for every integer vector x with lo <= Q(x - c) <= bound,
    where c = center, Q(v) = v G v^T and rem = bound - Q(x - c) exactly.

    G is a symmetric positive-definite Gram matrix (ints or Fractions); lo
    defaults to no lower limit. The zero vector is included when it
    qualifies; both signs of each vector are produced.

    The search runs on integers only. With s the common denominator of G
    and cd that of c, Y = cd x - cd c is an integer vector and
    s cd^2 Q(x - c) = Q_int(Y) for the integer form s G; the LDL of that
    form is taken once, and every level of the Fincke-Pohst recursion keeps
    the exact remainder scaled to an integer, so each coordinate range is an
    isqrt and two floor divisions, and the shell lo <= Q at the last level
    is cut to the values that can reach it.
    """
    n = len(G)
    s = _common_den(x for r in G for x in r)
    Gi = G if s == 1 else [[int(x * s) for x in r] for r in G]
    cd = 1 if center is None else _common_den(center)
    cn = [0] * n if center is None else [int(x * cd) for x in center]
    scale = s * cd * cd
    bound = Fraction(bound) if type(bound) is not int else bound
    hi = bound * scale // 1
    low = 0 if lo is None else -(-Fraction(lo) * scale // 1)
    if hi < max(low, 0):
        return
    yield from _Search(Gi, cd, cn, hi, low).run(bound, scale)


class _Search:
    """The integer data one Fincke-Pohst search shares across its levels
    (an object rather than closures, so a search leaves no reference cycle
    for the garbage collector)."""

    def __init__(self, Gi, cd, cn, hi, low):
        n = len(Gi)
        self.n, self.cd, self.cn, self.hi = n, cd, cn, hi
        self.d, self.M = ldl(Gi)
        d = self.d
        # L (hi - Q_int(Y)), the scaled remainder, is an integer at every level
        L = 1
        for i in range(n):
            L = lcm(L, d[i] * d[i + 1])
        self.L = L
        self.e = [L // (d[i] * d[i + 1]) for i in range(n)]
        self.gap = L * (hi - low)
        self.x = [0] * n
        self.Y = [0] * n

    def run(self, bound, scale):
        """(x, bound - Q(x - c)) for each leaf, Q(x - c) = Q_int(Y) / scale."""
        R = self.L * self.hi
        for x, rem in (self.rec(self.n - 1, R) if self.n > 1 else
                       self.leaves(R)):
            q = self.hi - rem // self.L     # Q_int(Y), exactly
            yield x, (bound - q if scale == 1 else bound - Fraction(q, scale))

    def leaves(self, R):
        """(x, L (hi - Q_int(Y))) for the leaves below one node of the last
        level but one: v = A x_0 + W with R - gap <= e_0 v^2 <= R."""
        d, cd = self.d, self.cd
        A = d[1] * cd
        W = sum(self.M[0][j] * self.Y[j] for j in range(1, self.n)) \
            - d[1] * self.cn[0]
        e0 = self.e[0]
        S = isqrt(R // e0)
        m = -((self.gap - R) // e0)     # least v^2 that keeps Q >= lo
        if m <= 0:
            spans = ((-S, S),)
        else:
            r = isqrt(m - 1) + 1
            spans = ((-S, -r), (r, S))
        tail = tuple(self.x[1:])
        out = []
        for a, b in spans:
            for t in range(-((W - a) // A), (b - W) // A + 1):
                v = A * t + W
                out.append(((t,) + tail, R - e0 * v * v))
        return out

    def rec(self, i, R):
        # v = sum_{j>=i} M[i][j] Y_j = A x_i + W must obey e_i v^2 <= R
        d, cd, cn, x, Y = self.d, self.cd, self.cn, self.x, self.Y
        Mi = self.M[i]
        A = d[i + 1] * cd
        W = sum(Mi[j] * Y[j] for j in range(i + 1, self.n)) - d[i + 1] * cn[i]
        ei = self.e[i]
        S = isqrt(R // ei)
        for t in range(-((S + W) // A), (S - W) // A + 1):
            v = A * t + W
            x[i] = t
            Y[i] = cd * t - cn[i]
            if i > 1:
                yield from self.rec(i - 1, R - ei * v * v)
            else:
                yield from self.leaves(R - ei * v * v)


def qf_solutions(G, target, center=None):
    """Integer vectors x with Q(x - center) exactly equal to target: the
    leaves of the shell target <= Q <= target, all of remainder 0."""
    return [x for x, _ in qf_enumerate(G, target, center, lo=target)]
