"""Exact integer and rational linear algebra plus lattice-point enumeration.

Everything here is exact: integer Hermite/Smith forms, Fraction Gaussian
elimination, and Fincke-Pohst style enumeration of quadratic-form values
driven by a rational LDL decomposition (no floating point anywhere on the
decision path; floats appear only as a first guess for integer ranges and
are corrected exactly).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import isqrt


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


def mat_inv_frac(A):
    """Inverse of a square matrix with Fraction (or int) entries."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] +
         [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [row[n:] for row in M]


def ldl(G):
    """Decompose a symmetric positive-definite rational Gram matrix.

    Returns (q, u) with Q(x) = sum_i q[i] * (x_i + sum_{j>i} u[i][j] x_j)^2.
    """
    n = len(G)
    A = [[Fraction(G[i][j]) for j in range(n)] for i in range(n)]
    q = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        q[i] = A[i][i]
        if q[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = A[i][j] / q[i]
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                A[r][c] -= A[r][i] * A[i][c] / q[i]
    return q, u


def _int_range(z, s2):
    """All integers t with (t - z)^2 <= s2, for Fractions z and s2 >= 0."""
    if s2 < 0:
        return range(0)
    a, b = s2.numerator, s2.denominator
    s_hi = Fraction(isqrt(a * b) + 1, b)
    lo = math.ceil(z - s_hi)
    hi = math.floor(z + s_hi)
    while lo <= hi and (lo - z) ** 2 > s2:
        lo += 1
    while hi >= lo and (hi - z) ** 2 > s2:
        hi -= 1
    return range(lo, hi + 1)


def qf_enumerate(G, bound, center=None):
    """Yield every integer vector x with Q(x - center) <= bound.

    G is a symmetric positive-definite Gram matrix (Fractions or ints),
    Q(v) = v G v^T. The zero vector is included when it qualifies; both
    signs of each vector are produced.
    """
    n = len(G)
    q, u = ldl(G)
    c = [Fraction(x) for x in (center if center is not None else [0] * n)]
    bound = Fraction(bound)
    x = [0] * n

    def rec(i, rem):
        if i < 0:
            yield tuple(x)
            return
        z = c[i] - sum(u[i][j] * (x[j] - c[j]) for j in range(i + 1, n))
        for t in _int_range(z, rem / q[i]):
            x[i] = t
            yield from rec(i - 1, rem - q[i] * (t - z) ** 2)

    yield from rec(n - 1, bound)


def qf_solutions(G, target, center=None):
    """Integer vectors x with Q(x - center) exactly equal to target."""
    n = len(G)
    c = [Fraction(x) for x in (center if center is not None else [0] * n)]
    target = Fraction(target)
    out = []
    for v in qf_enumerate(G, target, center):
        d = [v[i] - c[i] for i in range(n)]
        val = sum(d[i] * G[i][j] * d[j] for i in range(n) for j in range(n))
        if val == target:
            out.append(v)
    return out
