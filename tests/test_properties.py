"""Property tests for the integer lattice core: Fincke-Pohst enumeration
against brute force over a box, integer lattice products and Gram matrices
against a Fraction reference, the Bareiss determinant and LDL against
their definitions, Hermite and Smith forms against their defining
properties, and class groups against their discrete logarithm."""

import itertools
from fractions import Fraction
from math import gcd, isqrt, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from quatperiods.bqf import class_group_structure, compose, is_fundamental
from quatperiods.linalg import (hnf, hnf_solve, int_det, ldl, qf_enumerate,
                                qf_solutions, snf)
from quatperiods.quatalg import Lattice, build_algebra

small = st.integers(-3, 3)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def pd_gram(draw, n):
    """(B^T B + I) / den: positive definite, least eigenvalue >= 1/den."""
    B = draw(st.lists(st.lists(small, min_size=n, max_size=n),
                      min_size=n, max_size=n))
    den = draw(st.integers(1, 2))
    return [[Fraction(sum(B[k][i] * B[k][j] for k in range(n)) + (i == j),
                      den) for j in range(n)] for i in range(n)], den


def qf(G, v):
    n = len(v)
    return sum(v[i] * G[i][j] * v[j] for i in range(n) for j in range(n))


def box(center, radius):
    """Every integer vector within `radius` of center in each coordinate."""
    return itertools.product(*(range(int(c - radius) - 1, int(c + radius) + 2)
                               for c in center))


@st.composite
def enumeration_case(draw):
    n = draw(st.sampled_from([3, 4]))
    G, den = draw(pd_gram(n))
    center = draw(st.none() | st.lists(fractions, min_size=n, max_size=n))
    bound = draw(st.builds(Fraction, st.integers(0, 10 if n == 3 else 4),
                           st.integers(1, 3)))
    lo = draw(st.none() | st.builds(Fraction, st.integers(0, 10),
                                    st.integers(1, 3)))
    return G, den, center, bound, lo


@settings(max_examples=40, deadline=None)
@given(enumeration_case())
def test_qf_enumerate_matches_brute_force(case):
    G, den, center, bound, lo = case
    c = center or [0] * len(G)
    got = {}
    for x, rem in qf_enumerate(G, bound, center, lo):
        assert x not in got
        got[x] = rem
    # Q(v) >= |v|^2 / den, so every vector in the ball lies in this box
    radius = isqrt(int(bound * den)) + 1
    want = {}
    for x in box(c, radius):
        val = qf(G, [xi - ci for xi, ci in zip(x, c)])
        if val <= bound and (lo is None or val >= lo):
            want[x] = bound - val
    assert got == want


@settings(max_examples=40, deadline=None)
@given(enumeration_case())
def test_qf_solutions_matches_brute_force(case):
    G, den, center, bound, _ = case
    c = center or [0] * len(G)
    radius = isqrt(int(bound * den)) + 1
    want = [x for x in box(c, radius)
            if qf(G, [xi - ci for xi, ci in zip(x, c)]) == bound]
    assert sorted(qf_solutions(G, bound, center)) == sorted(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: pd_gram(n)),
       st.lists(st.integers(-5, 5), min_size=5, max_size=5))
def test_ldl_reproduces_the_form(gram, y):
    G, den = gram
    Gi = [[int(x * den) for x in r] for r in G]
    n = len(Gi)
    y = y[:n]
    d, M = ldl(Gi)
    val = sum(Fraction(sum(M[i][j] * y[j] for j in range(i, n)) ** 2,
                       d[i] * d[i + 1]) for i in range(n))
    assert val == qf(Gi, y)
    assert all(M[i][i] == d[i + 1] > 0 for i in range(n))


def permutation_det(M):
    """Leibniz expansion: the sum over permutations, signed by inversions."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= M[i][perm[i]]
        total += term
    return total


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                       min_size=n, max_size=n)),
    st.booleans())
def test_bareiss_matches_permutation_expansion(M, singular):
    if singular and len(M) > 1:
        M = M[:-1] + [list(M[0])]          # a repeated row
    assert int_det(M) == permutation_det(M)


ALGEBRAS = [build_algebra(q) for q in (3, 5, 11, 13, 17)]


@st.composite
def lattice(draw):
    """A triangular basis with nonzero diagonal spans any full-rank lattice."""
    rows = [[draw(st.integers(1, 4)) if j == i else
             draw(st.integers(-4, 4)) if j > i else 0 for j in range(4)]
            for i in range(4)]
    return Lattice.make(rows, draw(st.integers(1, 6)))


def fraction_vectors(L):
    return [tuple(Fraction(x, L.den) for x in r) for r in L.rows]


def lattice_of(vecs):
    """The lattice spanned by rational vectors, over their common
    denominator."""
    den = 1
    for v in vecs:
        for x in v:
            den = lcm(den, Fraction(x).denominator)
    return Lattice.make([[int(x * den) for x in v] for v in vecs], den)


def reference_product(A, B, alg):
    return lattice_of([alg.mult(u, v) for u in fraction_vectors(A)
                       for v in fraction_vectors(B)])


def reference_gram(L, alg):
    vs = fraction_vectors(L)
    return [[Fraction(alg.trd(alg.mult(u, alg.conj(v))), 2) for v in vs]
            for u in vs]


@settings(max_examples=40, deadline=None)
@given(lattice(), lattice(), st.sampled_from(ALGEBRAS))
def test_integer_product_matches_fraction_reference(A, B, alg):
    assert A.product(B, alg) == reference_product(A, B, alg)
    assert A.conjugate() == lattice_of(
        [alg.conj(v) for v in fraction_vectors(A)])


@settings(max_examples=40, deadline=None)
@given(lattice(), st.sampled_from(ALGEBRAS))
def test_integer_gram_matches_fraction_reference(L, alg):
    G, s = L.int_gram(alg)
    ref = reference_gram(L, alg)
    assert [[Fraction(x, s) for x in r] for r in G] == ref
    vals = [ref[i][i] for i in range(4)] + \
        [2 * ref[i][j] for i in range(4) for j in range(i + 1, 4)]
    ratios = [v / L.norm(alg) for v in vals]
    assert all(r.denominator == 1 for r in ratios)
    assert gcd(*(r.numerator for r in ratios)) == 1


def matmul(A, B):
    return [[sum(a * b for a, b in zip(r, c)) for c in zip(*B)] for r in A]


matrices = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda mn: st.lists(st.lists(st.integers(-9, 9), min_size=mn[1],
                                 max_size=mn[1]),
                        min_size=mn[0], max_size=mn[0]))


@settings(max_examples=80, deadline=None)
@given(matrices)
def test_snf_is_a_unimodular_diagonalisation(A):
    D, U, V = snf(A)
    assert matmul(matmul(U, A), V) == D
    assert int_det(U) in (1, -1) and int_det(V) in (1, -1)
    m, n = len(A), len(A[0])
    assert all(D[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [D[i][i] for i in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    # d_1 | d_2 | ...: a zero is followed only by zeros
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))


@st.composite
def unimodular(draw, n):
    """A product of elementary row operations: swaps, sign flips, shears."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["swap", "neg", "add"]))
        if kind == "swap":
            U[i], U[j] = U[j], U[i]
        elif kind == "neg":
            U[i] = [-x for x in U[i]]
        elif i != j:
            c = draw(st.integers(-3, 3))
            U[i] = [x + c * y for x, y in zip(U[i], U[j])]
    return U


@settings(max_examples=80, deadline=None)
@given(matrices.flatmap(lambda A: st.tuples(st.just(A),
                                             unimodular(len(A)))))
def test_hnf_is_a_canonical_basis(case):
    A, U = case
    H = hnf(A)
    assert hnf(H) == H
    assert hnf(matmul(U, A)) == H
    for row in A:
        c = hnf_solve(H, row)
        assert c is not None
        assert [sum(ci * h[k] for ci, h in zip(c, H))
                for k in range(len(row))] == row


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 3000).map(lambda n: -n).filter(is_fundamental),
       st.data())
def test_class_group_discrete_log(D, data):
    cg = class_group_structure(D)
    k = len(cg.orders)
    for j, (g, _) in enumerate(cg.factors):
        assert cg.dlog[g] == tuple(int(i == j) for i in range(k))
    f = data.draw(st.sampled_from(cg.forms))
    g = data.draw(st.sampled_from(cg.forms))
    assert cg.encode(compose(f, g)) == tuple(
        (a + b) % n for a, b, n in zip(cg.encode(f), cg.encode(g), cg.orders))
