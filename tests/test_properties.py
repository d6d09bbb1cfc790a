"""Property tests for the integer lattice core: Fincke-Pohst enumeration
against brute force over a box, integer lattice products and Gram matrices
against a Fraction reference, and the Bareiss determinant and LDL against
their definitions."""

import itertools
from fractions import Fraction
from math import gcd, isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from quatperiods.linalg import int_det, ldl, qf_enumerate, qf_solutions
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


def reference_product(A, B, alg):
    return Lattice.from_vectors([alg.mult(u, v) for u in A.vectors()
                                 for v in B.vectors()])


def reference_gram(L, alg):
    vs = L.vectors()
    return [[Fraction(alg.trd(alg.mult(u, alg.conj(v))), 2) for v in vs]
            for u in vs]


@settings(max_examples=40, deadline=None)
@given(lattice(), lattice(), st.sampled_from(ALGEBRAS))
def test_integer_product_matches_fraction_reference(A, B, alg):
    assert A.product(B, alg) == reference_product(A, B, alg)
    assert A.conjugate() == Lattice.from_vectors(
        [alg.conj(v) for v in A.vectors()])


@settings(max_examples=40, deadline=None)
@given(lattice(), st.sampled_from(ALGEBRAS))
def test_integer_gram_matches_fraction_reference(L, alg):
    G, s = L.int_gram(alg)
    ref = reference_gram(L, alg)
    assert [[Fraction(x, s) for x in r] for r in G] == ref
    assert L.gram(alg) == ref
    vals = [ref[i][i] for i in range(4)] + \
        [2 * ref[i][j] for i in range(4) for j in range(i + 1, 4)]
    ratios = [v / L.norm(alg) for v in vals]
    assert all(r.denominator == 1 for r in ratios)
    assert gcd(*(r.numerator for r in ratios)) == 1
