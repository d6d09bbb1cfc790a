"""Property tests for the integer lattice core: Fincke-Pohst enumeration
against brute force over a box, integer lattice products and Gram matrices
against a Fraction reference, the Bareiss determinant and LDL against
their definitions, Hermite and Smith forms against their defining
properties, and class groups against their discrete logarithm. Also:
reduction of binary quadratic forms, the remainder map Z[x] -> F_{p^k} of
a field embedding against the reference arithmetic of fieldref, the
character transform's round trip on random functions on a finite abelian
group, and the ideals of a maximal order (2-neighbours, left orders, the
two-sided ideal of norm q) against their defining properties."""

import functools
import itertools
import math
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fieldref
from quatperiods.bqf import (QuadForm, class_group_structure, compose,
                             is_fundamental)
from quatperiods.charfield import FieldEmbedding, character_group
from quatperiods.linalg import (hnf, hnf_solve, int_det, ldl, qf_enumerate,
                                qf_solutions, snf)
from quatperiods.periods import PeriodPipeline, toric_period
from quatperiods.quatalg import (Eigenform, Lattice, _two_neighbors,
                                 build_algebra, is_order, left_order,
                                 maximal_order, right_ideal_classes,
                                 two_sided_ideal)

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


# ---------------------------------------------------------------------------
# reduction of positive definite binary quadratic forms

@st.composite
def definite_form(draw):
    a = draw(st.integers(1, 60))
    c = draw(st.integers(1, 60))
    r = isqrt(4 * a * c - 1)            # b^2 < 4ac
    return QuadForm(a, draw(st.integers(-r, r)), c)


def act(f, M):
    """f(alpha x + beta y, gamma x + delta y) for M = [[alpha, beta],
    [gamma, delta]]."""
    (al, be), (ga, de) = M
    a, b, c = f.a, f.b, f.c
    return QuadForm(a * al * al + b * al * ga + c * ga * ga,
                    2 * a * al * be + b * (al * de + be * ga) + 2 * c * ga * de,
                    a * be * be + b * be * de + c * de * de)


@st.composite
def sl2z(draw):
    """A word in S = [[0, -1], [1, 0]] and T^k = [[1, k], [0, 1]]."""
    M = [[1, 0], [0, 1]]
    for k in draw(st.lists(st.integers(-4, 4), max_size=6)):
        M = matmul(matmul(M, [[1, k], [0, 1]]), [[0, -1], [1, 0]])
    return M


@settings(max_examples=200, deadline=None)
@given(definite_form(), sl2z())
def test_form_reduction_is_canonical(f, M):
    r = f.reduce()
    assert r.is_reduced() and r.disc == f.disc
    assert r.reduce() == r
    moved = act(f, M)
    assert moved.disc == f.disc
    assert moved.reduce() == r


# ---------------------------------------------------------------------------
# the remainder map of a field embedding

def embedding_case(ns):
    return st.tuples(st.sampled_from([3, 5, 7, 11, 13]), ns).filter(
        lambda pn: pn[1] % pn[0])


coeff_arrays = st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                        max_size=40)


@settings(max_examples=150, deadline=None)
@given(embedding_case(st.integers(1, 24)), coeff_arrays, coeff_arrays)
def test_reduce_is_a_ring_homomorphism(pn, a, b):
    p, n = pn
    emb = FieldEmbedding(p, n)
    g = emb.modulus
    ra, rb = emb.reduce(a), emb.reduce(b)
    assert len(ra) == emb.k and all(0 <= c < p for c in ra)
    total = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    assert emb.reduce(total) == tuple((x + y) % p for x, y in zip(ra, rb))
    assert emb.reduce(fieldref.poly_mul(a, b)) == fieldref.mul(ra, rb, g, p)
    # x^n -> 1, and zeta = x has exact order n
    assert emb.reduce([0] * n + a) == ra
    assert emb.reduce([1]) == fieldref.element(1, g, p)
    assert fieldref.order(emb.reduce([0, 1]), g, p) == n


# ---------------------------------------------------------------------------
# the character transform: toric_period and its inverse

@st.composite
def transform_case(draw):
    """Invariant factors n_1 | ... | n_d, a prime p prime to the group
    order, and a random function sigma -> coords[phi[sigma]]."""
    orders = []
    for _ in range(draw(st.integers(0, 3))):
        step = draw(st.integers(2, 5))
        orders.append(step * (orders[-1] if orders else 1))
        if math.prod(orders) > 60:
            orders.pop()
            break
    orders = tuple(orders)
    h = math.prod(orders)
    p = draw(st.sampled_from([7, 11, 13, 17, 19, 23, 29, 31]))
    assume(h % p)
    coords = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=5))
    sigmas = list(itertools.product(*map(range, orders)))
    values = draw(st.lists(st.integers(0, len(coords) - 1),
                           min_size=len(sigmas), max_size=len(sigmas)))
    return orders, p, coords, dict(zip(sigmas, values)), draw(st.data())


@settings(max_examples=60, deadline=None)
@given(transform_case())
def test_fourier_round_trip_and_tamper(case):
    orders, p, coords, phi, data = case
    emb = FieldEmbedding(p, orders[-1] if orders else 1)
    f = Eigenform(tuple(coords), {}, (1,) * len(coords))
    pers = {chi: toric_period(f, phi, chi, emb)
            for chi in character_group(orders)}
    pipe = PeriodPipeline.__new__(PeriodPipeline)
    pipe.f = f
    pipe._fourier_check(pers, phi, emb)
    chi = data.draw(st.sampled_from(sorted(pers, key=lambda c: c.exponents)))
    delta = data.draw(st.lists(st.integers(0, p - 1), min_size=emb.k,
                               max_size=emb.k).filter(any))
    bad = tuple((x + d) % p for x, d in zip(pers[chi].modp, delta))
    pers[chi] = type(pers[chi])(chi, bad, any(bad))
    with pytest.raises(ArithmeticError):
        pipe._fourier_check(pers, phi, emb)


@functools.lru_cache(maxsize=None)
def shimura_set(q):
    alg = build_algebra(q)
    return right_ideal_classes(maximal_order(alg), alg)


@st.composite
def right_ideal(draw):
    """(X, I): q an odd prime <= 101, I a class representative of the
    Shimura set X or one of its 2-neighbours."""
    X = shimura_set(draw(st.sampled_from(list(sympy.primerange(3, 102)))))
    I = draw(st.sampled_from(X.classes))
    pick = draw(st.integers(0, 3))
    return X, I if pick == 0 else _two_neighbors(I, X.order, X.alg)[pick - 1]


def contains_products(L, A, B, alg):
    """Every product of a row of A and a row of B lies in L."""
    return all(L.contains(alg.mult(u, v), A.den * B.den)
               for u in A.rows for v in B.rows)


@settings(max_examples=40, deadline=None)
@given(right_ideal())
def test_two_neighbors_are_index_4_right_ideals(case):
    X, I = case
    alg, O = X.alg, X.order
    Js = _two_neighbors(I, O, alg)
    assert len(set(Js)) == 3
    for J in Js:
        assert all(J.contains([2 * x for x in r], I.den) for r in I.rows)
        assert all(I.contains(r, J.den) for r in J.rows)
        assert J.norm(alg) == 2 * I.norm(alg)
        assert contains_products(J, J, O, alg)


@settings(max_examples=40, deadline=None)
@given(right_ideal())
def test_left_order_is_the_maximal_order_acting_on_the_left(case):
    # a maximal order inside the true left order equals it
    X, I = case
    OL = left_order(I, X.alg)
    assert is_order(OL, X.alg)
    assert OL.reduced_discriminant(X.alg) == X.alg.q
    assert contains_products(I, OL, I, X.alg)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(list(sympy.primerange(3, 102))))
def test_two_sided_ideal_of_norm_q(q):
    alg = build_algebra(q)
    O = maximal_order(alg)
    P = two_sided_ideal(O, alg)
    assert contains_products(P, O, P, alg) and contains_products(P, P, O, alg)
    assert P.norm(alg) == q
    assert P.product(P, alg) == O.scale(q)
