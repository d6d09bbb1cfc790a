"""Tests for the definite quaternion side: algebra construction with
Hilbert-symbol certificates, maximal orders, ideal classes against the mass
formula, Brandt matrices, and the conductor-11 eigenform."""

from fractions import Fraction
from math import gcd

import pytest
import sympy

from quatperiods.curves import curve_11a1
from quatperiods.quatalg import (
    build_algebra,
    brandt_matrix,
    eigenform,
    hilbert_symbol,
    is_isomorphic,
    is_order,
    left_order,
    maximal_order,
    right_ideal_classes,
    standard_order,
    tau_permutation,
    two_sided_ideal,
    unit_count,
)


def matmul(A, B):
    n = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def shimura_set(q):
    alg = build_algebra(q)
    return right_ideal_classes(maximal_order(alg), alg)


def test_hilbert_symbol_reference_values():
    # (-1,-1) is ramified at 2 and infinity (the Hamilton quaternions)
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, -1) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    # bilinearity spot checks against sympy's quadratic residues
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(3, 3, 3) == -1
    assert hilbert_symbol(3, -3, 3) == 1
    assert hilbert_symbol(5, 7, 11) == 1


def test_build_algebra_recipe():
    assert (build_algebra(11).a, build_algebra(11).b) == (-1, -11)
    assert (build_algebra(5).a, build_algebra(5).b) == (-2, -5)
    assert (build_algebra(17).a, build_algebra(17).b) == (-3, -17)
    for q in (3, 5, 7, 11, 13, 17, 29, 41, 73, 89):
        alg = build_algebra(q)
        assert alg.ramified_primes() == [q]
        assert alg.is_definite()
    with pytest.raises(ValueError):
        build_algebra(2)
    with pytest.raises(ValueError):
        build_algebra(15)


def test_maximal_order_certificates():
    for q in (3, 5, 7, 11, 13, 17, 37):
        alg = build_algebra(q)
        O = maximal_order(alg)
        assert O.reduced_discriminant(alg) == q
        assert is_order(O, alg)
        for u in O.rows:
            for v in O.rows:
                assert O.contains(alg.mult(u, v), O.den ** 2)


def test_maximal_order_q11_contains_classical_basis():
    alg = build_algebra(11)
    O = maximal_order(alg)
    # 1, i, (1 + j)/2, (i + k)/2 as numerators over 2
    for v in ((2, 0, 0, 0), (0, 2, 0, 0), (1, 0, 1, 0), (0, 1, 0, 1)):
        assert O.contains(v, 2)


def test_mass_formula_small_primes():
    for q in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        X = shimura_set(q)
        assert X.mass() == Fraction(q - 1, 24)
        # pairwise non-isomorphic representatives
        for i in range(X.H):
            for j in range(X.H):
                assert is_isomorphic(X.classes[i], X.classes[j], X.alg) \
                    == (i == j)


def test_frozen_class_data():
    assert sorted(shimura_set(11).weights) == [2, 3]
    X3 = shimura_set(3)
    assert X3.H == 1 and X3.weights == [6]
    X37 = shimura_set(37)
    assert X37.H == 3 and X37.mass() == Fraction(3, 2)


def test_brandt_identity_and_row_sums():
    for q in (11, 17):
        X = shimura_set(q)
        ident = [[int(i == j) for j in range(X.H)] for i in range(X.H)]
        assert brandt_matrix(X, 1) == ident
        for n in (2, 3, 4, 5, 6, 10):
            B = brandt_matrix(X, n)
            sig = sum(sympy.divisors(n))
            assert all(sum(r) == sig for r in B)


def test_brandt_q11_frozen():
    X = shimura_set(11)
    if X.weights == [2, 3]:
        assert brandt_matrix(X, 2) == [[1, 2], [3, 0]]
    else:
        assert brandt_matrix(X, 2) == [[0, 3], [2, 1]]


def test_brandt_commute_adjoint_multiplicative():
    X = shimura_set(19)
    Bs = {n: brandt_matrix(X, n) for n in range(1, 13)}
    for m in Bs:
        for n in Bs:
            assert matmul(Bs[m], Bs[n]) == matmul(Bs[n], Bs[m])
            if gcd(m, n) == 1 and m * n <= 12:
                assert matmul(Bs[m], Bs[n]) == Bs[m * n]
    for n, B in Bs.items():
        for i in range(X.H):
            for j in range(X.H):
                assert X.weights[j] * B[i][j] == X.weights[i] * B[j][i]


def test_brandt_family_matches_single_matrices():
    # one count per n, straight from the definition of B(n)_ij
    from quatperiods.linalg import qf_solutions
    from quatperiods.quatalg import brandt_family

    X = shimura_set(19)
    fam = brandt_family(X, 8)
    for i in range(X.H):
        for j in range(X.H):
            I, J = X.classes[i], X.classes[j]
            G, scale = I.product(J.conjugate(), X.alg).int_gram(X.alg)
            for n in range(1, 9):
                target = n * I.norm(X.alg) * J.norm(X.alg) * scale
                cnt = len([s for s in qf_solutions(G, target) if any(s)])
                assert fam[n][i][j] * 2 * X.weights[j] == cnt
    assert all(fam[n] == brandt_matrix(X, n) for n in (1, 5, 8))


def test_theta_series_diagonal():
    # 2 w_j B(n)_jj counts the norm-n elements of the left order of I_j
    from quatperiods.linalg import qf_solutions

    X = shimura_set(17)
    for n in range(1, 11):
        B = brandt_matrix(X, n)
        for j in range(X.H):
            OL = X.left_orders[j]
            G, scale = OL.int_gram(X.alg)
            direct = len([s for s in qf_solutions(G, n * scale) if any(s)])
            assert 2 * X.weights[j] * B[j][j] == direct


def test_left_order_of_principal_ideal():
    alg = build_algebra(11)
    O = maximal_order(alg)
    assert left_order(O, alg) == O
    assert unit_count(O, alg) == 4  # +-1, +-i


def test_eigenform_11a1():
    X = shimura_set(11)
    E = curve_11a1()
    f = eigenform(X, E, 7)
    assert f.eigenvalues[2] == -2
    for ell, a in f.eigenvalues.items():
        B = brandt_matrix(X, ell)
        for i in range(X.H):
            assert sum(B[i][j] * f.coords[j] for j in range(X.H)) \
                == a * f.coords[i]
    # cuspidal, primitive, sign-normalized, non-constant mod 7
    assert sum(Fraction(c, w) for c, w in zip(f.coords, X.weights)) == 0
    g = 0
    for c in f.coords:
        g = gcd(g, c)
    assert g == 1
    assert f.coords[[i for i, c in enumerate(f.coords) if c][0]] > 0
    assert len({c % 7 for c in f.coords}) > 1


def test_eigenform_rejects_wrong_conductor():
    X = shimura_set(13)
    with pytest.raises(ValueError):
        eigenform(X, curve_11a1(), 7)


def test_two_sided_ideal_involution():
    for q in (11, 17, 23, 37, 97):
        alg = build_algebra(q)
        O = maximal_order(alg)
        P = two_sided_ideal(O, alg)
        assert P.norm(alg) == q
        assert P.product(P, alg) == O.scale(q)
        X = right_ideal_classes(O, alg)
        perm = tau_permutation(X)
        assert sorted(perm) == list(range(X.H))
        assert all(perm[perm[i]] == i for i in range(X.H))
