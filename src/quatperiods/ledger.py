"""Arithmetic bookkeeping around the conductor-q eigenform: the excluded
prime set, the Eisenstein-style ideal gcd, Kolyvagin-system exponent
accounting, Tate-Shafarevich exponent bounds, height-style pairings on the
Shimura set, and numerically certified central L-values for the Waldspurger
consistency check against exact toric periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import sympy

from .bqf import _squarefree
from .curves import EllipticCurveData, ap, kronecker
from .quatalg import ShimuraSet, _vp, tau_permutation


def excluded_primes(curve: EllipticCurveData) -> set:
    """Primes dividing 6 N prod_{ell | N} (ell^2 - 1) c_ell d_ell."""
    prod = 6 * curve.N
    for ell in sympy.primefactors(curve.N):
        prod *= (ell * ell - 1) * curve.tamagawa.get(ell, 1) \
            * curve.d_factor(ell)
    return set(sympy.primefactors(prod))


def ideal_I_gcd(curve: EllipticCurveData, bound: int) -> int:
    """gcd of ell + 1 - a_ell over good primes ell <= bound."""
    profile = ideal_I_profile(curve, bound)
    return profile[-1][1] if profile else 0


def ideal_I_profile(curve: EllipticCurveData, bound: int):
    """(ell, running gcd) pairs showing where the gcd stabilizes."""
    if bound < 3:
        raise ValueError("bound must allow at least one good prime")
    out = []
    g = 0
    for ell in sympy.primerange(2, bound + 1):
        if curve.N % ell == 0:
            continue
        g = gcd(g, ell + 1 - ap(curve, ell))
        out.append((ell, g))
    return out


def kolyvagin_exponent(C2: int, C4: int, C5: int, C6: int, C7: int, C8: int,
                       p: int = 2, I: int = 1, hK: int = 1) -> int:
    """3 C2 + 12 C4 + C5 + C6 + C7 + C8 + v_p(I hK) + v_p(hK)."""
    return (3 * C2 + 12 * C4 + C5 + C6 + C7 + C8
            + _vp(I * hK, p) + _vp(hK, p))


def sha_exponent(ord_pairing: int, local_orders) -> int:
    """2 ord(pairing) - 2 sum of the local contributions."""
    return 2 * ord_pairing - 2 * sum(local_orders)


# ---------------------------------------------------------------------------
# pairings on functions on the Shimura set

def paren_pairing(f1, f2, X: ShimuraSet) -> Fraction:
    """(f1, f2) = sum_x w_x^{-1} f1(x) f2(x), an exact rational."""
    return sum((Fraction(a * b, w)
                for a, b, w in zip(f1, f2, X.weights)), Fraction(0))


def bracket_pairing(f1, f2, X: ShimuraSet) -> Fraction:
    """<f1, f2> = sum_x w_x^{-1} f1(x) f2(x tau), tau the Atkin-Lehner
    involution induced by the two-sided ideal of norm q."""
    perm = tau_permutation(X)
    return sum((Fraction(f1[i] * f2[perm[i]], X.weights[i])
                for i in range(X.H)), Fraction(0))


# ---------------------------------------------------------------------------
# central L-values with certified tails

def an_list(curve: EllipticCurveData, T: int):
    """a_1 .. a_T by the multiplicative sieve from prime traces."""
    a = [0] * (T + 1)
    if T >= 1:
        a[1] = 1
    for ell in sympy.primerange(2, T + 1):
        al = ap(curve, ell)
        good = curve.N % ell != 0
        # prime powers
        pk = ell
        prev, cur = 1, al
        while pk <= T:
            a[pk] = cur
            prev, cur = cur, al * cur - (ell * prev if good else 0)
            pk *= ell
        # spread multiplicatively over n coprime to ell
        pk = ell
        while pk <= T:
            for m in range(2, T // pk + 1):
                if m % ell:
                    a[pk * m] = a[pk] * a[m]
            pk *= ell
    return a


@dataclass(frozen=True)
class LValue:
    value: float
    tail: float          # rigorous bound on the truncation error
    terms: int


def central_lvalue(curve: EllipticCurveData, D: int = 1, T: int = None,
                   tail_target: float = 1e-6) -> LValue:
    """2 sum_{n <= T} a_n chi_D(n) n^{-1} exp(-2 pi n / sqrt(N D^2)).

    D = 1 gives the curve's own central value; a fundamental D (1 mod 4
    and squarefree, or 4m with m = 2, 3 mod 4 squarefree) gives the
    quadratic twist; any other D raises ValueError. The tail uses
    d(n) <= sqrt(3 n), so each term is at most 2 sqrt(3) x^n and the
    truncation error is below
    2 sqrt(3) x^(T+1) / (1 - x) with x = exp(-2 pi / sqrt(N D^2)).
    """
    if not (_squarefree(abs(D)) if D % 4 == 1 else
            D % 16 in (8, 12) and _squarefree(abs(D) // 4)):
        raise ValueError(f"{D} is neither 1 nor a fundamental discriminant")
    c = math.sqrt(curve.N * D * D)
    x = math.exp(-2 * math.pi / c)
    coef = 2 * math.sqrt(3)
    if T is None:
        T = max(8, math.ceil(math.log(tail_target * (1 - x) / coef)
                             / math.log(x)))
    a = an_list(curve, T)
    total = 0.0
    for n in range(1, T + 1):
        chi = kronecker(D, n) if D != 1 else 1
        if chi:
            total += a[n] * chi / n * math.exp(-2 * math.pi * n / c)
    tail = coef * x ** (T + 1) / (1 - x)
    return LValue(2 * total, tail, T)


@dataclass(frozen=True)
class WaldspurgerRow:
    D: int
    period_sum: int          # h . P(1), exact
    lproduct: float          # L(E, 1) . L(E_D, 1), approximate
    error: float             # rigorous bound on the product's error
    status: str              # consistent | inconsistent | inconclusive


def waldspurger_consistency(pipe, D: int, tol: float = 10.0,
                            tail_target: float = 1e-8) -> WaldspurgerRow:
    """Compare exact non-vanishing of the trivial-character period with
    numerical non-vanishing of L(E, 1) L(E_D, 1).

    The numerical side counts as non-zero only when the product exceeds
    tol times the rigorous truncation error; an exact non-zero period with
    a numerically small product is inconclusive rather than inconsistent.
    """
    psum = pipe.trivial_period_sum(D)
    L1 = central_lvalue(pipe.curve, 1, tail_target=tail_target)
    LD = central_lvalue(pipe.curve, D, tail_target=tail_target)
    prod = L1.value * LD.value
    err = (abs(L1.value) * LD.tail + abs(LD.value) * L1.tail
           + L1.tail * LD.tail)
    numeric_nonzero = abs(prod) > tol * err
    if numeric_nonzero:
        status = "consistent" if psum != 0 else "inconsistent"
    else:
        status = "consistent" if psum == 0 else "inconclusive"
    return WaldspurgerRow(D, psum, prod, err, status)
