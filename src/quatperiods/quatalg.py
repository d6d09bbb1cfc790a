"""Definite quaternion algebras ramified exactly at one odd prime q and
infinity: maximal orders, right-ideal classes (the Shimura set) with unit
weights, Brandt matrices, and the integral Hecke eigenform attached to an
elliptic curve of conductor q.

Quaternions are row 4-vectors over the basis 1, i, j, k with i^2 = a,
j^2 = b, k = ij = -ji. Lattices are full-rank Z-modules stored as an integer
row-Hermite basis over one common denominator, and lattice arithmetic runs
on those integer rows: a product multiplies the rows of its factors and
takes the product of the denominators, a Gram matrix is an integer matrix
with the scale den^2, a discriminant is a Bareiss determinant of the
integer trace form. A quaternion outside a lattice is likewise a tuple of
integer numerators over a denominator the caller carries. The one rational
a lattice returns is its reduced norm (`Lattice.norm`).

Ideals are built as the lattice their generators span, one HNF each: a
2-neighbour of I is xO + 2I for one rank-one x in I/2I, the left order of
a right ideal L is L conj(L) / nrd(L), and the two-sided ideal of norm q
is qO plus the radical of the trace form mod q (Kirschmer-Voight, SIAM J.
Comput. 39 (2010); Pizer, J. Algebra 64 (1980)).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

import sympy

from .linalg import (hnf, hnf_solve, int_det, left_kernel, qf_enumerate,
                     qf_solutions)


# ---------------------------------------------------------------------------
# the algebra

class QuaternionAlgebra:
    """B = (a, b / Q): i^2 = a, j^2 = b, ij = -ji = k."""

    def __init__(self, a: int, b: int, q: int):
        self.a = a
        self.b = b
        self.q = q

    def mult(self, x, y):
        a, b = self.a, self.b
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    @staticmethod
    def conj(x):
        return (x[0], -x[1], -x[2], -x[3])

    @staticmethod
    def trd(x):
        return 2 * x[0]

    def nrd(self, x):
        x0, x1, x2, x3 = x
        return x0 * x0 - self.a * x1 * x1 - self.b * x2 * x2 \
            + self.a * self.b * x3 * x3

    @property
    def nrd_weights(self):
        """w with nrd(x) = sum_t w_t x_t^2 (the basis is orthogonal)."""
        return (1, -self.a, -self.b, self.a * self.b)

    def ramified_primes(self):
        """Finite ramified primes, by Hilbert symbols at 2 and odd p | 2ab."""
        ps = {2}
        for n in (self.a, self.b):
            ps.update(sympy.factorint(abs(n)))
        return sorted(p for p in ps if hilbert_symbol(self.a, self.b, p) == -1)

    def is_definite(self):
        return self.a < 0 and self.b < 0


def _vp(n: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """(a, b)_p for a prime p (use p = -1 for the real place)."""
    if a == 0 or b == 0:
        raise ValueError("arguments must be nonzero")
    if p == -1:
        return -1 if a < 0 and b < 0 else 1
    alpha, beta = _vp(a, p), _vp(b, p)
    u, v = a // p ** alpha, b // p ** beta
    if p != 2:
        leg_u = int(sympy.jacobi_symbol(u % p, p))
        leg_v = int(sympy.jacobi_symbol(v % p, p))
        sign = 1
        if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2:
            sign *= leg_u
        if alpha % 2:
            sign *= leg_v
        return sign
    eps_u, eps_v = (u - 1) // 2, (v - 1) // 2
    om_u, om_v = (u * u - 1) // 8, (v * v - 1) // 8
    e = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if e % 2 else 1


def build_algebra(q: int) -> QuaternionAlgebra:
    """The definite quaternion algebra over Q ramified exactly at {q, oo}."""
    if q == 2 or not sympy.isprime(q):
        raise ValueError("q must be an odd prime")
    if q % 4 == 3:
        a = -1
    elif q % 8 == 5:
        a = -2
    else:
        r = 3
        while not (r % 4 == 3 and sympy.isprime(r)
                   and sympy.jacobi_symbol(r, q) == -1):
            r = sympy.nextprime(r)
        a = -r
    alg = QuaternionAlgebra(a, -q, q)
    if alg.ramified_primes() != [q] or not alg.is_definite():
        raise ArithmeticError("ramification certificate failed")
    return alg


# ---------------------------------------------------------------------------
# lattices

@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice in B: rows/den with rows an integer Hermite basis."""

    rows: tuple
    den: int

    @staticmethod
    def make(int_rows, den: int) -> "Lattice":
        basis = hnf(int_rows)
        if len(basis) != 4:
            raise ValueError("lattice is not full rank")
        g = den
        for r in basis:
            for x in r:
                g = gcd(g, x)
        return Lattice(tuple(tuple(x // g for x in r) for r in basis), den // g)

    def contains(self, vec, den: int = 1) -> bool:
        return self.coordinates(vec, den) is not None

    def coordinates(self, vec, den: int = 1):
        """Integer coordinates of vec/den (vec integer) in the basis, or
        None when vec/den is not in the lattice."""
        scaled = [x * self.den for x in vec]
        if any(x % den for x in scaled):
            return None
        return hnf_solve([list(r) for r in self.rows],
                         [x // den for x in scaled])

    def scale(self, c: int) -> "Lattice":
        return Lattice.make([[x * c for x in r] for r in self.rows], self.den)

    def product(self, other: "Lattice", alg: QuaternionAlgebra) -> "Lattice":
        return Lattice.make([alg.mult(u, v)
                             for u in self.rows for v in other.rows],
                            self.den * other.den)

    def conjugate(self) -> "Lattice":
        return Lattice.make([QuaternionAlgebra.conj(r) for r in self.rows],
                            self.den)

    def int_gram(self, alg: QuaternionAlgebra):
        """(G, s): the integer matrix G and s = den^2 with
        nrd(sum c_i b_i) = c G c^T / s."""
        w = alg.nrd_weights
        R = self.rows
        G = [[sum(w[t] * u[t] * v[t] for t in range(4)) for v in R]
             for u in R]
        return G, self.den * self.den

    def norm(self, alg: QuaternionAlgebra) -> Fraction:
        """The reduced norm of the lattice: content of its norm form."""
        G, s = self.int_gram(alg)
        return Fraction(gcd(*(G[i][i] for i in range(4)),
                            *(2 * G[i][j] for i in range(4)
                              for j in range(i + 1, 4))), s)

    def reduced_discriminant(self, alg: QuaternionAlgebra) -> int:
        R = self.rows
        # den^2 times the trace form trd(b_u b_v), so det carries den^8
        d = int_det([[alg.trd(alg.mult(u, v)) for v in R] for u in R])
        d8 = self.den ** 8
        if d % d8:
            raise ArithmeticError("non-integral trace form")
        num = abs(d // d8)
        r = isqrt(num)
        if r * r != num:
            raise ArithmeticError("trace-form determinant is not a square")
        return r


# ---------------------------------------------------------------------------
# orders

def standard_order(alg: QuaternionAlgebra) -> Lattice:
    return Lattice.make([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 1, 0], [0, 0, 0, 1]], 1)


def is_order(L: Lattice, alg: QuaternionAlgebra) -> bool:
    if not L.contains((1, 0, 0, 0)):
        return False
    R, d = L.rows, L.den
    # the basis is R/d: integral traces and norms, closed under products
    if any(2 * u[0] % d or alg.nrd(u) % (d * d) for u in R):
        return False
    return all(L.contains(alg.mult(u, v), d * d) for u in R for v in R)


def maximal_order(alg: QuaternionAlgebra) -> Lattice:
    """Saturate the standard order until the reduced discriminant equals q."""
    O = standard_order(alg)
    for _ in range(64):
        d = O.reduced_discriminant(alg)
        if d == alg.q:
            return O
        if d % alg.q:
            raise ArithmeticError("discriminant lost the ramified prime")
        f = d // alg.q
        r = min(sympy.factorint(f))
        O2 = _saturate_at(O, alg, r)
        if O2 is None:
            raise ArithmeticError(f"cannot enlarge order at {r}")
        O = O2
    raise ArithmeticError("saturation did not terminate")


def _saturate_at(O: Lattice, alg: QuaternionAlgebra, r: int):
    """The first order O + Z x, x = sum c_s b_s / r with 0 <= c_s < r not
    all 0 (so x is not in O), in lexicographic order of c; None if there is
    none."""
    R, e = O.rows, O.den * r
    for c in itertools.product(range(r), repeat=4):
        if not any(c):
            continue
        w = [sum(cs * Rs[t] for cs, Rs in zip(c, R)) for t in range(4)]
        if 2 * w[0] % e or alg.nrd(w) % (e * e):    # x = w / e
            continue
        cand = Lattice.make([[r * v for v in Rs] for Rs in R] + [w], e)
        if is_order(cand, alg):
            return cand
    return None


def left_order(L: Lattice, alg: QuaternionAlgebra) -> Lattice:
    """{x in B : x L is contained in L} for L a right ideal of a maximal
    order: such an L is invertible with inverse conj(L)/nrd(L), so its left
    order is L conj(L) / nrd(L)."""
    P = L.product(L.conjugate(), alg)
    N = L.norm(alg)
    return Lattice.make([[x * N.denominator for x in r] for r in P.rows],
                        P.den * N.numerator)


def unit_count(O: Lattice, alg: QuaternionAlgebra) -> int:
    """Number of units (reduced-norm-1 elements) of the order O."""
    G, s = O.int_gram(alg)
    return len([x for x in qf_solutions(G, s) if any(x)])


# ---------------------------------------------------------------------------
# right ideal classes

@dataclass
class ShimuraSet:
    alg: QuaternionAlgebra
    order: Lattice
    classes: list
    weights: list
    left_orders: list = field(repr=False, default_factory=list)

    @property
    def H(self) -> int:
        return len(self.classes)

    def mass(self) -> Fraction:
        return sum((Fraction(1, 2 * w) for w in self.weights), Fraction(0))

    def classify(self, I: Lattice) -> int:
        for idx, J in enumerate(self.classes):
            if is_isomorphic(I, J, self.alg):
                return idx
        raise ArithmeticError("ideal matches no class representative")


def is_isomorphic(I: Lattice, J: Lattice, alg: QuaternionAlgebra) -> bool:
    """Same right-ideal class iff I * conj(J) represents nrd(I) * nrd(J)."""
    P = I.product(J.conjugate(), alg)
    G, s = P.int_gram(alg)
    target = I.norm(alg) * J.norm(alg) * s
    return any(any(x) for x, _ in qf_enumerate(G, target, lo=target))


def _two_neighbors(I: Lattice, O: Lattice, alg: QuaternionAlgebra):
    """The three right O-ideals J with 2I < J < I of index 4 in I.

    I/2I is M_2(F_2) as a right O-module. Its index-4 submodules are the
    three {M : im M in l}, one per line l; each has three nonzero elements,
    all of rank one (nrd divisible by 2 nrd(I)), and each generates it. So
    J = xO + 2I for x running over the 0/1 combinations of I's rows (bit t
    of n selects row t) with 2 nrd(I) | nrd(x) that no earlier J contains.
    """
    d = I.den * O.den
    two_I = [[2 * O.den * x for x in r] for r in I.rows]
    N = 2 * I.norm(alg) * I.den * I.den     # nrd(x) for x over I.den
    out = []
    for n in range(1, 16):
        x = [sum(I.rows[t][c] for t in range(4) if n >> t & 1)
             for c in range(4)]
        if alg.nrd(x) % N or any(J.contains(x, I.den) for J in out):
            continue
        out.append(Lattice.make([alg.mult(x, y) for y in O.rows] + two_I, d))
    if len(out) != 3:
        raise ArithmeticError(f"expected 3 two-neighbors, found {len(out)}")
    return out


def right_ideal_classes(O: Lattice, alg: QuaternionAlgebra) -> ShimuraSet:
    """Close the principal class under 2-neighbors until the Eichler mass
    (q-1)/24 is reached exactly."""
    target = Fraction(alg.q - 1, 24)
    X = ShimuraSet(alg, O, [O], [unit_count(O, alg) // 2], [O])
    queue = [O]
    while queue:
        if X.mass() == target:
            break
        I = queue.pop(0)
        for J in _two_neighbors(I, O, alg):
            if any(is_isomorphic(J, C, alg) for C in X.classes):
                continue
            OL = left_order(J, alg)
            X.classes.append(J)
            X.left_orders.append(OL)
            X.weights.append(unit_count(OL, alg) // 2)
            queue.append(J)
            if X.mass() == target:
                break
    if X.mass() != target:
        raise ArithmeticError("mass formula not met by neighbor closure")
    return X


# ---------------------------------------------------------------------------
# Brandt matrices and the eigenform

def brandt_matrix(X: ShimuraSet, n: int):
    """B(n)_ij = (1/2w_j) #{x in I_i conj(I_j) : nrd(x) = n nrd(I_i) nrd(I_j)}."""
    return brandt_family(X, n)[n]


def brandt_family(X: ShimuraSet, nmax: int) -> dict:
    """{n: B(n)} for 1 <= n <= nmax via one lattice enumeration per (i, j).

    Enumerating each I_i conj(I_j) once up to norm nmax and bucketing the
    counts by norm is much cheaper than one enumeration per n."""
    if nmax < 1:
        raise ValueError(f"Brandt matrices need n >= 1, not n = {nmax}")
    alg = X.alg
    H = X.H
    out = {n: [[0] * H for _ in range(H)] for n in range(1, nmax + 1)}
    for i in range(H):
        for j in range(H):
            P = X.classes[i].product(X.classes[j].conjugate(), alg)
            G, s = P.int_gram(alg)
            NN = X.classes[i].norm(alg) * X.classes[j].norm(alg) * s
            nn, nd = NN.numerator, NN.denominator
            counts = [0] * (nmax + 1)
            # nrd(x) = n nrd(I_i) nrd(I_j) <=> c G c^T = n NN: bucket the
            # vectors by their exact remainder top - c G c^T
            top = nmax * nn // nd
            hist = Counter(rem for _, rem in qf_enumerate(G, top))
            for rem, k in hist.items():
                val = (top - rem) * nd
                if val and val % nn == 0:
                    counts[val // nn] += k
            w2 = 2 * X.weights[j]
            for n in range(1, nmax + 1):
                if counts[n] % w2:
                    raise ArithmeticError("Brandt count not divisible by 2w")
                out[n][i][j] = counts[n] // w2
    return out


@dataclass
class Eigenform:
    coords: tuple
    eigenvalues: dict
    weights: tuple


def eigenform(X: ShimuraSet, curve, p: int, primes=(2, 3, 5, 7, 13)) -> Eigenform:
    """The p-primitive integer eigenvector matching the curve's a_ell values."""
    from .curves import ap

    if curve.N != X.alg.q:
        raise ValueError("curve conductor differs from algebra discriminant")
    H = X.H
    eigs = {}
    stacked = []
    Bs = brandt_family(X, max(primes))
    for ell in primes:
        if ell == X.alg.q:
            continue
        a = ap(curve, ell)
        eigs[ell] = a
        B = Bs[ell]
        for i in range(H):
            stacked.append([B[i][c] - (a if i == c else 0) for c in range(H)])
    # solve stacked . v = 0: v spans the left kernel of the transpose
    transpose = [[stacked[r][c] for r in range(len(stacked))]
                 for c in range(H)]
    kernel = left_kernel(transpose)
    if len(kernel) != 1:
        raise ArithmeticError(
            f"eigenspace dimension {len(kernel)}, expected 1")
    v = list(kernel[0])
    g = gcd(*v)
    v = [x // g for x in v]
    first = next(x for x in v if x)
    if first < 0:
        v = [-x for x in v]
    if gcd(*v) % p == 0:
        raise ArithmeticError("eigenvector content divisible by p")
    cusp = sum(Fraction(x, w) for x, w in zip(v, X.weights))
    if cusp != 0:
        raise ArithmeticError("eigenform not orthogonal to constants")
    return Eigenform(tuple(v), eigs, tuple(X.weights))


# ---------------------------------------------------------------------------
# the two-sided ideal of norm q (Atkin-Lehner involution on classes)

def two_sided_ideal(O: Lattice, alg: QuaternionAlgebra) -> Lattice:
    """The unique two-sided O-ideal P with nrd(P) = q and P^2 = qO.

    P/qO is the radical of the trace form mod q: the c with c T = 0 mod q
    are the first four coordinates of the left kernel of T over q I_4."""
    q, d2 = alg.q, O.den * O.den
    T = [[alg.trd(alg.mult(u, v)) // d2 for v in O.rows] for u in O.rows]
    qI = [[q * int(r == c) for c in range(4)] for r in range(4)]
    P = Lattice.make([[sum(k[t] * O.rows[t][col] for t in range(4))
                       for col in range(4)] for k in left_kernel(T + qI)],
                     O.den)
    if P.norm(alg) != q:
        raise ArithmeticError("two-sided ideal has wrong norm")
    if P.product(P, alg) != O.scale(q):
        raise ArithmeticError("P^2 != qO")
    return P


def tau_permutation(X: ShimuraSet) -> list:
    """Action of the norm-q two-sided ideal on classes: i -> class of I_i P."""
    P = two_sided_ideal(X.order, X.alg)
    return [X.classify(I.product(P, X.alg)) for I in X.classes]
