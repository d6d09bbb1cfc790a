"""Characters of finite abelian groups with exact cyclotomic values and
finite-field realizations.

A character of a group with invariant factors n_1 | ... | n_d is an exponent
vector; its values live in Z[zeta_n] for n = n_d and, after reducing through
a deterministic embedding into the field of size p^k (k the order of p mod
n), in that finite field. The module also provides the enumeration of
a finite abelian group and its subgroup closure, Galois orbits of
characters under chi -> chi^q0, and the stable-generating-set machinery
for Galois-stable subsets of the dual group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import sympy


# ---------------------------------------------------------------------------
# exact cyclotomic integers

@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple:
    """Coefficients (low to high, monic) of the n-th cyclotomic polynomial."""
    # polys=True keeps sympy from building (and importing the machinery
    # for) a symbolic expression of the polynomial
    poly = sympy.cyclotomic_poly(n, sympy.symbols("x"), polys=True)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


def euler_phi(n: int) -> int:
    return int(sympy.totient(n))


def _reduce_poly(coeffs: list, n: int) -> tuple:
    """Reduce an integer polynomial modulo the n-th cyclotomic polynomial."""
    mod = cyclotomic_coeffs(n)
    deg = len(mod) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            for j in range(deg + 1):
                work[i - deg + j] -= c * mod[j]
    work = work[:deg]
    work += [0] * (deg - len(work))
    return tuple(work)


@dataclass(frozen=True)
class CycloInt:
    """Element of Z[zeta_n] on the power basis 1, zeta, ..., zeta^(phi(n)-1)."""

    n: int
    coeffs: tuple

    @staticmethod
    def zero(n: int) -> "CycloInt":
        return CycloInt(n, (0,) * euler_phi(n))

    @staticmethod
    def one(n: int) -> "CycloInt":
        return CycloInt.from_int(n, 1)

    @staticmethod
    def from_int(n: int, c: int) -> "CycloInt":
        return CycloInt(n, (c,) + (0,) * (euler_phi(n) - 1))

    @staticmethod
    def zeta_power(n: int, e: int) -> "CycloInt":
        e %= n
        return CycloInt(n, _reduce_poly([0] * e + [1], n))

    def __add__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloInt") -> "CycloInt":
        self._check(other)
        return CycloInt(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other) -> "CycloInt":
        if isinstance(other, int):
            return CycloInt(self.n, tuple(other * a for a in self.coeffs))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return CycloInt(self.n, _reduce_poly(prod, self.n))

    __rmul__ = __mul__

    def __neg__(self) -> "CycloInt":
        return CycloInt(self.n, tuple(-a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: "CycloInt") -> None:
        if self.n != other.n:
            raise ValueError("cyclotomic levels differ")


# ---------------------------------------------------------------------------
# finite fields F_{p^k} as polynomial quotients

class FiniteField:
    """F_{p^k} = F_p[x]/(modulus); elements are coefficient tuples of length k."""

    def __init__(self, p: int, modulus: tuple):
        self.p = p
        self.modulus = tuple(c % p for c in modulus)
        if self.modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.k = len(modulus) - 1
        self.zero = (0,) * self.k
        self.one = ((1,) + (0,) * (self.k - 1)) if self.k else ()
        self.x = (tuple(int(i == 1) for i in range(self.k)) if self.k > 1
                  else ((-self.modulus[0]) % p,))

    @property
    def size(self) -> int:
        return self.p ** self.k

    def element(self, c: int) -> tuple:
        return ((c % self.p,) + (0,) * (self.k - 1))

    def add(self, a: tuple, b: tuple) -> tuple:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a: tuple, b: tuple) -> tuple:
        p, k, mod = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for i in range(len(prod) - 1, k - 1, -1):
            c = prod[i] % p
            if c:
                for j in range(k + 1):
                    prod[i - k + j] -= c * mod[j]
        return tuple(prod[i] % p for i in range(k))

    def pow(self, a: tuple, e: int) -> tuple:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = self.one
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            e >>= 1
        return r

    def inv(self, a: tuple) -> tuple:
        if a == self.zero:
            raise ZeroDivisionError("inversion of zero field element")
        return self.pow(a, self.size - 2)

    def mult_order(self, a: tuple) -> int:
        if a == self.zero:
            raise ZeroDivisionError("order of zero")
        m = self.size - 1
        order = m
        for q, _ in sympy.factorint(m).items():
            while order % q == 0 and self.pow(a, order // q) == self.one:
                order //= q
        return order


# ---------------------------------------------------------------------------
# the deterministic embedding iota_p : Z[zeta_n] -> F_{p^k}

class FieldEmbedding:
    """A fixed prime above p in Q(zeta_n), realized as a reduction map.

    The target field is F_p[x]/(g) where g is the lexicographically smallest
    (coefficients compared low-to-high, normalized to 0..p-1) monic
    irreducible factor of the n-th cyclotomic polynomial mod p, and zeta_n
    maps to the class of x. Choosing a root of the cyclotomic polynomial
    itself keeps the map a ring homomorphism on Z[zeta_n] by construction,
    and the lexicographic choice makes (p, n) -> embedding deterministic.
    """

    def __init__(self, p: int, n: int):
        if n % p == 0:
            raise ValueError(f"p = {p} divides n = {n}")
        self.p = p
        self.n = n
        self.k = 1 if n <= 2 else int(sympy.n_order(p, n))
        self.modulus = _smallest_cyclotomic_factor(p, n, self.k)
        self.field = FiniteField(p, self.modulus)
        self.zeta_image = self.field.x if self.k > 1 else self.field.element(
            -self.modulus[0])
        # zeta powers cover the whole power basis of Z[zeta_n]
        phi = euler_phi(n)
        pows = [self.field.one]
        for _ in range(phi - 1):
            pows.append(self.field.mul(pows[-1], self.zeta_image))
        self._zeta_pows = pows

    def reduce(self, c: CycloInt) -> tuple:
        if c.n != self.n:
            raise ValueError("cyclotomic level mismatch")
        F = self.field
        acc = F.zero
        for coeff, zp in zip(c.coeffs, self._zeta_pows):
            if coeff % self.p:
                acc = F.add(acc, F.mul(F.element(coeff), zp))
        return acc


@lru_cache(maxsize=None)
def _smallest_cyclotomic_factor(p: int, n: int, k: int) -> tuple:
    poly = sympy.Poly(cyclotomic_coeffs(n)[::-1], sympy.symbols("x"),
                      modulus=p)
    factors = []
    for fac, _ in poly.factor_list()[1]:
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        if len(coeffs) - 1 == k:
            factors.append(tuple(coeffs))
    if not factors:
        raise ArithmeticError("no factor of the expected degree")
    return min(factors)


# ---------------------------------------------------------------------------
# characters

@dataclass(frozen=True)
class Character:
    """Exponent vector against group invariant factors n_1 | ... | n_d."""

    exponents: tuple
    group_orders: tuple

    @property
    def order(self) -> int:
        o = 1
        for e, n in zip(self.exponents, self.group_orders):
            o = lcm(o, n // gcd(e, n))
        return o

    @property
    def level(self) -> int:
        """Exponent n of the ambient group: all values lie in mu_n."""
        return self.group_orders[-1] if self.group_orders else 1

    def is_trivial(self) -> bool:
        return all(e % n == 0 for e, n in zip(self.exponents, self.group_orders))

    def power(self, m: int) -> "Character":
        return Character(tuple((e * m) % n for e, n in
                               zip(self.exponents, self.group_orders)),
                         self.group_orders)

    def inverse(self) -> "Character":
        return self.power(-1)

    def times(self, other: "Character") -> "Character":
        return Character(tuple((a + b) % n for a, b, n in
                               zip(self.exponents, other.exponents,
                                   self.group_orders)),
                         self.group_orders)

    def pairing_exponent(self, sigma: tuple) -> int:
        """e with chi(sigma) = zeta_n^e, n the group exponent."""
        n = self.level
        t = 0
        for e, s, ni in zip(self.exponents, sigma, self.group_orders):
            t += e * s * (n // ni)
        return t % n


def character_group(orders) -> list:
    """All characters of the group with invariant factors `orders`.

    Accepts a ClassGroup-like object with an `orders` attribute or a plain
    sequence of invariant factors.
    """
    orders = tuple(getattr(orders, "orders", orders))
    return [Character(e, orders) for e in group_elements(orders)]


def group_elements(orders) -> list:
    """All exponent vectors of the group with invariant factors `orders`,
    in lexicographic order."""
    return list(itertools.product(*map(range, orders)))


def subgroup_closure(base: frozenset, gens, orders) -> frozenset:
    """The subgroup generated by the subgroup `base` and the elements `gens`.

    `base` must already be closed, so only sums involving a new element
    can leave it: the frontier starts from the new elements alone.
    """
    out = set(base)
    frontier = [g for g in gens if g not in out]
    out.update(frontier)
    while frontier:
        g = frontier.pop()
        for e in list(out):
            s = tuple((a + b) % n for a, b, n in zip(g, e, orders))
            if s not in out:
                out.add(s)
                frontier.append(s)
    return frozenset(out)


def eval_char(chi: Character, sigma: tuple, emb: FieldEmbedding):
    """Exact cyclotomic value of chi(sigma) and its finite-field image."""
    n = chi.level
    if emb.n != n:
        raise ValueError("embedding level does not match character level")
    t = chi.pairing_exponent(sigma)
    exact = CycloInt.zeta_power(n, t)
    return exact, emb.field.pow(emb.zeta_image, t)


# ---------------------------------------------------------------------------
# Galois orbits and the stability bound

def galois_orbits(chars, q0: int):
    """Partition characters into orbits under chi -> chi^q0."""
    remaining = list(chars)
    seen = set()
    orbits = []
    for chi in remaining:
        if chi in seen:
            continue
        if gcd(q0, chi.order) != 1:
            raise ValueError("q0 not coprime to a character order")
        orbit = [chi]
        seen.add(chi)
        cur = chi.power(q0)
        while cur != chi:
            orbit.append(cur)
            seen.add(cur)
            cur = cur.power(q0)
        orbits.append(orbit)
    return orbits


def stability_bound(divisors, q: int) -> int:
    """sum_i [F_q(mu_{n_i}) : F_q], the exact stable-generation lower bound."""
    total = 0
    for n in divisors:
        if gcd(q, n) != 1:
            raise ValueError(f"gcd(q, {n}) != 1")
        total += 1 if n <= 2 else int(sympy.n_order(q, n))
    return total


def stability_bound_weak(divisors, q: int) -> Fraction:
    """The weaker sum of phi(n_i)/(n_i, q-1), reported as an exact rational."""
    total = Fraction(0)
    for n in divisors:
        if gcd(q, n) != 1:
            raise ValueError(f"gcd(q, {n}) != 1")
        total += Fraction(euler_phi(n), gcd(n, q - 1))
    return total


def primary_divisors(orders) -> tuple:
    """Prime-power cyclic factors of the group with the given invariant factors."""
    out = []
    for n in orders:
        for l, a in sympy.factorint(n).items():
            out.append(l ** a)
    return tuple(sorted(out, reverse=True))


def _covers(ms, orders) -> bool:
    """True when Z/m_1 x ... x Z/m_r admits a surjection onto the group
    with the given invariant factors (valuation-multiset domination at
    every prime)."""
    primes = set()
    for n in list(ms) + list(orders):
        primes.update(sympy.factorint(n))
    for l in primes:
        have = sorted((sympy.multiplicity(l, m) for m in ms), reverse=True)
        need = sorted((sympy.multiplicity(l, n) for n in orders), reverse=True)
        need = [v for v in need if v]
        if len(have) < len(need):
            return False
        if any(h < v for h, v in zip(have, need)):
            return False
    return True


def stable_generation_lower_bound(orders, q: int) -> int:
    """Sharp lower bound for Galois-stable generating subsets of the dual.

    Every Galois orbit lies inside the cyclic group generated by any of its
    members and has cardinality [F_q(mu_m):F_q] for m the common order, so
    a stable generating set is at least as large as the cheapest way to
    cover the group by cyclic pieces:
        min over multisets (m_1..m_r) with Z/m_1 x ... x Z/m_r ->> G
        of  sum_i [F_q(mu_{m_i}):F_q].
    This refines the per-decomposition sum, which is not a valid bound for
    a fixed decomposition (e.g. Z/21 with q=2: the invariant-factor sum is
    6, yet a stable generating set of size 5 exists).
    """
    orders = tuple(n for n in orders if n > 1)
    if not orders:
        return 0
    expo = 1
    for n in orders:
        expo = lcm(expo, n)
    if gcd(q, expo) != 1:
        raise ValueError("q not coprime to the group exponent")
    divisors = [d for d in sympy.divisors(expo) if d > 1]
    rmax = len(primary_divisors(orders))
    best = [stability_bound(primary_divisors(orders), q)]

    def rec(idx, chosen, cost):
        if cost >= best[0]:
            return
        if _covers(chosen, orders):
            best[0] = cost
            return
        if len(chosen) == rmax:
            return
        for i in range(idx, len(divisors)):
            m = divisors[i]
            rec(i, chosen + [m], cost + stability_bound([m], q))

    rec(0, [], 0)
    return best[0]


def min_stable_generating_set(divisors, q: int, bound: int = 64):
    """Smallest Galois-stable subset of the dual group that generates it.

    Returns (size, witness) where witness is a list of exponent tuples.
    Stability means closure under chi -> chi^q; such subsets are unions of
    orbits, so the search runs orbit-by-orbit with iterative deepening on
    the total cardinality.
    """
    divisors = tuple(n for n in divisors if n > 1)
    size = math.prod(divisors)
    if size > bound:
        raise ValueError(f"group order {size} exceeds bound {bound}")
    if size == 1:
        return 0, []
    chars = character_group(divisors)
    orbits = [o for o in galois_orbits(chars, q)
              if not (len(o) == 1 and o[0].is_trivial())]
    orbits.sort(key=len)
    full = frozenset(c.exponents for c in chars)
    ident = frozenset({tuple(0 for _ in divisors)})
    suffix_sizes = [0] * (len(orbits) + 1)
    for i in range(len(orbits) - 1, -1, -1):
        suffix_sizes[i] = suffix_sizes[i + 1] + len(orbits[i])

    def dfs(i, budget, sub, chosen):
        if sub == full:
            return list(chosen)
        if i == len(orbits) or budget <= 0 or suffix_sizes[i] < 1:
            return None
        # take orbit i (only if it can fit and enlarges the subgroup)
        if len(orbits[i]) <= budget:
            bigger = subgroup_closure(
                sub, [chi.exponents for chi in orbits[i]], divisors)
            if len(bigger) > len(sub):
                chosen.append(i)
                found = dfs(i + 1, budget - len(orbits[i]), bigger, chosen)
                if found is not None:
                    return found
                chosen.pop()
        return dfs(i + 1, budget, sub, chosen)

    for target in range(1, size + 1):
        found = dfs(0, target, ident, [])
        if found is not None and sum(len(orbits[i]) for i in found) == target:
            witness = [chi.exponents for i in found for chi in orbits[i]]
            return target, witness
    raise ArithmeticError("dual group not generated by any stable subset")


def min_stable_generating_size(divisors, q: int, bound: int = 64) -> int:
    return min_stable_generating_set(divisors, q, bound)[0]
