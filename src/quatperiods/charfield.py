"""Characters of finite abelian groups and their reduction into F_{p^k}.

A character of a group with invariant factors n_1 | ... | n_d is an exponent
vector; its values are powers of zeta_n for n = n_d. An element
sum_i c_i zeta^i of Z[zeta_n] is held as its integer coefficient array, and
a deterministic embedding into the field of size p^k (k the order of p mod
n) maps it to F_p[x]/(g) by one polynomial remainder mod (g, p). The module
also provides the enumeration of a finite abelian group and its subgroup
closure, Galois orbits of characters under chi -> chi^q0, and the
stable-generating-set machinery for Galois-stable subsets of the dual group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

import sympy


# ---------------------------------------------------------------------------
# the deterministic embedding iota_p : Z[zeta_n] -> F_{p^k}

@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple:
    """Coefficients (low to high, monic) of the n-th cyclotomic polynomial."""
    # polys=True keeps sympy from building (and importing the machinery
    # for) a symbolic expression of the polynomial
    poly = sympy.cyclotomic_poly(n, sympy.symbols("x"), polys=True)
    return tuple(int(c) for c in reversed(poly.all_coeffs()))


class FieldEmbedding:
    """A fixed prime above p in Q(zeta_n), realized as a reduction map.

    The target field is F_p[x]/(g) where g is the lexicographically smallest
    (coefficients compared low-to-high, normalized to 0..p-1) monic
    irreducible factor of the n-th cyclotomic polynomial mod p, and zeta_n
    maps to the class of x. Since g divides x^n - 1 mod p, reducing integer
    polynomials mod (g, p) is a ring homomorphism Z[x]/(x^n - 1) -> F_{p^k},
    and the lexicographic choice makes (p, n) -> embedding deterministic.
    """

    def __init__(self, p: int, n: int):
        if n % p == 0:
            raise ValueError(f"p = {p} divides n = {n}")
        self.p = p
        self.n = n
        self.k = 1 if n <= 2 else int(sympy.n_order(p, n))
        self.modulus = _smallest_cyclotomic_factor(p, n, self.k)

    def reduce(self, coeffs) -> tuple:
        """Image of sum_i coeffs[i] zeta^i: the remainder of the integer
        polynomial mod (g, p), as a tuple of length k."""
        p, k, g = self.p, self.k, self.modulus
        work = list(coeffs) + [0] * (k - len(coeffs))
        for i in range(len(work) - 1, k - 1, -1):
            c = work[i] % p
            if c:
                for j in range(k):
                    work[i - k + j] -= c * g[j]
        return tuple(c % p for c in work[:k])


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

