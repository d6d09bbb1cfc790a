"""Class groups of imaginary quadratic fields via reduced binary quadratic forms.

A class of the ideal class group of the order of discriminant D < 0 is
represented by its unique reduced form (a, b, c) with b^2 - 4ac = D. The
group law is classical Gauss/Dirichlet composition followed by reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd, isqrt, prod

import sympy

from .charfield import group_elements
from .linalg import snf


class NonFundamentalDiscriminant(ValueError):
    pass


def is_fundamental(D: int) -> bool:
    """True when D is a fundamental imaginary quadratic discriminant."""
    if D >= 0:
        return False
    if D % 4 == 1 or D % 4 == -3:
        return _squarefree(-D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3, -2, -1) and _squarefree(-m)
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in sympy.factorint(n).values())


def check_fundamental(D: int) -> None:
    if not is_fundamental(D):
        raise NonFundamentalDiscriminant(
            f"{D} is not a fundamental imaginary quadratic discriminant")


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def reduce(self) -> "QuadForm":
        a, b, c = self.a, self.b, self.c
        while True:
            if c < a:
                a, b, c = c, -b, a
                continue
            if b > a or b <= -a:
                # normalize b into (-a, a]
                r = (a - b) // (2 * a)
                b2 = b + 2 * r * a
                c = a * r * r + b * r + c
                b = b2
                continue
            if (b == -a) or (a == c and b < 0):
                b = -b
                continue
            break
        return QuadForm(a, b, c)

    def inverse(self) -> "QuadForm":
        return QuadForm(self.a, -self.b, self.c).reduce()


def principal_form(D: int) -> QuadForm:
    k = D & 1
    return QuadForm(1, k, (k * k - D) // 4)


def compose(f: QuadForm, g: QuadForm) -> QuadForm:
    """Gauss composition of two primitive forms of one discriminant, reduced.

    Writes d = gcd(a1, a2, (b1+b2)/2) as u*a1 + v*a2 + w*(b1+b2)/2 and uses
    the classical direct formula for the middle coefficient of the compound.
    """
    if f.disc != g.disc:
        raise ValueError("discriminant mismatch")
    D = f.disc
    a1, b1 = f.a, f.b
    a2, b2 = g.a, g.b
    s = (b1 + b2) // 2
    g1, u1, v1 = _xgcd(a1, a2)
    d, x2, y2 = _xgcd(g1, s)
    u, v, w = x2 * u1, x2 * v1, y2
    a3 = a1 * a2 // (d * d)
    b3 = (u * a1 * b2 + v * a2 * b1 + w * (b1 * b2 + D) // 2) // d
    b3 %= 2 * a3
    c3 = (b3 * b3 - D) // (4 * a3)
    return QuadForm(a3, b3, c3).reduce()


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def form_pow(f: QuadForm, n: int) -> QuadForm:
    D = f.disc
    if n < 0:
        return form_pow(f.inverse(), -n)
    r = principal_form(D)
    base = f.reduce()
    while n:
        if n & 1:
            r = compose(r, base)
        base = compose(base, base)
        n >>= 1
    return r


def enumerate_reduced_forms(D: int) -> list[QuadForm]:
    """All reduced primitive forms of fundamental discriminant D < 0."""
    check_fundamental(D)
    forms = []
    amax = isqrt(-D // 3)
    for a in range(1, amax + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - D) % (4 * a):
                continue
            c = (b * b - D) // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append(QuadForm(a, b, c))
    return sorted(forms)


def class_number(D: int) -> int:
    return len(enumerate_reduced_forms(D))


@dataclass
class ClassGroup:
    """Cl of the field with fundamental discriminant D.

    factors holds (generator, order) pairs with orders n_1 | n_2 | ... and
    prod n_i = h. dlog maps every reduced form to its exponent vector.
    """

    D: int
    h: int
    forms: list[QuadForm]
    factors: list[tuple[QuadForm, int]]
    dlog: dict[QuadForm, tuple[int, ...]] = field(repr=False, default_factory=dict)

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(n for _, n in self.factors)

    @property
    def exponent(self) -> int:
        return self.factors[-1][1] if self.factors else 1

    def encode(self, f: QuadForm) -> tuple[int, ...]:
        return self.dlog[f.reduce()]

    def decode(self, exps) -> QuadForm:
        r = principal_form(self.D)
        for (g, n), e in zip(self.factors, exps):
            r = compose(r, form_pow(g, e % n))
        return r

    def elements(self):
        """All exponent vectors, in lexicographic order."""
        return group_elements(self.orders)


def _element_order(f: QuadForm, h: int) -> int:
    """Order of a class, via the factorization of the group order."""
    order = h
    ident = principal_form(f.disc)
    for p in sympy.factorint(h):
        while order % p == 0 and form_pow(f, order // p) == ident:
            order //= p
    return order


def class_group_structure(D: int) -> ClassGroup:
    """Elementary-divisor decomposition of the form class group."""
    forms = enumerate_reduced_forms(D)
    h = len(forms)
    ident = principal_form(D)

    if h == 1:
        return ClassGroup(D, 1, forms, [], {ident: ()})

    # greedy generating set: repeatedly adjoin the lex-smallest form of
    # maximal order outside the current subgroup, with relative orders
    gens: list[QuadForm] = []
    rel_orders: list[int] = []
    rel_dlog: dict[QuadForm, tuple[int, ...]] = {ident: ()}
    orders = {f: _element_order(f, h) for f in forms}
    while len(rel_dlog) < h:
        outside = [f for f in forms if f not in rel_dlog]
        best = max(orders[f] for f in outside)
        g = min(f for f in outside if orders[f] == best)
        # relative order: least m >= 1 with g^m inside the current subgroup
        m = 1
        p = g
        while p not in rel_dlog:
            p = compose(p, g)
            m += 1
        old = dict(rel_dlog)
        rel_dlog = {f: vec + (0,) for f, vec in old.items()}
        for f, vec in old.items():
            acc = f
            for e in range(1, m):
                acc = compose(acc, g)
                rel_dlog[acc] = vec + (e,)
        gens.append(g)
        rel_orders.append(m)

    # relation matrix: g_i^{m_i} = prod_{j<i} g_j^{a_ij}
    k = len(gens)
    rel_rows = []
    for i, (g, m) in enumerate(zip(gens, rel_orders)):
        vec = rel_dlog[form_pow(g, m)]
        rel_rows.append([m * (i == j) - vec[j] for j in range(k)])

    Dmat, U, V = snf(rel_rows)
    inv_factors = [Dmat[i][i] for i in range(k)]
    keep = [j for j in range(k) if inv_factors[j] > 1]
    # exponents in the generators g_i map to Smith coordinates by V
    dlog = {}
    for f in forms:
        vec = rel_dlog[f]
        dlog[f] = tuple(sum(vec[i] * V[i][j] for i in range(k))
                        % inv_factors[j] for j in keep)
    # the generator of invariant factor j is the class whose vector is e_j;
    # if there is none, dlog is not a bijection and _verify_structure raises
    by_vec = {vec: f for f, vec in dlog.items()}
    factors = [(by_vec.get(tuple(int(i == j) for i in keep), ident),
                inv_factors[j]) for j in keep]
    cg = ClassGroup(D, h, forms, factors, dlog)
    _verify_structure(cg)
    return cg


def _verify_structure(cg: ClassGroup) -> None:
    if prod(cg.orders) != cg.h:
        raise ArithmeticError("invariant factor product mismatch")
    seen = set(cg.dlog.values())
    if len(seen) != cg.h:
        raise ArithmeticError("exponent vectors not unique")
    for f in cg.forms:
        if cg.decode(cg.dlog[f]) != f:
            raise ArithmeticError("encode/decode roundtrip failed")
