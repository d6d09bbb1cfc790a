"""Toric periods of a quaternionic eigenform twisted by class-group
characters, their mod-p non-vanishing counts, horizontal scans over
discriminants, and equidistribution statistics of special points.

For a class group of exponent n the period of the character chi is
    P(chi) = h^{-1} sum_sigma chi(sigma)^{-1} f(x_sigma).
It is accumulated as the integer coefficient array of h.P on
1, zeta, ..., zeta^(n-1) and reduced into F_{p^k} by the deterministic
embedding's one remainder map. The non-vanishing count ell_K is the number
of characters whose reduction is a unit, and the set of those characters is
checked to be stable under chi -> chi^{q0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .bqf import ClassGroup, class_group_structure, is_fundamental
from .charfield import (
    Character,
    FieldEmbedding,
    character_group,
    galois_orbits,
    group_elements,
    subgroup_closure,
)
from .curves import kronecker
from .embeddings import embedding_search, optimal_embedding, phi_map
from .ledger import excluded_primes
from .quatalg import (
    Eigenform,
    ShimuraSet,
    build_algebra,
    eigenform,
    maximal_order,
    right_ideal_classes,
)


@dataclass(frozen=True)
class ToricPeriod:
    chi: Character
    modp: tuple              # P(chi) in F_p[x]/(g), k coefficients mod p
    vzero: bool              # True when the reduction is a unit

    def __post_init__(self):
        if self.vzero != any(self.modp):
            raise ArithmeticError("vzero disagrees with the reduction")


def toric_period(f: Eigenform, phi: dict, chi: Character,
                 emb: FieldEmbedding) -> ToricPeriod:
    """P(chi) from the special-points map phi: sigma -> index into X."""
    h = len(phi)
    if h % emb.p == 0:
        raise ValueError("p divides the class number")
    n = chi.level
    if emb.n != n:
        raise ValueError("embedding level mismatch")
    chinv = chi.inverse()
    cyc = [0] * n
    for sigma, idx in phi.items():
        cyc[chinv.pairing_exponent(sigma)] += f.coords[idx]
    hinv = pow(h, -1, emb.p)
    modp = emb.reduce([c * hinv for c in cyc])
    return ToricPeriod(chi, modp, any(modp))


@dataclass
class ScanRow:
    D: int
    h: int
    q0: int
    ellK: int
    orbit_count: int
    xi_set: tuple            # exponent vectors of non-vanishing characters
    log_bound: float         # (ln |D|)^(1 - eps), presentational
    reason: str = ""         # empty for emitted rows, else the skip reason

    @property
    def emitted(self) -> bool:
        return self.reason == ""


def check_prime(curve, p: int) -> None:
    """Reject p unless it is a prime outside excluded_primes(curve), which
    contains 2, 3 and q."""
    bad = excluded_primes(curve)
    if p in bad or not sympy.isprime(p):
        raise ValueError(f"p = {p} must be a prime outside {sorted(bad)}")


class PeriodPipeline:
    """Fixed (q, curve, p): Shimura set, eigenform, and per-D period rows."""

    def __init__(self, curve, p: int, primes=(2, 3, 5, 7, 13), X=None):
        self.curve = curve
        self.q = curve.N
        check_prime(curve, p)
        self.p = p
        if X is None:
            alg = build_algebra(self.q)
            X = right_ideal_classes(maximal_order(alg), alg)
        self.X = X
        self.f = eigenform(self.X, curve, p, primes)
        # the eigenform has rational integer coordinates, so its mod-p
        # values generate the prime field
        self.q0 = p
        self._last_cg = (None, None)

    def class_group(self, D: int) -> ClassGroup:
        """class_group_structure(D), kept for the last D asked: a row asks
        for it once to decide the skip reason and once to compute."""
        if self._last_cg[0] != D:
            self._last_cg = (D, class_group_structure(D))
        return self._last_cg[1]

    def skip_reason(self, D: int) -> str:
        if not is_fundamental(D):
            return "non-fundamental"
        if D in (-3, -4):
            return "excluded field"
        if D % self.q == 0:
            return "ramified"
        if kronecker(D, self.q) == 1:
            return "split"
        if self.class_group(D).h % self.p == 0:
            return "p|h"
        return ""

    def periods(self, cg: ClassGroup, phi: dict, emb: FieldEmbedding):
        return {chi: toric_period(self.f, phi, chi, emb)
                for chi in character_group(cg)}

    def row(self, D: int, eps: float = 0.1, check_embedding: bool = True,
            check_fourier: bool = True) -> ScanRow:
        reason = self.skip_reason(D)
        log_bound = math.log(abs(D)) ** (1 - eps) if D < -1 else 0.0
        if reason:
            return ScanRow(D, 0, self.q0, 0, 0, (), log_bound, reason)
        cg = self.class_group(D)
        n = cg.exponent
        emb = FieldEmbedding(self.p, n)
        found = embedding_search(self.X, D)
        phi = phi_map(optimal_embedding(self.X, D, found=found), cg, self.X)
        pers = self.periods(cg, phi, emb)
        xi = tuple(sorted(chi.exponents for chi, P in pers.items()
                          if P.vzero))
        orbits = galois_orbits(list(pers), self.q0 % n if n > 1 else 1)
        xi_lookup = set(xi)
        orbit_count = 0
        for orb in orbits:
            inside = [chi.exponents in xi_lookup for chi in orb]
            if any(inside):
                orbit_count += 1
                if not all(inside):
                    raise ArithmeticError(
                        f"non-vanishing set not Galois stable at D={D}")
        if check_fourier:
            self._fourier_check(pers, phi, emb)
        if check_embedding:
            phi2 = phi_map(optimal_embedding(self.X, D, which=1, found=found),
                           cg, self.X)
            pers2 = self.periods(cg, phi2, emb)
            ell2 = sum(1 for P in pers2.values() if P.vzero)
            if ell2 != len(xi):
                raise ArithmeticError(
                    f"ell_K depends on the embedding at D={D}")
        return ScanRow(D, cg.h, self.q0, len(xi), orbit_count, xi,
                       log_bound)

    def _fourier_check(self, pers: dict, phi: dict, emb: FieldEmbedding):
        """Inverse transform of the periods must reproduce sigma -> f(x_sigma).

        sum_chi P(chi) chi(sigma) is summed on coefficient arrays, where
        multiplying by chi(sigma) = zeta^e shifts by e, and reduced once."""
        size = emb.n + emb.k
        nonzero = [(chi, P.modp) for chi, P in pers.items() if P.vzero]
        for sigma, idx in phi.items():
            acc = [0] * size
            for chi, modp in nonzero:
                e = chi.pairing_exponent(sigma)
                for i, c in enumerate(modp):
                    acc[e + i] += c
            if emb.reduce(acc) != emb.reduce([self.f.coords[idx]]):
                raise ArithmeticError("Fourier inversion failed on a row")

    def trivial_period_sum(self, D: int) -> int:
        """h . P(1) = sum_sigma f(x_sigma), an ordinary integer."""
        cg = class_group_structure(D)
        phi = phi_map(optimal_embedding(self.X, D), cg, self.X)
        return sum(self.f.coords[idx] for idx in phi.values())


def horizontal_scan(pipe: PeriodPipeline, dmax: int, eps: float = 0.1,
                    dmin: int = 5, **row_kwargs):
    """Rows for every D with dmin <= |D| <= dmax; skips carry reasons."""
    rows = []
    for D in range(-dmin, -dmax - 1, -1):
        rows.append(pipe.row(D, eps, **row_kwargs))
    return rows


def scan_summary(rows) -> dict:
    emitted = [r for r in rows if r.emitted]
    windows = {}
    for r in emitted:
        k = max(0, abs(r.D).bit_length() - 1)
        win = (2 ** k, 2 ** (k + 1))
        windows.setdefault(win, []).append(r)
    table = []
    for win in sorted(windows):
        rs = windows[win]
        table.append({
            "window": list(win),
            "rows": len(rs),
            "min_ellK": min(r.ellK for r in rs),
            "mean_ellK": sum(r.ellK for r in rs) / len(rs),
            "max_ellK": max(r.ellK for r in rs),
            "mean_log_bound": sum(r.log_bound for r in rs) / len(rs),
        })
    skip_counts = {}
    for r in rows:
        if not r.emitted:
            skip_counts[r.reason] = skip_counts.get(r.reason, 0) + 1
    return {"emitted": len(emitted), "skipped": skip_counts,
            "windows": table}


# ---------------------------------------------------------------------------
# equidistribution statistics

def target_measure(X: ShimuraSet):
    """Probability measure on X proportional to 1/w_x, as exact Fractions."""
    inv = [Fraction(1, w) for w in X.weights]
    total = sum(inv, Fraction(0))
    return [v / total for v in inv]


def tv_distance(counts, measure) -> Fraction:
    total = sum(counts)
    if total == 0:
        return Fraction(0)
    return sum((abs(Fraction(c, total) - m)
                for c, m in zip(counts, measure)), Fraction(0)) / 2


def empirical_counts(phi: dict, H: int, subgroup=None):
    counts = [0] * H
    for sigma, idx in phi.items():
        if subgroup is None or sigma in subgroup:
            counts[idx] += 1
    return counts


def dual_subgroups_upto(orders, bound: int):
    """All subgroups of the character group with order <= bound."""
    chars = character_group(orders)
    found = {frozenset({tuple(0 for _ in orders)})}
    frontier = [frozenset({tuple(0 for _ in orders)})]
    while frontier:
        sub = frontier.pop()
        for chi in chars:
            if chi.exponents in sub:
                continue
            new = subgroup_closure(sub, [chi.exponents], orders)
            if len(new) <= bound and new not in found:
                found.add(new)
                frontier.append(new)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def annihilated_subgroup(dual_sub, orders):
    """{sigma : chi(sigma) = 1 for all chi in the dual subgroup}."""
    out = set()
    for sigma in group_elements(orders):
        if all(Character(chi, tuple(orders)).pairing_exponent(sigma) == 0
               for chi in dual_sub):
            out.add(sigma)
    return out


@dataclass
class EquidistRow:
    D: int
    h: int
    tv: Fraction
    subgroup_tvs: tuple      # (index, tv) pairs for proper dual subgroups


def equidist_stats(pipe: PeriodPipeline, D: int,
                   index_bound: int = 4) -> EquidistRow:
    cg = class_group_structure(D)
    phi = phi_map(optimal_embedding(pipe.X, D), cg, pipe.X)
    measure = target_measure(pipe.X)
    tv = tv_distance(empirical_counts(phi, pipe.X.H), measure)
    subs = []
    for dual in dual_subgroups_upto(cg.orders, index_bound):
        if len(dual) == 1:
            continue
        H_sub = annihilated_subgroup(dual, cg.orders)
        counts = empirical_counts(phi, pipe.X.H, H_sub)
        subs.append((len(dual), tv_distance(counts, measure)))
    return EquidistRow(D, cg.h, tv, tuple(subs))
