"""Optimal embeddings of imaginary quadratic orders into the maximal order
of a definite quaternion algebra, and the special-points map from the class
group to the set of right-ideal classes.

The canonical generator of the ring of integers of the field of fundamental
discriminant D is omega_K = (t + sqrt(D))/2 with t = D mod 2, so an
embedding is pinned down by a quaternion omega in the maximal order with
trd(omega) = t and nrd(omega) = (t^2 - D)/4; then sqrt(D) maps to
2 omega - t. For fundamental D any such omega is automatically optimal:
the intersection of the field with the order is an order of K containing
the maximal order Z[omega_K].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bqf import QuadForm, check_fundamental
from .curves import kronecker
from .linalg import hnf, int_det, qf_solutions
from .quatalg import Lattice, QuaternionAlgebra, ShimuraSet


class EmbeddingError(ValueError):
    """No embedding exists (the prime q splits in the field)."""


@dataclass(frozen=True)
class TorusEmbedding:
    """omega generates the image of the quadratic order inside the left
    order of the base ideal; special points are classes of iota(a) . base.
    omega holds the integer numerators of omega over order.den."""

    alg: QuaternionAlgebra
    order: Lattice
    D: int
    omega: tuple
    base_ideal: Lattice
    base_index: int

    @property
    def t(self) -> int:
        return -self.D % 2

    @property
    def n(self) -> int:
        return (self.t * self.t - self.D) // 4

    def ideal_generators(self, form: QuadForm):
        """Images of the ideal basis (a, (-b + sqrt D)/2) of a form class,
        as integer numerators over order.den."""
        if form.disc != self.D:
            raise ValueError("form discriminant mismatch")
        # (-b + sqrt D)/2 = omega - (b + t)/2
        den = self.order.den
        w0, w1, w2, w3 = self.omega
        return [(form.a * den, 0, 0, 0),
                (w0 - (form.b + self.t) // 2 * den, w1, w2, w3)]


def embedding_candidates(O: Lattice, alg: QuaternionAlgebra, D: int):
    """All omega in the order with trd = D mod 2, nrd = (t^2 - D)/4, as
    sorted integer numerators over O.den: the norm shell of the affine
    slice trd = t, whose point and direction lattice come from one HNF.

    Raises ArithmeticError when the order contains no such element (the
    quadratic order then embeds into a different class's left order)."""
    check_fundamental(D)
    if D % alg.q == 0:
        raise ValueError("ramified discriminant is out of scope")
    if kronecker(D, alg.q) == 1:
        raise EmbeddingError(
            f"{alg.q} splits in the field of discriminant {D}")
    t = -D % 2
    n = (t * t - D) // 4
    # trd of the basis vectors, times den
    traces = [alg.trd(r) for r in O.rows]
    if any(x % O.den for x in traces):
        raise ValueError("order has a basis element of non-integral trace")
    traces = [x // O.den for x in traces]
    # the HNF of [trd(b_s) | e_s]: its first row is (g, u) with
    # u . traces = g, the other three span the kernel of the trace form
    (g, *u), *K = hnf([[x] + [int(i == r) for i in range(4)]
                       for r, x in enumerate(traces)])
    if t % g:
        raise ArithmeticError("trace slice is empty")
    c0 = [c * (t // g) for c in u]          # c0 . traces = t
    K = [k[1:] for k in K]
    G, s = O.int_gram(alg)          # nrd(c . b) = c G c^T / s

    def form(u, v):
        return sum(u[i] * G[i][j] * v[j] for i in range(4) for j in range(4))

    # s nrd on the affine slice c0 + y . K is y G3 y^T + 2 y . lin + form(c0)
    G3 = [[form(K[r], K[k]) for k in range(3)] for r in range(3)]
    lin = [form(K[r], c0) for r in range(3)]
    # the centre -G3^-1 lin by Cramer's rule: G3^-1 lin = num / det3
    det3 = int_det(G3)
    num = [int_det([[lin[r] if k == c else G3[r][k] for k in range(3)]
                    for r in range(3)]) for c in range(3)]
    center = [Fraction(-x, det3) for x in num]
    target = Fraction((n * s - form(c0, c0)) * det3
                      + sum(u * x for u, x in zip(lin, num)), det3)
    out = []
    for y in qf_solutions(G3, target, center):
        c = [c0[i] + sum(y[r] * K[r][i] for r in range(3)) for i in range(4)]
        w = tuple(sum(c[k] * O.rows[k][idx] for k in range(4))
                  for idx in range(4))     # den * omega
        if alg.trd(w) != t * O.den or alg.nrd(w) != n * s:
            raise ArithmeticError("candidate has the wrong trace or norm")
        out.append(w)
    if not out:
        raise ArithmeticError("order contains no element with the target "
                              "characteristic polynomial")
    return sorted(out)


def embedding_search(X: ShimuraSet, D: int):
    """(index, candidates): the first class (by index) whose left order
    contains a suitable omega, and all such omega in that order, sorted."""
    last_err = None
    for idx, OL in enumerate(X.left_orders):
        try:
            return idx, embedding_candidates(OL, X.alg, D)
        except ArithmeticError as err:
            # kept without its traceback, which would tie this frame and the
            # caller's into a reference cycle that only the collector frees
            last_err = err.with_traceback(None)
    raise ArithmeticError(
        f"no left order admits the discriminant-{D} embedding") from last_err


def optimal_embedding(X: ShimuraSet, D: int, which: int = 0,
                      found=None) -> TorusEmbedding:
    """The deterministic embedding: first class (by index) whose left order
    contains a suitable omega, then the lexicographically smallest omega.

    A quadratic order need not embed into every maximal order of the
    algebra, only into at least one left order of an ideal class, so the
    search walks the class list; the special-points map is then based at
    that class. which = 1 picks the next candidate (used for robustness
    checks); the conjugate t - omega is excluded from being the alternative
    since it induces the complex-conjugate map. `found` is the result of
    `embedding_search(X, D)` when the caller already has it.
    """
    idx, cands = found if found is not None else embedding_search(X, D)
    alg, OL, base = X.alg, X.left_orders[idx], X.classes[idx]
    if which == 0:
        return TorusEmbedding(alg, OL, D, cands[0], base, idx)
    w0, w1, w2, w3 = cands[0]
    conj_first = (-D % 2 * OL.den - w0, -w1, -w2, -w3)
    for omega in cands[1:]:
        if omega != conj_first:
            return TorusEmbedding(alg, OL, D, omega, base, idx)
    return TorusEmbedding(alg, OL, D, conj_first, base, idx)


def special_ideal(emb: TorusEmbedding, form: QuadForm) -> Lattice:
    """The right ideal iota(a) . I_base for the ideal a attached to the form."""
    B = emb.base_ideal
    return Lattice.make([emb.alg.mult(g, r)
                         for g in emb.ideal_generators(form) for r in B.rows],
                        emb.order.den * B.den)


def special_point(emb: TorusEmbedding, form: QuadForm, X: ShimuraSet) -> int:
    """Index in X of the class of iota(a) . I_base."""
    return X.classify(special_ideal(emb, form))


def phi_map(emb: TorusEmbedding, cg, X: ShimuraSet) -> dict:
    """sigma -> x_sigma over the whole class group (sigma = exponent vector)."""
    return {sigma: special_point(emb, form, X)
            for form, sigma in cg.dlog.items()}
