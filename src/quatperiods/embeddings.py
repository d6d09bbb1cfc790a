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
from math import gcd, lcm

from .bqf import QuadForm, _xgcd, check_fundamental
from .curves import kronecker
from .linalg import left_kernel, mat_inv_frac, qf_solutions
from .quatalg import Lattice, QuaternionAlgebra, ShimuraSet


class EmbeddingError(ValueError):
    """No embedding exists (the prime q splits in the field)."""


@dataclass(frozen=True)
class TorusEmbedding:
    """omega generates the image of the quadratic order inside the left
    order of the base ideal; special points are classes of iota(a) . base."""

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

    def sqrt_D(self) -> tuple:
        return tuple(2 * w - (self.t if idx == 0 else 0)
                     for idx, w in enumerate(self.omega))

    def ideal_generators(self, form: QuadForm):
        """Images of the ideal basis (a, (-b + sqrt D)/2) of a form class."""
        if form.disc != self.D:
            raise ValueError("form discriminant mismatch")
        # (-b + sqrt D)/2 = omega - (b + t)/2
        shift = (form.b + self.t) // 2
        gamma = tuple(w - (shift if idx == 0 else 0)
                      for idx, w in enumerate(self.omega))
        one = (Fraction(form.a), Fraction(0), Fraction(0), Fraction(0))
        return [one, gamma]


def embedding_candidates(O: Lattice, alg: QuaternionAlgebra, D: int):
    """All omega in the order with trd = D mod 2, nrd = (t^2 - D)/4, sorted.

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
    # particular solution of sum c_s trd(b_s) = t over the integers
    c0 = _particular_trace_solution(traces, t)
    K = _trace_kernel(traces)
    G, s = O.int_gram(alg)          # nrd(c . b) = c G c^T / s

    def form(u, v):
        return sum(u[i] * G[i][j] * v[j] for i in range(4) for j in range(4))

    # s nrd on the affine slice c0 + y . K is y G3 y^T + 2 y . lin + form(c0)
    G3 = [[form(K[r], K[k]) for k in range(3)] for r in range(3)]
    lin = [form(K[r], c0) for r in range(3)]
    Ginv = mat_inv_frac(G3)
    center = [-sum(Ginv[r][k] * lin[k] for k in range(3)) for r in range(3)]
    target = n * s - form(c0, c0) - sum(lin[r] * center[r] for r in range(3))
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
    return [tuple(Fraction(x, O.den) for x in w) for w in sorted(out)]


def _particular_trace_solution(traces, t: int):
    """Integer c with sum c_s * traces_s = t (traces are integers here)."""
    ints = [int(f) for f in traces]
    g = gcd(*ints)
    if t % g:
        raise ArithmeticError("trace slice is empty")
    # extended gcd over the 4 coefficients
    acc = 0
    acc_coeffs = [0, 0, 0, 0]
    for idx, x in enumerate(ints):
        acc, u, v = _xgcd(acc, x)
        acc_coeffs = [u * c for c in acc_coeffs]
        acc_coeffs[idx] += v
    scale = t // g
    return [c * scale for c in acc_coeffs]


def _trace_kernel(traces):
    """Rank-3 integer kernel of the trace linear form."""
    ints = [[int(f)] for f in traces]
    k = left_kernel(ints)
    if len(k) != 3:
        raise ArithmeticError("trace form kernel has unexpected rank")
    return k


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
    first = cands[0]
    t = -D % 2
    conj_first = tuple(-w + (t if c == 0 else 0)
                       for c, w in enumerate(first))
    for omega in cands[1:]:
        if omega != conj_first:
            return TorusEmbedding(alg, OL, D, omega, base, idx)
    return TorusEmbedding(alg, OL, D, conj_first, base, idx)


def special_ideal(emb: TorusEmbedding, form: QuadForm) -> Lattice:
    """The right ideal iota(a) . I_base for the ideal a attached to the form."""
    gens = emb.ideal_generators(form)
    den = lcm(*(Fraction(x).denominator for g in gens for x in g))
    B = emb.base_ideal
    vecs = [emb.alg.mult([int(x * den) for x in g], r)
            for g in gens for r in B.rows]
    return Lattice.make(vecs, den * B.den)


def special_point(emb: TorusEmbedding, form: QuadForm, X: ShimuraSet) -> int:
    """Index in X of the class of iota(a) . I_base."""
    return X.classify(special_ideal(emb, form))


def phi_map(emb: TorusEmbedding, cg, X: ShimuraSet) -> dict:
    """sigma -> x_sigma over the whole class group (sigma = exponent vector)."""
    out = {}
    for sigma in cg.elements():
        out[sigma] = special_point(emb, cg.decode(sigma), X)
    return out
