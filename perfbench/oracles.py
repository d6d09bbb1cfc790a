"""Independent output checks for the benchmark.

Nothing here imports the package under test: the class number, the
Kronecker symbol, the L-series of 11a1 and the Brandt identities are
recomputed from first principles with the standard library, so a wrong
result in the package cannot also make its own oracle agree.

Every `check_*` function takes the op records a worker produced and returns
{op index: reason} for the ops whose output disagrees with the oracle.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd, isqrt

Q = 11                       # level of the built-in eigenform (curve 11a1)
H_Q11 = 2                    # ideal classes of the maximal order at q = 11
EXIT_OK, EXIT_PRECONDITION = 0, 2


# ---------------------------------------------------------------------------
# elementary arithmetic

def primes_upto(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i, v in enumerate(sieve) if v]


def smallest_prime_factors(n: int) -> list:
    spf = list(range(n + 1))
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            for m in range(p * p, n + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def is_squarefree(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def is_fundamental(D: int) -> bool:
    """Fundamental discriminant of an imaginary quadratic field."""
    if D >= -2:
        return False
    if D % 4 == 1:
        return is_squarefree(-D)
    if D % 4 == 0:
        return (-D // 4) % 4 in (1, 2) and is_squarefree(-D // 4)
    return False


def chi_prime(D: int, p: int) -> int:
    """Kronecker symbol (D / p) for a prime p, by Euler's criterion."""
    if p == 2:
        if D % 2 == 0:
            return 0
        return 1 if D % 8 in (1, 7) else -1
    r = D % p
    if r == 0:
        return 0
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def character_table(D: int, n: int, spf: list) -> list:
    """[chi_D(0), ..., chi_D(n)], chi_D completely multiplicative."""
    chi = [0] * (n + 1)
    if n >= 1:
        chi[1] = 1
    for m in range(2, n + 1):
        p = spf[m]
        chi[m] = chi_prime(D, p) if p == m else chi[p] * chi[m // p]
    return chi


def class_number(D: int, spf: list = None) -> int:
    """h(D) by Dirichlet's class number formula.

    h = -(w / 2|D|) sum_{0 < a < |D|} chi_D(a) a, with w = 6, 4, 2 units.
    """
    N = -D
    spf = spf if spf is not None and len(spf) > N else smallest_prime_factors(N)
    chi = character_table(D, N - 1, spf)
    w = 6 if D == -3 else 4 if D == -4 else 2
    total = Fraction(-w * sum(chi[a] * a for a in range(1, N)), 2 * N)
    if total.denominator != 1 or total <= 0:
        raise ArithmeticError(f"class number formula failed at D = {D}")
    return int(total)


def sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# the L-series of 11a1: y^2 + y = x^3 - x^2 - 10x - 20

def ap_11a1(p: int) -> int:
    """Trace of Frobenius at p by point counting (a_11 = 1: split)."""
    if p == 11:
        return 1
    if p == 2:
        pts = sum(1 for x in range(2) for y in range(2)
                  if (y * y + y - (x ** 3 - x * x - 10 * x - 20)) % 2 == 0)
        return 2 - pts
    # (2y + 1)^2 = 4 f(x) + 1: each x contributes 1 + legendre(4f(x) + 1)
    squares = bytearray(p)
    for y in range(1, p):
        squares[y * y % p] = 1
    vals = [(4 * (x * x * x - x * x - 10 * x - 20) + 1) % p for x in range(p)]
    nonzero = p - vals.count(0)
    return nonzero - 2 * sum(map(squares.__getitem__, vals))


def an_11a1(T: int) -> list:
    """[a_0, ..., a_T] of 11a1 from prime traces by multiplicativity."""
    spf = smallest_prime_factors(T)
    a = [0] * (T + 1)
    if T >= 1:
        a[1] = 1
    ap = {}
    for n in range(2, T + 1):
        p = spf[n]
        m, k = n, 0
        while m % p == 0:
            m //= p
            k += 1
        if m > 1:
            a[n] = a[n // m] * a[m]
            continue
        if p not in ap:
            ap[p] = ap_11a1(p)
        if k == 1:
            a[n] = ap[p]
        elif p == Q:
            a[n] = ap[p] * a[n // p]
        else:
            a[n] = ap[p] * a[n // p] - p * a[n // (p * p)]
    return a


class LSeriesReference:
    """L(E_D, 1) of the twist of 11a1 by chi_D for fundamental D < 0.

    For D prime to 11 the twist has conductor 11 D^2 and, when 11 is inert
    in Q(sqrt D), root number +1, so
        L(E_D, 1) = 2 sum_n a_n chi_D(n) / n exp(-2 pi n / sqrt(11 D^2)).
    The series is summed to a tail below `tail`, with the same bound
    |a_n| <= sqrt(3n) . n^0 per term the package documents.
    """

    def __init__(self, max_abs_d: int, tail: float = 1e-13):
        self.tail_target = tail
        self.T = self.terms(max_abs_d)
        self.a = an_11a1(self.T)
        self.spf = smallest_prime_factors(self.T)

    def terms(self, absd: int) -> int:
        x = math.exp(-2 * math.pi / math.sqrt(Q * absd * absd))
        coef = 2 * math.sqrt(3)
        return max(8, math.ceil(math.log(self.tail_target * (1 - x) / coef)
                                / math.log(x)))

    def value(self, D: int):
        """(value, tail bound, sum of |term|) for the twist by D."""
        c = math.sqrt(Q * D * D)
        T = self.terms(-D)
        if T > self.T:
            raise ValueError(f"reference built for |D| <= {self.T}")
        chi = character_table(D, T, self.spf)
        terms = [self.a[n] * chi[n] / n * math.exp(-2 * math.pi * n / c)
                 for n in range(1, T + 1) if chi[n] and self.a[n]]
        x = math.exp(-2 * math.pi / c)
        tail = 2 * math.sqrt(3) * x ** (T + 1) / (1 - x)
        return 2 * math.fsum(terms), 2 * tail, 2 * sum(map(abs, terms))


# ---------------------------------------------------------------------------
# golden scan rows

def read_golden(path) -> dict:
    """{D: (csv line exactly as the CLI wrote it, {column: value})}."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines(keepends=True)
    header = lines[0].rstrip("\r\n").split(",")
    out = {}
    for line in lines[1:]:
        fields = dict(zip(header, line.rstrip("\r\n").split(",")))
        out[int(fields["D"])] = (line, fields)
    return out


# ---------------------------------------------------------------------------
# per-workload checks

def check_scan(records, golden) -> dict:
    bad = {}
    for i, r in enumerate(records):
        if "error" in r:
            bad[i] = r["error"]
        elif r["D"] not in golden:
            bad[i] = f"D = {r['D']} has no golden row"
        elif r["csv"] != golden[r["D"]][0]:
            bad[i] = f"row {r['csv']!r} != golden {golden[r['D']][0]!r}"
    return bad


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def check_brandt(records, sessions) -> dict:
    """records: one per op, {q, n, session, code, out, warm_code, warm_out};
    sessions: {str(session): {code, out}} of `shimura-set` on the warm cache.

    Each op's matrix must satisfy the row-sum and weight-symmetry identities,
    commute with every other matrix of its session, and equal its replay on
    the warm cache byte for byte."""
    bad = {}
    mats = {}
    for i, r in enumerate(records):
        if "error" in r or r["code"] != EXIT_OK:
            bad[i] = r.get("error") or f"exit {r['code']}"
            continue
        if r.get("warm_code") != EXIT_OK or r.get("warm_out") != r["out"]:
            bad[i] = "warm-cache replay differs from the cold result"
            continue
        shim = sessions.get(str(r["session"]))
        if not shim or shim["code"] != EXIT_OK:
            bad[i] = "shimura-set failed on the warm cache"
            continue
        info = json.loads(shim["out"])
        q, n, w = r["q"], r["n"], info["weights"]
        mass = sum(Fraction(1, 2 * x) for x in w)
        if mass != Fraction(q - 1, 24):
            bad[i] = f"weights {w} break the mass formula"
            continue
        out = json.loads(r["out"])
        B = [[int(c) for c in row] for row in out["matrix"]]
        H = len(w)
        if out["q"] != q or out["n"] != n or len(B) != H:
            bad[i] = "payload does not match the request"
            continue
        if gcd(n, q) == 1 and any(sum(row) != sigma1(n) for row in B):
            bad[i] = f"a row sum differs from sigma({n})"
            continue
        if any(w[j] * B[i2][j] != w[i2] * B[j][i2]
               for i2 in range(H) for j in range(H)):
            bad[i] = "w_j B_ij != w_i B_ji"
            continue
        mats.setdefault(r["session"], []).append((i, B))
    for ops in mats.values():
        for a, (i, A) in enumerate(ops):
            for j, B in ops[a + 1:]:
                if _matmul(A, B) != _matmul(B, A):
                    bad[i] = bad[j] = "Brandt matrices do not commute"
    return bad


def expected_periods(D: int, golden) -> tuple:
    """(exit code, golden fields or None) that `periods --d D` must give."""
    row = golden.get(D)
    if row is None:
        if D <= -5:
            raise KeyError(f"golden scan does not reach D = {D}")
        # D = -3, -4 are excluded fields; every other D > -5 is not a
        # fundamental imaginary discriminant
        return EXIT_PRECONDITION, None
    fields = row[1]
    return (EXIT_OK, fields) if fields["reason"] == "" else \
        (EXIT_PRECONDITION, None)


def special_points_ok(D: int, golden) -> bool:
    """True when `special-points --d D` must succeed: D fundamental and 11
    neither split nor ramified (p | h and the fields -3, -4 are fine)."""
    if D in (-3, -4):
        return True
    row = golden.get(D)
    if row is None:
        if D <= -5:
            raise KeyError(f"golden scan does not reach D = {D}")
        return False
    return row[1]["reason"] in ("", "p|h")


def check_queries(records, golden, lref=None) -> dict:
    """records: one per op, {kind, D | orders/q, code, out}. Returns the
    failures; split-D L-values are timed but unchecked (see `lvalue_ok`)."""
    bad = {}
    spf = None
    for i, r in enumerate(records):
        if "error" in r:
            bad[i] = r["error"]
            continue
        kind, code = r["kind"], r["code"]
        try:
            out = json.loads(r["out"]) if code == EXIT_OK else None
            if kind == "periods":
                want, fields = expected_periods(r["D"], golden)
                if code != want:
                    bad[i] = f"exit {code}, expected {want}"
                elif fields and (out["ellK"] != int(fields["ellK"])
                                 or out["h"] != int(fields["h"])
                                 or out["orbits"] != int(fields["orbits"])
                                 or len(out["xi_set"]) != out["ellK"]):
                    bad[i] = "ellK, h or orbits differ from the golden row"
            elif kind == "special-points":
                want = EXIT_OK if special_points_ok(r["D"], golden) \
                    else EXIT_PRECONDITION
                if code != want:
                    bad[i] = f"exit {code}, expected {want}"
                elif out is not None:
                    h = class_number(r["D"])
                    pts = out["points"]
                    if out["h"] != h or len(pts) != h or any(
                            not 0 <= x < H_Q11 for x in pts.values()):
                        bad[i] = "special points do not cover the class group"
            elif kind == "classgroup":
                if spf is None:
                    spf = smallest_prime_factors(100_000)
                h = class_number(r["D"], spf)
                prod = math.prod(out["orders"]) if out else None
                if code != EXIT_OK or out["h"] != h or prod != h \
                        or len(out["forms"]) != h:
                    bad[i] = f"class number differs from h = {h}"
            elif kind == "stability":
                if code != EXIT_OK or out["minimum"] != out["lower_bound"] \
                        or len(out["witness"]) != out["minimum"]:
                    bad[i] = "stable generating minimum != lower bound"
                elif not stable_generating(out["witness"], r["orders"],
                                           r["q"]):
                    bad[i] = "witness is not a stable generating set"
            elif kind == "lvalue":
                if code != EXIT_OK:
                    bad[i] = f"exit {code}"
                elif lvalue_checked(r["D"]):
                    ok, why = lvalue_ok(out, r["D"], lref)
                    if not ok:
                        bad[i] = why
            else:
                bad[i] = f"unknown kind {kind}"
        except (KeyError, TypeError, ValueError, ArithmeticError) as err:
            bad[i] = f"malformed output: {err!r}"
    return bad


def stable_generating(witness, orders, q) -> bool:
    """True when `witness` is a set of elements of Z/n_1 + ... + Z/n_r that
    is closed under x -> q.x and generates the whole group."""
    elems = {tuple(w) for w in witness}
    if len(elems) != len(witness) or any(
            len(e) != len(orders) or not all(0 <= a < n
                                             for a, n in zip(e, orders))
            for e in elems):
        return False
    if any(tuple(q * a % n for a, n in zip(e, orders)) not in elems
           for e in elems):
        return False
    sub = {tuple(0 for _ in orders)}
    frontier = list(sub)
    while frontier:
        x = frontier.pop()
        for e in elems:
            y = tuple((a + b) % n for a, b, n in zip(x, e, orders))
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    return len(sub) == math.prod(orders)


def lvalue_checked(D: int) -> bool:
    """Only inert D are checked: their root number is +1 either way."""
    return chi_prime(D, Q) == -1


def lvalue_ok(out: dict, D: int, lref: LSeriesReference):
    ref, ref_tail, mass = lref.value(D)
    # float rounding: a few ulps per term of the (absolute) series mass
    allowance = ref_tail + 2.0 ** -40 * (mass + 1.0)
    err = abs(out["value"] - ref)
    if out["D"] != D or not err <= out["tail"] + allowance:
        return False, (f"L(E_D, 1) = {out['value']!r}, reference {ref!r}, "
                       f"|diff| {err:.3g} > tail {out['tail']:.3g}")
    return True, ""
