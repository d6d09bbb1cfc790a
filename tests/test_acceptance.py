"""Acceptance gate: eleven end-to-end guarantees, one test each, every
test printing a single PASS line with its runtime against the budget.

The tests are ordered so the expensive reference scan (conductor 11,
p = 7, fundamental inert discriminants up to 2000) is computed once and
shared by the consistency, embedding-robustness, and equidistribution
criteria."""

import csv
import io
import math
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
import sympy

from quatperiods.bqf import (
    class_group_structure,
    compose,
    enumerate_reduced_forms,
    is_fundamental,
)
from quatperiods.charfield import (
    min_stable_generating_set,
    stable_generation_lower_bound,
)
from quatperiods.curves import curve_11a1, is_inert
from quatperiods.embeddings import optimal_embedding, special_ideal
from quatperiods.ledger import (
    excluded_primes,
    ideal_I_gcd,
    kolyvagin_exponent,
    sha_exponent,
    waldspurger_consistency,
)
from quatperiods.linalg import left_kernel
from quatperiods.periods import equidist_stats, horizontal_scan
from quatperiods.periods import PeriodPipeline
from quatperiods.quatalg import (
    Lattice,
    brandt_family,
    brandt_matrix,
    build_algebra,
    eigenform,
    maximal_order,
    right_ideal_classes,
)


def finish(name, t0, budget):
    dt = time.time() - t0
    print(f"\n{name}: PASS ({dt:.1f}s, budget {budget}s)")
    assert dt < budget, f"{name} exceeded its {budget}s budget"


@pytest.fixture(scope="module")
def pipe():
    return PeriodPipeline(curve_11a1(), 7)


@pytest.fixture(scope="module")
def reference_scan(pipe):
    t0 = time.time()
    rows = horizontal_scan(pipe, 2000)
    return rows, time.time() - t0


def test_criterion_01_class_groups():
    # reduced-form counts against the structure computation to 2000,
    # full group-law certification to 500
    t0 = time.time()
    for D in range(-3, -2001, -1):
        if not is_fundamental(D):
            continue
        forms = enumerate_reduced_forms(D)
        cg = class_group_structure(D)
        prod = 1
        for n in cg.orders:
            prod *= n
        assert prod == len(forms) == cg.h
        if abs(D) <= 500:
            elements = cg.elements()
            assert len(elements) == cg.h
            # encode/decode is a group isomorphism onto the form classes
            seen = set()
            for s in elements:
                f = cg.decode(s)
                assert f.disc == D and f.is_reduced()
                assert cg.encode(f) == s
                seen.add(f)
            assert len(seen) == cg.h
            for s in elements[: min(6, len(elements))]:
                for t in elements[: min(6, len(elements))]:
                    st = tuple((a + b) % n
                               for a, b, n in zip(s, t, cg.orders))
                    assert cg.encode(compose(cg.decode(s),
                                             cg.decode(t))) == st
    finish("criterion 1 (class-group oracle)", t0, 60)


def test_criterion_02_mass_formula():
    t0 = time.time()
    for q in sympy.primerange(3, 101):
        alg = build_algebra(q)
        X = right_ideal_classes(maximal_order(alg), alg)
        assert X.mass() == Fraction(q - 1, 24)
    finish("criterion 2 (mass formula, q <= 100)", t0, 300)


def test_criterion_03_brandt_suite():
    t0 = time.time()
    for q in (11, 17, 19, 37):
        alg = build_algebra(q)
        X = right_ideal_classes(maximal_order(alg), alg)
        Bs = brandt_family(X, 132)
        for n in range(1, 21):
            B = Bs[n]
            if gcd(n, q) == 1:
                sig = sum(sympy.divisors(n))
                assert all(sum(row) == sig for row in B)
            for i in range(X.H):
                for j in range(X.H):
                    assert X.weights[j] * B[i][j] == X.weights[i] * B[j][i]
        def matmul(A, C):
            return [[sum(A[i][t] * C[t][j] for t in range(X.H))
                     for j in range(X.H)] for i in range(X.H)]
        for m in range(1, 13):
            for n in range(m, 13):
                assert matmul(Bs[m], Bs[n]) == matmul(Bs[n], Bs[m])
                if gcd(m, n) == 1:
                    assert matmul(Bs[m], Bs[n]) == Bs[m * n]
    finish("criterion 3 (Brandt matrix suite)", t0, 300)


def test_criterion_04_eigenform(pipe):
    t0 = time.time()
    f = pipe.f
    for ell in (2, 3, 5, 7, 13):
        B = brandt_matrix(pipe.X, ell)
        for i in range(pipe.X.H):
            assert sum(B[i][j] * f.coords[j] for j in range(pipe.X.H)) \
                == f.eigenvalues[ell] * f.coords[i]
        # one-dimensional eigenspace over Q
        stacked = [[B[i][j] - (f.eigenvalues[ell] if i == j else 0)
                    for i in range(pipe.X.H)] for j in range(pipe.X.H)]
        assert len(left_kernel(stacked)) == 1
    assert len({c % 7 for c in f.coords}) > 1
    finish("criterion 4 (conductor-11 eigenform)", t0, 60)


def _abelian_groups_upto(bound):
    """Invariant-factor chains n_1 | n_2 | ... with product <= bound."""
    out = []

    def rec(chain, prod):
        if chain:
            out.append(tuple(chain))
        last = chain[-1] if chain else 1
        n = max(2, last)
        while prod * n <= bound:
            if last == 1 or n % last == 0:
                rec(chain + [n], prod * n)
            n += last if last > 1 else 1
    rec([], 1)
    return out


def test_criterion_05_stability_exhaustive():
    t0 = time.time()
    groups = _abelian_groups_upto(36)
    checked = 0
    for orders in groups:
        expo = orders[-1]
        for q in (2, 3, 5, 7):
            if gcd(q, expo) != 1:
                continue
            bound = stable_generation_lower_bound(orders, q)
            assert min_stable_generating_set(orders, q)[0] == bound
            checked += 1
    assert checked > 100
    finish(f"criterion 5 (stability bound, {checked} group/prime pairs)",
           t0, 600)


def test_criterion_06_reference_scan_consistency(pipe, reference_scan):
    rows, elapsed = reference_scan
    t0 = time.time() - elapsed
    emitted = {r.D: r for r in rows if r.emitted}
    # every eligible discriminant is present
    for D in range(-5, -2001, -1):
        eligible = (is_fundamental(D) and D not in (-3, -4)
                    and is_inert(D, 11)
                    and class_group_structure(D).h % 7 != 0)
        assert (D in emitted) == eligible
    for r in emitted.values():
        assert len(r.xi_set) == r.ellK
        assert r.orbit_count <= r.ellK
        assert r.log_bound == pytest.approx(math.log(abs(r.D)) ** 0.9)
    # the per-row Fourier-inversion and Galois-orbit certifications ran
    # inside the scan and would have raised on failure
    finish(f"criterion 6 (reference scan, {len(emitted)} rows)", t0, 1800)


def test_reference_scan_matches_golden_csv(reference_scan):
    # rows 5 <= |D| <= 1000 written as `scan --csv` writes them must equal
    # the checked-in golden file byte for byte
    rows, _ = reference_scan
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(["D", "h", "ellK", "orbits", "log_bound", "reason"])
    for r in rows:
        if abs(r.D) <= 1000:
            w.writerow([r.D, r.h, r.ellK, r.orbit_count,
                        f"{r.log_bound:.6f}", r.reason])
    golden = Path(__file__).resolve().parent.parent / "perfbench" / \
        "golden" / "scan_q11_p7.csv"
    with open(golden, newline="") as fh:
        assert buf.getvalue() == fh.read()


def test_criterion_07_cocycle():
    t0 = time.time()
    alg = build_algebra(11)
    X = right_ideal_classes(maximal_order(alg), alg)
    for D in (-23, -111, -356, -599, -815, -1391, -1895):
        cg = class_group_structure(D)
        assert cg.h <= 50
        emb = optimal_embedding(X, D)
        ideals = {s: special_ideal(emb, cg.decode(s))
                  for s in cg.elements()}
        classes = {s: X.classify(I) for s, I in ideals.items()}
        for s in cg.elements():
            gens = emb.ideal_generators(cg.decode(s))
            for tt in cg.elements():
                st = tuple((a + b) % n
                           for a, b, n in zip(s, tt, cg.orders))
                I = ideals[tt]
                prod = Lattice.make([alg.mult(g, v) for g in gens
                                     for v in I.rows], emb.order.den * I.den)
                assert X.classify(prod) == classes[st]
    finish("criterion 7 (special-point cocycle)", t0, 600)


def test_criterion_08_embedding_robustness(reference_scan):
    rows, _ = reference_scan
    t0 = time.time()
    emitted = [r for r in rows if r.emitted]
    # every row of the scan recomputed ell_K through a second, different
    # optimal embedding and compared; a mismatch raises before the fixture
    # can return
    assert emitted
    finish(f"criterion 8 (two-embedding agreement, {len(emitted)} rows)",
           t0, 60)


def test_criterion_09_waldspurger(pipe):
    t0 = time.time()
    targets = []
    D = -23
    while len(targets) < 10:
        if is_fundamental(D) and is_inert(D, 11):
            targets.append(D)
        D -= 1
    statuses = [waldspurger_consistency(pipe, D).status for D in targets]
    assert "inconsistent" not in statuses
    assert statuses.count("inconclusive") <= 1
    finish(f"criterion 9 (Waldspurger, {statuses.count('consistent')}"
           f"/10 conclusive)", t0, 300)


def test_criterion_10_ledger_arithmetic():
    t0 = time.time()
    E = curve_11a1(c11=5)
    assert excluded_primes(E) == {2, 3, 5, 11}
    assert ideal_I_gcd(E, 100) == 5
    base = kolyvagin_exponent(1, 1, 1, 1, 1, 1)
    deltas = []
    for i in range(6):
        args = [1] * 6
        args[i] += 1
        deltas.append(kolyvagin_exponent(*args) - base)
    assert deltas == [3, 12, 1, 1, 1, 1]
    assert sha_exponent(0, []) == 0
    finish("criterion 10 (ledger arithmetic)", t0, 1)


def test_criterion_11_equidistribution_trend(pipe, reference_scan):
    rows, _ = reference_scan
    t0 = time.time()
    small, large = [], []
    for r in rows:
        if not r.emitted:
            continue
        tv = equidist_stats(pipe, r.D, index_bound=1).tv
        if 4 < abs(r.D) <= 200:
            small.append(tv)
        elif 1000 < abs(r.D) <= 2000:
            large.append(tv)
    assert small and large
    mean_small = sum(small, Fraction(0)) / len(small)
    mean_large = sum(large, Fraction(0)) / len(large)
    assert mean_large < mean_small
    finish(f"criterion 11 (equidistribution trend, "
           f"{float(mean_large):.4f} < {float(mean_small):.4f})", t0, 1800)
