"""Tests for toric periods, scan rows, and equidistribution statistics.

The independent oracle for the period transform is a brute-force
finite-field Fourier transform written here with the reference F_{p^k}
arithmetic of fieldref, fed with the raw special-point values; it shares
no code path with toric_period past Character.pairing_exponent and, in
particular, does not use FieldEmbedding.reduce.
"""

import random
from fractions import Fraction

import pytest

import fieldref
from quatperiods.bqf import class_group_structure
from quatperiods.charfield import FieldEmbedding, character_group
from quatperiods.curves import curve_11a1
from quatperiods.embeddings import optimal_embedding, phi_map
from quatperiods.periods import (
    PeriodPipeline,
    ToricPeriod,
    annihilated_subgroup,
    dual_subgroups_upto,
    empirical_counts,
    equidist_stats,
    horizontal_scan,
    scan_summary,
    target_measure,
    toric_period,
    tv_distance,
)
from quatperiods.quatalg import Eigenform


PIPE = PeriodPipeline(curve_11a1(), 7)


def synthetic_form(coords):
    return Eigenform(tuple(coords), {}, tuple([1] * len(coords)))


def random_phi(rng, orders, npoints):
    sigmas = [()]
    for n in orders:
        sigmas = [s + (e,) for s in sigmas for e in range(n)]
    return {s: rng.randrange(npoints) for s in sigmas}


def brute_fourier(fvals, orders, emb):
    """chi -> h^{-1} sum_sigma chi(sigma)^{-1} f(sigma), term by term."""
    g, p = emb.modulus, emb.p
    hinv = fieldref.element(pow(len(fvals), -1, p), g, p)
    zeta = fieldref.zeta(emb)
    out = {}
    for chi in character_group(orders):
        acc = fieldref.element(0, g, p)
        for sigma, val in fvals.items():
            e = chi.inverse().pairing_exponent(sigma)
            term = fieldref.mul(fieldref.power(zeta, e, g, p), val, g, p)
            acc = tuple((x + y) % p for x, y in zip(acc, term))
        out[chi] = fieldref.mul(hinv, acc, g, p)
    return out


def test_period_matches_generic_fourier_transform():
    rng = random.Random(99)
    for orders in [(4,), (6,), (2, 4), (3,)]:
        n = orders[-1]
        emb = FieldEmbedding(7, n) if n % 7 else FieldEmbedding(5, n)
        phi = random_phi(rng, orders, 5)
        f = synthetic_form([rng.randrange(-9, 10) for _ in range(5)])
        fvals = {s: fieldref.element(f.coords[i], emb.modulus, emb.p)
                 for s, i in phi.items()}
        want = brute_fourier(fvals, orders, emb)
        for chi in character_group(orders):
            got = toric_period(f, phi, chi, emb)
            assert got.modp == want[chi]
            assert got.vzero == any(want[chi])


def test_constant_function_has_only_trivial_period():
    emb = FieldEmbedding(7, 4)
    phi = {(e,): 0 for e in range(4)}
    f = synthetic_form([3])
    for chi in character_group((4,)):
        P = toric_period(f, phi, chi, emb)
        if chi.is_trivial():
            assert P.modp == (3, 0) and P.vzero     # k = ord_4(7) = 2
        else:
            assert P.modp == (0, 0) and not P.vzero


def test_unit_scaling_preserves_vanishing():
    rng = random.Random(5)
    emb = FieldEmbedding(7, 6)
    phi = random_phi(rng, (6,), 4)
    coords = [rng.randrange(-9, 10) for _ in range(4)]
    base = {chi: toric_period(synthetic_form(coords), phi, chi, emb)
            for chi in character_group((6,))}
    for u in (2, 3, 10):
        scaled = synthetic_form([u * c for c in coords])
        for chi, P in base.items():
            assert toric_period(scaled, phi, chi, emb).vzero == P.vzero


def test_inconsistent_toric_period_rejected():
    emb = FieldEmbedding(7, 1)
    chi = character_group(())[0]
    assert emb.k == 1
    with pytest.raises(ArithmeticError):
        ToricPeriod(chi, (1,), False)
    with pytest.raises(ArithmeticError):
        ToricPeriod(chi, (0,), True)
    assert ToricPeriod(chi, (1,), True).vzero
    assert not ToricPeriod(chi, (0,), False).vzero


def test_p_dividing_class_number_rejected():
    # p | h forces p | exponent, so the embedding constructor refuses
    with pytest.raises(ValueError):
        FieldEmbedding(7, 7)
    with pytest.raises(ValueError):
        FieldEmbedding(7, 14)


@pytest.mark.parametrize("p", [1, 2, 4, 5, 9, 11])
def test_pipeline_rejects_p(p):
    # p must be an odd prime outside excluded_primes(11a1) = {2, 3, 5, 11}
    with pytest.raises(ValueError):
        PeriodPipeline(curve_11a1(), p, X=PIPE.X)


def test_skip_reasons():
    assert PIPE.skip_reason(-20) == ""  # 4 * -5? no: -20 = 4*(-5), fundamental
    assert PIPE.skip_reason(-12) == "non-fundamental"
    assert PIPE.skip_reason(-3) == "excluded field"
    assert PIPE.skip_reason(-11) == "ramified"
    assert PIPE.skip_reason(-7) == "split"
    assert PIPE.skip_reason(-71) == "p|h"  # h(-71) = 7
    assert PIPE.skip_reason(-23) == ""


def test_row_minus_23():
    row = PIPE.row(-23)
    assert row.emitted and row.h == 3 and row.q0 == 7
    assert 0 <= row.ellK <= 3
    assert len(row.xi_set) == row.ellK
    assert row.log_bound == pytest.approx(
        __import__("math").log(23) ** 0.9)


def test_rows_internally_consistent_small_range():
    rows = horizontal_scan(PIPE, 120)
    emitted = [r for r in rows if r.emitted]
    assert emitted, "no emitted rows below 120"
    for r in emitted:
        assert len(r.xi_set) == r.ellK
        assert r.orbit_count <= r.ellK
        assert (r.ellK == 0) == (r.orbit_count == 0)
    reasons = {r.reason for r in rows if not r.emitted}
    assert reasons <= {"non-fundamental", "excluded field", "ramified",
                       "split", "p|h"}
    summary = scan_summary(rows)
    assert summary["emitted"] == len(emitted)
    assert sum(w["rows"] for w in summary["windows"]) == len(emitted)


def test_trivial_period_sum_matches_period():
    for D in (-23, -56, -103):
        row_sum = PIPE.trivial_period_sum(D)
        cg = class_group_structure(D)
        emb = FieldEmbedding(7, cg.exponent)
        phi = phi_map(optimal_embedding(PIPE.X, D), cg, PIPE.X)
        triv = [c for c in character_group(cg) if c.is_trivial()][0]
        P = toric_period(PIPE.f, phi, triv, emb)
        assert P.vzero == (row_sum % 7 != 0)


def test_target_measure_q11():
    assert target_measure(PIPE.X) in ([Fraction(3, 5), Fraction(2, 5)],
                                      [Fraction(2, 5), Fraction(3, 5)])


def test_tv_distance_basics():
    mu = [Fraction(1, 2), Fraction(1, 2)]
    assert tv_distance([1, 1], mu) == 0
    assert tv_distance([2, 0], mu) == Fraction(1, 2)
    assert tv_distance([0, 0], mu) == 0


def test_dual_subgroup_machinery():
    subs = dual_subgroups_upto((2, 4), 4)
    assert frozenset({(0, 0)}) in subs
    sizes = sorted(len(s) for s in subs)
    # Z/2 x Z/4 has 1 trivial, 3 of order 2, 2 cyclic + 1 klein of order 4
    assert sizes == [1, 2, 2, 2, 4, 4, 4]
    for s in subs:
        H = annihilated_subgroup(s, (2, 4))
        assert len(H) * len(s) == 8


def test_equidist_row():
    row = equidist_stats(PIPE, -599)  # h = 25, decent sample
    assert row.h == 25
    assert 0 <= row.tv < 1
    full = tv_distance(
        empirical_counts(phi_map(optimal_embedding(PIPE.X, -599),
                                 class_group_structure(-599), PIPE.X),
                         PIPE.X.H),
        target_measure(PIPE.X))
    assert row.tv == full
    for index, tv in row.subgroup_tvs:
        assert index > 1 and 0 <= tv <= 1
