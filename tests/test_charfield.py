"""Tests for cyclotomic integers, deterministic finite-field embeddings,
characters, the character transform of the period module (forward:
toric_period, inverse: PeriodPipeline._fourier_check), Galois orbits, and
the stable-generating-set bound with its exhaustive oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest

from quatperiods.bqf import class_group_structure
from quatperiods.charfield import (
    Character,
    CycloInt,
    FieldEmbedding,
    FiniteField,
    character_group,
    cyclotomic_coeffs,
    eval_char,
    euler_phi,
    galois_orbits,
    group_elements,
    min_stable_generating_set,
    min_stable_generating_size,
    primary_divisors,
    stability_bound,
    stability_bound_weak,
    stable_generation_lower_bound,
)
from quatperiods.periods import PeriodPipeline, toric_period
from quatperiods.quatalg import Eigenform


def form(coords):
    return Eigenform(tuple(coords), {}, (1,) * len(coords))


def periods_of(coords, phi, orders, emb):
    """chi -> P(chi) for the function sigma -> coords[phi[sigma]]."""
    return {chi: toric_period(form(coords), phi, chi, emb)
            for chi in character_group(orders)}


def fourier_check(coords, pers, phi, emb):
    """Run the inverse transform of the period pipeline on bare data."""
    pipe = PeriodPipeline.__new__(PeriodPipeline)
    pipe.f = form(coords)
    pipe._fourier_check(pers, phi, emb)


def random_cyclo(rng, n):
    return CycloInt(n, tuple(rng.randrange(-30, 30) for _ in range(euler_phi(n))))


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)


def test_cyclo_ring_axioms():
    rng = random.Random(5)
    for n in (3, 4, 5, 8, 12, 15):
        a, b, c = (random_cyclo(rng, n) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert CycloInt.zeta_power(n, n) == CycloInt.one(n)


def test_zeta_has_exact_order():
    for n in (1, 2, 3, 5, 8, 12):
        powers = {CycloInt.zeta_power(n, e) for e in range(n)}
        assert len(powers) == n


def test_embedding_determinism_and_order():
    for p, n in ((7, 3), (2, 5), (11, 12), (13, 8)):
        e1, e2 = FieldEmbedding(p, n), FieldEmbedding(p, n)
        assert e1.modulus == e2.modulus and e1.zeta_image == e2.zeta_image
        if n > 1:
            assert e1.field.mult_order(e1.zeta_image) == n


def test_embedding_spec_values():
    # p=7, n=3: 7 = 1 mod 3, so k=1 and zeta is a cube root of 1 in F_7
    e = FieldEmbedding(7, 3)
    assert e.k == 1
    z = e.zeta_image
    assert e.field.pow(z, 3) == e.field.one and z != e.field.one
    # p=2, n=5: order of 2 mod 5 is 4 -> field of size 16
    e = FieldEmbedding(2, 5)
    assert e.k == 4 and e.field.size == 16
    assert e.field.mult_order(e.zeta_image) == 5


def test_embedding_rejects_p_dividing_n():
    with pytest.raises(ValueError):
        FieldEmbedding(3, 6)


def test_reduction_is_ring_homomorphism():
    rng = random.Random(42)
    trials = 0
    while trials < 1000:
        n = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 20])
        p = rng.choice([3, 5, 7, 11, 13, 17])
        if n % p == 0:
            continue
        trials += 1
        emb = FieldEmbedding(p, n)
        a, b = random_cyclo(rng, n), random_cyclo(rng, n)
        F = emb.field
        assert emb.reduce(a + b) == F.add(emb.reduce(a), emb.reduce(b))
        assert emb.reduce(a * b) == F.mul(emb.reduce(a), emb.reduce(b))


def test_character_group_sizes():
    assert len(character_group(())) == 1
    assert [c.exponents for c in character_group((3,))] == [(0,), (1,), (2,)]
    quad = character_group((2, 2))
    assert len(quad) == 4 and all(c.order in (1, 2) for c in quad)


def test_characters_from_class_group():
    cg = class_group_structure(-23)
    chars = character_group(cg)
    assert len(chars) == 3
    assert sorted(c.order for c in chars) == [1, 3, 3]


def test_eval_char_trivial_and_homomorphism():
    emb = FieldEmbedding(7, 15)
    chars = character_group((15,))
    rng = random.Random(3)
    triv = chars[0]
    for s in range(15):
        exact, fe = eval_char(triv, (s,), emb)
        assert exact == CycloInt.one(15) and fe == emb.field.one
    for _ in range(50):
        chi = rng.choice(chars)
        s, t = (rng.randrange(15),), (rng.randrange(15),)
        st = ((s[0] + t[0]) % 15,)
        es, _ = eval_char(chi, s, emb)
        et, _ = eval_char(chi, t, emb)
        est, _ = eval_char(chi, st, emb)
        assert es * et == est


def test_fourier_orthogonality_constant():
    emb = FieldEmbedding(7, 3)
    P = periods_of([4], {(s,): 0 for s in range(3)}, (3,), emb)
    assert len(P) == 3
    for chi, v in P.items():
        assert v.modp == (emb.field.element(4) if chi.is_trivial()
                          else emb.field.zero)


def test_fourier_indicator():
    # indicator of the identity on Z/3 transforms to the constant 1/3
    emb = FieldEmbedding(7, 3)
    P = periods_of([1, 0], {(0,): 0, (1,): 1, (2,): 1}, (3,), emb)
    third = emb.field.inv(emb.field.element(3))
    assert len(P) == 3 and all(v.modp == third for v in P.values())


def test_fourier_roundtrip_random():
    rng = random.Random(2024)
    trials = 0
    while trials < 100:
        orders = rng.choice([(), (3,), (5,), (2, 2), (4,), (3, 3), (2, 6),
                             (15,), (2, 2, 2)])
        p = rng.choice([7, 11, 13, 17, 19, 23])
        h = 1
        for n in orders:
            h *= n
        lev = orders[-1] if orders else 1
        if h % p == 0 or lev % p == 0:
            continue
        trials += 1
        emb = FieldEmbedding(p, lev)
        coords = [rng.randrange(-50, 50) for _ in range(4)]
        phi = {s: rng.randrange(4) for s in group_elements(orders)}
        pers = periods_of(coords, phi, orders, emb)
        fourier_check(coords, pers, phi, emb)
        # the inverse transform notices a single wrong period
        chi = rng.choice(list(pers))
        P = pers[chi]
        bad = emb.field.add(P.modp, emb.field.one)
        pers[chi] = type(P)(chi, P.exact, bad, bad != emb.field.zero)
        with pytest.raises(ArithmeticError):
            fourier_check(coords, pers, phi, emb)


def test_fourier_rejects_p_dividing_h():
    emb = FieldEmbedding(3, 1)
    phi = {s: 0 for s in group_elements((3,))}
    with pytest.raises(ValueError, match="p divides"):
        periods_of([1], phi, (3,), emb)


def test_finite_field_rejects_non_monic_modulus():
    assert FiniteField(7, (1, 0, 1)).k == 2
    with pytest.raises(ValueError, match="monic"):
        FiniteField(7, (1, 0, 2))


def test_galois_orbits_spec_examples():
    triv = character_group(())
    assert [len(o) for o in galois_orbits(triv, 2)] == [1]
    orb5 = galois_orbits(character_group((5,)), 2)
    assert sorted(len(o) for o in orb5) == [1, 4]
    orb3 = galois_orbits(character_group((3,)), 7)
    assert sorted(len(o) for o in orb3) == [1, 1, 1]


def test_galois_orbits_are_permuted_by_the_action():
    chars = character_group((2, 6))
    for o in galois_orbits(chars, 5):
        assert {c.power(5) for c in o} == set(o)


def test_stability_bound_values():
    assert stability_bound([5], 2) == 4
    assert stability_bound([], 3) == 0
    assert stability_bound([3, 3], 7) == 2
    assert stability_bound_weak([3, 3], 7) == Fraction(4, 3)
    with pytest.raises(ValueError):
        stability_bound([6], 2)


def test_min_stable_spec_examples():
    assert min_stable_generating_size([5], 2) == 4
    assert min_stable_generating_size([], 5) == 0
    assert min_stable_generating_size([2, 2], 3) == 2


def test_min_stable_witness_is_stable_and_generating():
    for orders, q in (((5,), 2), ((2, 2), 3), ((21,), 2), ((2, 2, 6), 5)):
        size, witness = min_stable_generating_set(orders, q)
        assert len(witness) == size
        wset = set(witness)
        for e in wset:
            assert tuple((x * q) % n for x, n in zip(e, orders)) in wset
        # closure generates everything
        sub = {tuple(0 for _ in orders)}
        frontier = list(wset)
        while frontier:
            g = frontier.pop()
            for e in list(sub | wset):
                s = tuple((a + b) % n for a, b, n in zip(g, e, orders))
                if s not in sub:
                    sub.add(s)
                    frontier.append(s)
        total = 1
        for n in orders:
            total *= n
        assert len(sub) == total


def test_min_stable_bound_exceeded():
    with pytest.raises(ValueError):
        min_stable_generating_size([65], 2, bound=64)


def test_sharp_lower_bound_cross_prime_cases():
    # cyclic 21 with q=2: cheapest cover is Z/3 x Z/7 (2 + 3 conjugates),
    # beating the single-factor degree [F_2(mu_21):F_2] = 6
    assert stability_bound([21], 2) == 6
    assert stable_generation_lower_bound((21,), 2) == 5
    assert min_stable_generating_size((21,), 2) == 5
    # one order-6 orbit can cover a 2-part generator and the 3-part at once
    assert stability_bound(primary_divisors((2, 2, 6)), 5) == 5
    assert stable_generation_lower_bound((2, 2, 6), 5) == 4
    assert min_stable_generating_size((2, 2, 6), 5) == 4


def test_oracle_matches_sharp_bound_small_sweep():
    rng = random.Random(11)
    groups = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (9,),
              (3, 3), (2, 6), (12,), (15,), (2, 2, 4), (21,), (2, 10)]
    for orders in groups:
        for q in (2, 3, 5, 7):
            if any(gcd(q, n) != 1 for n in orders):
                continue
            m = min_stable_generating_size(orders, q)
            b = stable_generation_lower_bound(orders, q)
            assert m >= b, (orders, q)
            assert m == b, (orders, q)
