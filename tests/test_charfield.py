"""Tests for the deterministic finite-field embeddings and their remainder
map, characters, the character transform of the period module (forward:
toric_period, inverse: PeriodPipeline._fourier_check), Galois orbits, and
the stable-generating-set bound with its exhaustive oracle. Field
arithmetic is checked against the reference in fieldref."""

import itertools
import random
from math import gcd

import pytest

import fieldref
from quatperiods.bqf import class_group_structure
from quatperiods.charfield import (
    Character,
    FieldEmbedding,
    character_group,
    cyclotomic_coeffs,
    galois_orbits,
    group_elements,
    min_stable_generating_set,
    primary_divisors,
    stability_bound,
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


def min_size(orders, q, bound=64):
    return min_stable_generating_set(orders, q, bound)[0]


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)


def test_zeta_has_exact_order():
    for p, n in ((7, 1), (7, 2), (7, 3), (2, 5), (11, 8), (13, 12)):
        emb = FieldEmbedding(p, n)
        g = emb.modulus
        z = emb.reduce([0, 1])
        assert z == fieldref.zeta(emb)
        powers = [emb.reduce([0] * e + [1]) for e in range(2 * n)]
        assert powers == [fieldref.power(z, e, g, p) for e in range(2 * n)]
        assert len(set(powers[:n])) == n and powers[n] == powers[0]


def test_embedding_modulus_is_a_monic_factor_of_the_cyclotomic_polynomial():
    for p, n in ((7, 1), (7, 3), (2, 5), (11, 12), (13, 8), (5, 21)):
        g = FieldEmbedding(p, n).modulus
        assert g[-1] == 1 and all(0 <= c < p for c in g)
        # Phi_n vanishes at the class of x
        phi = cyclotomic_coeffs(n)
        acc = fieldref.element(0, g, p)
        for c in reversed(phi):
            acc = fieldref.times_x(acc, g, p)
            acc = ((acc[0] + c) % p,) + acc[1:]
        assert not any(acc)


def test_embedding_determinism_and_order():
    for p, n in ((7, 3), (2, 5), (11, 12), (13, 8)):
        e1, e2 = FieldEmbedding(p, n), FieldEmbedding(p, n)
        assert e1.modulus == e2.modulus
        assert e1.reduce([0, 1]) == e2.reduce([0, 1])
        if n > 1:
            assert fieldref.order(e1.reduce([0, 1]), e1.modulus, p) == n


def test_embedding_spec_values():
    # p=7, n=3: 7 = 1 mod 3, so k=1 and zeta is a cube root of 1 in F_7
    e = FieldEmbedding(7, 3)
    assert e.k == 1
    z = e.reduce([0, 1])
    assert fieldref.power(z, 3, e.modulus, 7) == (1,) and z != (1,)
    # x^2 + x + 1 = (x - 2)(x - 4) mod 7; g = x - 4 = (3, 1) is the
    # smaller coefficient tuple
    assert e.modulus == (3, 1) and z == (4,)
    # p=2, n=5: order of 2 mod 5 is 4 -> field of size 16
    e = FieldEmbedding(2, 5)
    assert e.k == 4 and e.modulus == (1, 1, 1, 1, 1)
    assert fieldref.order(e.reduce([0, 1]), e.modulus, 2) == 5


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
        a, b = ([rng.randrange(-30, 30)
                 for _ in range(rng.randrange(1, 2 * n + 2))]
                for _ in range(2))
        ra, rb = emb.reduce(a), emb.reduce(b)
        a_plus_b = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        assert emb.reduce(a_plus_b) == tuple(
            (x + y) % p for x, y in zip(ra, rb))
        ab = fieldref.poly_mul(a, b)
        assert emb.reduce(ab) == fieldref.mul(ra, rb, emb.modulus, p)
        # zeta^n = 1: folding the product mod x^n - 1 keeps its image
        cyclic = [0] * n
        for i, c in enumerate(ab):
            cyclic[i % n] += c
        assert emb.reduce(cyclic) == emb.reduce(ab)


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


def test_character_values_are_a_homomorphism():
    # chi(sigma) = zeta^e with e = chi.pairing_exponent(sigma)
    rng = random.Random(3)
    for orders in ((15,), (2, 6), (3, 3)):
        chars = character_group(orders)
        n = orders[-1]
        triv = chars[0]
        assert triv.is_trivial()
        for s in group_elements(orders):
            assert triv.pairing_exponent(s) == 0
        for _ in range(50):
            chi, psi = rng.choice(chars), rng.choice(chars)
            s = tuple(rng.randrange(m) for m in orders)
            t = tuple(rng.randrange(m) for m in orders)
            st = tuple((a + b) % m for a, b, m in zip(s, t, orders))
            assert chi.pairing_exponent(st) == (
                chi.pairing_exponent(s) + chi.pairing_exponent(t)) % n
            prod = Character(tuple((a + b) % m for a, b, m in
                                   zip(chi.exponents, psi.exponents, orders)),
                             orders)
            assert prod.pairing_exponent(s) == (
                chi.pairing_exponent(s) + psi.pairing_exponent(s)) % n


def test_fourier_orthogonality_constant():
    emb = FieldEmbedding(7, 3)
    P = periods_of([4], {(s,): 0 for s in range(3)}, (3,), emb)
    assert len(P) == 3
    for chi, v in P.items():
        assert v.modp == ((4,) if chi.is_trivial() else (0,))


def test_fourier_indicator():
    # indicator of the identity on Z/3 transforms to the constant 1/3
    emb = FieldEmbedding(7, 3)
    P = periods_of([1, 0], {(0,): 0, (1,): 1, (2,): 1}, (3,), emb)
    third = (5,)            # 3 * 5 = 1 mod 7
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
        bad = ((P.modp[0] + 1) % p,) + P.modp[1:]
        pers[chi] = type(P)(chi, bad, any(bad))
        with pytest.raises(ArithmeticError):
            fourier_check(coords, pers, phi, emb)


def test_fourier_rejects_p_dividing_h():
    emb = FieldEmbedding(3, 1)
    phi = {s: 0 for s in group_elements((3,))}
    with pytest.raises(ValueError, match="p divides"):
        periods_of([1], phi, (3,), emb)


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
    with pytest.raises(ValueError):
        stability_bound([6], 2)


def test_min_stable_spec_examples():
    assert min_size([5], 2) == 4
    assert min_size([], 5) == 0
    assert min_size([2, 2], 3) == 2


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
        min_size([65], 2, bound=64)


def test_sharp_lower_bound_cross_prime_cases():
    # cyclic 21 with q=2: cheapest cover is Z/3 x Z/7 (2 + 3 conjugates),
    # beating the single-factor degree [F_2(mu_21):F_2] = 6
    assert stability_bound([21], 2) == 6
    assert stable_generation_lower_bound((21,), 2) == 5
    assert min_size((21,), 2) == 5
    # one order-6 orbit can cover a 2-part generator and the 3-part at once
    assert stability_bound(primary_divisors((2, 2, 6)), 5) == 5
    assert stable_generation_lower_bound((2, 2, 6), 5) == 4
    assert min_size((2, 2, 6), 5) == 4


def test_oracle_matches_sharp_bound_small_sweep():
    rng = random.Random(11)
    groups = [(), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (9,),
              (3, 3), (2, 6), (12,), (15,), (2, 2, 4), (21,), (2, 10)]
    for orders in groups:
        for q in (2, 3, 5, 7):
            if any(gcd(q, n) != 1 for n in orders):
                continue
            m = min_size(orders, q)
            b = stable_generation_lower_bound(orders, q)
            assert m >= b, (orders, q)
            assert m == b, (orders, q)
