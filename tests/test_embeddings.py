"""Tests for optimal torus embeddings and the special-points map, with the
independent oracle that weighted fiber sizes equal representation numbers of
the embedding's characteristic polynomial in each left order."""

import random

import pytest

from quatperiods.bqf import QuadForm, class_group_structure, is_fundamental
from quatperiods.curves import is_inert
from quatperiods.embeddings import (
    EmbeddingError,
    embedding_candidates,
    optimal_embedding,
    phi_map,
    special_ideal,
    special_point,
)
from quatperiods.linalg import qf_solutions
from quatperiods.quatalg import (
    Lattice,
    build_algebra,
    maximal_order,
    right_ideal_classes,
)


def shimura_set(q):
    alg = build_algebra(q)
    return right_ideal_classes(maximal_order(alg), alg)


X11 = shimura_set(11)


def representation_count(L, alg, D):
    """#{x in L : trd(x) = D mod 2, nrd(x) = (t^2 - D)/4}: the norm shell of
    L in all four coordinates, filtered by trace."""
    t = -D % 2
    n = (t * t - D) // 4
    G, scale = L.int_gram(alg)
    return sum(1 for c in qf_solutions(G, n * scale)
               if alg.trd([sum(c[k] * L.rows[k][i] for k in range(4))
                           for i in range(4)]) == t * L.den)


def test_embedding_minus_23():
    emb = optimal_embedding(X11, -23)
    assert emb.t == 1 and emb.n == 6
    w, d = emb.omega, emb.order.den          # omega = w / d
    assert X11.alg.trd(w) == 1 * d
    assert X11.alg.nrd(w) == 6 * d * d
    assert emb.order.contains(w, d)
    # sqrt(D) = 2 omega - t squares to D
    s = (2 * w[0] - emb.t * d, 2 * w[1], 2 * w[2], 2 * w[3])
    assert X11.alg.mult(s, s) == (-23 * d * d, 0, 0, 0)


def test_split_discriminant_rejected():
    with pytest.raises(EmbeddingError):
        optimal_embedding(X11, -7)  # -7 is a square mod 11


def test_ramified_discriminant_rejected():
    with pytest.raises(ValueError):
        optimal_embedding(X11, -11)


def test_determinism():
    e1 = optimal_embedding(X11, -23)
    e2 = optimal_embedding(X11, -23)
    assert e1.omega == e2.omega and e1.base_index == e2.base_index


def test_second_embedding_differs():
    e1 = optimal_embedding(X11, -23)
    e2 = optimal_embedding(X11, -23, which=1)
    assert e1.omega != e2.omega
    assert X11.alg.nrd(e2.omega) == e1.n * e2.order.den ** 2


def test_principal_class_maps_to_base():
    for D in (-23, -15, -56):
        cg = class_group_structure(D)
        emb = optimal_embedding(X11, D)
        pm = phi_map(emb, cg, X11)
        assert pm[tuple(0 for _ in cg.orders)] == emb.base_index


def test_phi_minus_23_fibers():
    cg = class_group_structure(-23)
    pm = phi_map(optimal_embedding(X11, -23), cg, X11)
    assert len(pm) == 3
    assert sorted(pm.values()).count(0) + sorted(pm.values()).count(1) == 3
    fibers = sorted(sum(1 for v in pm.values() if v == i) for i in range(2))
    assert fibers == [1, 2]


def test_special_point_well_defined_across_representatives():
    rng = random.Random(314)
    for D in (-23, -56, -103):
        cg = class_group_structure(D)
        emb = optimal_embedding(X11, D)
        for f in cg.forms:
            want = special_point(emb, f, X11)
            for _ in range(10):
                # translate the form: same class, different representative
                m = rng.randrange(-4, 5)
                g = QuadForm(f.a, f.b + 2 * f.a * m,
                             f.a * m * m + f.b * m + f.c)
                assert g.disc == D
                assert special_point(emb, g, X11) == want


def test_cocycle_property():
    alg = X11.alg
    for D in (-23, -56, -103, -104):
        cg = class_group_structure(D)
        emb = optimal_embedding(X11, D)
        ideals = {s: special_ideal(emb, cg.decode(s)) for s in cg.elements()}
        classes = {s: X11.classify(I) for s, I in ideals.items()}
        for s in cg.elements():
            gens = emb.ideal_generators(cg.decode(s))
            for t in cg.elements():
                st = tuple((a + b) % n
                           for a, b, n in zip(s, t, cg.orders))
                I = ideals[t]
                prod = Lattice.make([alg.mult(g, v) for g in gens
                                     for v in I.rows], emb.order.den * I.den)
                assert X11.classify(prod) == classes[st]


def test_fibers_match_representation_numbers():
    for D in (-15, -23, -47, -67, -84, -131):
        if not is_inert(D, 11):
            continue
        cg = class_group_structure(D)
        pm = phi_map(optimal_embedding(X11, D), cg, X11)
        fibers = [sum(1 for v in pm.values() if v == i) for i in range(X11.H)]
        assert sum(fibers) == cg.h
        reps = [representation_count(L, X11.alg, D) for L in X11.left_orders]
        assert fibers == [r // (2 * w) for r, w in zip(reps, X11.weights)]


def test_special_ideal_norm():
    emb = optimal_embedding(X11, -23)
    base_norm = emb.base_ideal.norm(X11.alg)
    for f in class_group_structure(-23).forms:
        I = special_ideal(emb, f)
        assert I.norm(X11.alg) == f.a * base_norm
