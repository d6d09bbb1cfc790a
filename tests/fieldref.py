"""Reference arithmetic in F_{p^k} = F_p[x]/(g) for the tests.

Elements are coefficient tuples of length k = deg g. The product is
Horner's rule over multiplication by x (a shift that folds the top
coefficient back through x^k = -(g_0 + ... + g_{k-1} x^{k-1})), so it
shares no code with the package's remainder map
`charfield.FieldEmbedding.reduce`.
"""


def poly_mul(a, b):
    """The product of two integer polynomials in Z[x], coefficients low to
    high."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def element(c, g, p):
    """The constant c."""
    return (c % p,) + (0,) * (len(g) - 2)


def times_x(a, g, p):
    top = a[-1]
    return tuple((s - top * gj) % p for s, gj in zip((0,) + a[:-1], g))


def mul(a, b, g, p):
    acc = element(0, g, p)
    for ai in reversed(a):
        acc = times_x(acc, g, p)
        acc = tuple((c + ai * bj) % p for c, bj in zip(acc, b))
    return acc


def power(a, e, g, p):
    out = element(1, g, p)
    for _ in range(e):
        out = mul(out, a, g, p)
    return out


def zeta(emb):
    """The class of x, the image of zeta_n."""
    return times_x(element(1, emb.modulus, emb.p), emb.modulus, emb.p)


def order(a, g, p):
    """Multiplicative order of a, by walking its powers; None when no power
    up to the field's size is 1 (a = 0, or g not irreducible)."""
    one, cur = element(1, g, p), a
    for m in range(1, p ** (len(g) - 1) + 1):
        if cur == one:
            return m
        cur = mul(cur, a, g, p)
    return None
