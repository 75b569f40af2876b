"""Arithmetic in the benchmark's quotient rings by index arithmetic alone.

Every ring here is a tensor product of one-variable rings, one per axis:
``("cyc", r)`` is ℤ[x]/<x^r - 1>, ``("neg", r)`` is ℤ[x]/<x^r + 1> and
``("sum", r)`` is ℤ[x]/<1 + x + ... + x^(r-1)>.  Exponents are reduced axis
by axis with no division algorithm, so these results are independent of
ideallat's Groebner machinery.  Coordinates list the standard monomials in
ascending lex order (last axis fastest), the order ideallat uses.
"""

import itertools


def axis_size(kind, r):
    return r - 1 if kind == "sum" else r


def basis(spec):
    return list(itertools.product(*(range(axis_size(k, r)) for k, r in spec)))


def _axis_terms(kind, r, e):
    """x^e on one axis as a list of (exponent, sign)."""
    if kind == "cyc":
        return [(e % r, 1)]
    if kind == "neg":
        e %= 2 * r
        return [(e, 1)] if e < r else [(e - r, -1)]
    e %= r  # x^r = 1 modulo the cyclotomic sum
    if e < r - 1:
        return [(e, 1)]
    return [(j, -1) for j in range(r - 1)]


def reduce(f, spec, modulus=None):
    out = {}
    for e, c in f.items():
        for combo in itertools.product(*(_axis_terms(k, r, x) for (k, r), x in zip(spec, e))):
            exp = tuple(t[0] for t in combo)
            sign = 1
            for t in combo:
                sign *= t[1]
            out[exp] = out.get(exp, 0) + sign * c
    if modulus is not None:
        out = {e: c % modulus for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def mul(f, g, spec, modulus=None):
    prod = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            prod[e] = prod.get(e, 0) + c1 * c2
    return reduce(prod, spec, modulus)


def vector(f, spec):
    """Coordinates of an already reduced element."""
    return [f.get(e, 0) for e in basis(spec)]


def ideal_rows(gens, spec):
    """Coordinates of b*g for every generator g and standard monomial b."""
    return [vector(mul({b: 1}, g, spec), spec) for g in gens for b in basis(spec)]


def shift(vec, shape, axis):
    """Rotate a row-major tensor of ``shape`` by one along ``axis`` (1-based)."""
    out = [0] * len(vec)
    for idx, c in zip(itertools.product(*(range(r) for r in shape)), vec):
        j = list(idx)
        j[axis - 1] = (j[axis - 1] + 1) % shape[axis - 1]
        flat = 0
        for x, r in zip(j, shape):
            flat = flat * r + x
        out[flat] = c
    return out


def product_table(spec):
    """(target, sign) tables with x^a * x^b = sign * x^target for basis indices.

    Only for "cyc" and "neg" axes, where a product of monomials is a monomial.
    """
    mons = basis(spec)
    index = {e: i for i, e in enumerate(mons)}
    target = [[0] * len(mons) for _ in mons]
    sign = [[0] * len(mons) for _ in mons]
    for i, a in enumerate(mons):
        for j, b in enumerate(mons):
            (e, s), = reduce({tuple(x + y for x, y in zip(a, b)): 1}, spec).items()
            target[i][j], sign[i][j] = index[e], s
    return target, sign
