"""Shared helpers: seeded random polynomials/ideals and independent
membership machinery used as oracles across the suite."""

import functools
import itertools
import random

import pytest

from ideallat.groebner import Ideal
from ideallat.lattice import IntegerLattice
from ideallat.poly import Polynomial


def monomials_up_to(nvars, total_degree):
    """All exponent tuples with total degree at most the bound."""
    out = []
    for e in itertools.product(range(total_degree + 1), repeat=nvars):
        if sum(e) <= total_degree:
            out.append(e)
    return out


def random_polynomial(rng, nvars, max_deg=3, max_coeff=9, max_terms=4, modulus=None):
    monos = monomials_up_to(nvars, max_deg)
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, max_terms)):
            e = rng.choice(monos)
            c = rng.randint(-max_coeff, max_coeff)
            coeffs[e] = coeffs.get(e, 0) + c
        f = Polynomial(coeffs, nvars, modulus)
        if not f.is_zero:
            return f


def random_ideal(rng, nvars=None):
    """Corpus sampler: n <= 3, at most 3 generators, coefficients in
    [-9, 9], total degree <= 3.  Half the draws add a pure-power generator
    so a good share of quotients is finite-dimensional."""
    nvars = nvars or rng.randint(1, 3)
    gens = [random_polynomial(rng, nvars) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        i = rng.randrange(nvars)
        r = rng.randint(1, 3)
        c = rng.choice([-1, 1, rng.randint(-9, 9) or 1])
        gens[rng.randrange(len(gens))] = Polynomial.variable(i, nvars, power=r) - c
    return Ideal(gens, nvars)


def combination_lattice(gens, multiplier_degree):
    """Z-row-span of all monomial shifts of the generators up to the
    multiplier degree, as an IntegerLattice over a fixed column layout.

    Returns (lattice, to_vector) where to_vector embeds a polynomial into
    the shared coordinate system (raises KeyError if it does not fit).
    """
    nvars = gens[0].nvars
    shifts = monomials_up_to(nvars, multiplier_degree)
    shifted = []
    columns = set()
    for g in gens:
        for s in shifts:
            p = g.term_multiple(1, s)
            shifted.append(p)
            columns.update(p.coeffs)
    layout = sorted(columns, reverse=True)
    index = {e: i for i, e in enumerate(layout)}

    def to_vector(f):
        v = [0] * len(layout)
        for e, c in f.coeffs.items():
            v[index[e]] = c
        return v

    rows = [to_vector(p) for p in shifted]
    return IntegerLattice(rows, ambient_dim=len(layout)), to_vector


@functools.lru_cache(maxsize=32)
def _cached_combination_lattice(gens, multiplier_degree):
    return combination_lattice(list(gens), multiplier_degree)


def bounded_membership(f, gens, multiplier_degree):
    """Independent oracle: is f an integer combination sum h_i * g_i with
    total multiplier degree at most the bound?  Pure integer linear
    algebra (HNF row-span membership), no division involved.  The lattices
    of the last 32 (generators, degree) pairs are kept with their HNFs, so
    the probes of one ideal share one elimination."""
    lattice, to_vector = _cached_combination_lattice(tuple(gens), multiplier_degree)
    try:
        vec = to_vector(f)
    except KeyError:
        # a monomial that no shift reaches: its column would be zero
        return False
    return lattice.contains(vec)


@pytest.fixture
def rng():
    return random.Random(20240601)
