"""Norms modulo an ideal, the expansion factor, brute-force shortest
polynomial oracles, the reduction between cyclic and cyclotomic-sum
quotients, variety substitution bounds, and the collision-driven
incremental shortest-polynomial harness.

Everything here is sized for desk-scale experiments: the oracles
enumerate exhaustively inside explicit boxes and report those boxes, so
"exact within the searched box" is always an honest contract.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateCollisionError,
    DomainError,
    InfeasibleError,
    NumericDegeneracyError,
)
from .groebner import Ideal, leading_data, reduction_plan
from .lattice import (
    DEFAULT_ENUM_BUDGET,
    IntegerLattice,
    _echelon_solve,
    enumerate_box,
    hnf,
    ideal_to_lattice,
    intersect,
    is_saturated,
    shortest_nonzero,
    solve_left,
)
from .poly import MonomialOrder, Polynomial, _is_prime, inf_norm, maxdeg
from .quotient import build_quotient, coordinates, from_coordinates, multiplication_matrix, residue, row_combination


# ---------------------------------------------------------------------------
# norms and the expansion factor

def norm_mod(f, q):
    """Infinity norm of f's canonical residue (centered for mod-p rings)."""
    return inf_norm(residue(f, q).centered_lift())


@dataclass
class ExpansionReport:
    """Sampled lower estimate and per-run theorem bound for the expansion factor.

    ``estimate`` is the exact maximum when ``exhaustive`` (the ratio is a
    maximum of linear functionals of the coefficients, so the +-1 vertex
    sweep attains it); otherwise it is a seeded Monte Carlo maximum.
    ``theorem_bound`` is (2*g_max)^k with k the largest reduction step
    count actually measured, and dominates every sampled ratio.
    """

    k_tuple: tuple
    estimate: Fraction
    witness: Polynomial
    theorem_bound: int
    k_measured: int
    samples: int
    exhaustive: bool


def _degree_box(q, k_tuple):
    caps = []
    for i, k in enumerate(k_tuple):
        if k < 1:
            raise DomainError("expansion degrees must be at least 1")
        caps.append(k * max(maxdeg(g, i) for g in q.gb.elements))
    return list(itertools.product(*(range(c + 1) for c in caps)))


def expansion_factor(q, k_tuple, samples=10000, rng_seed=0, coeff_bound=1,
                     exhaustive_limit=250_000):
    """Estimate the expansion factor of the quotient's ideal.

    Samples g with per-variable degree at most k_i times the ideal's
    per-variable degree and maximizes |g mod a|_inf / |g|_inf.  The sweep
    is exhaustive over coefficient sign patterns when 3^(#monomials) fits
    under ``exhaustive_limit``, else Monte Carlo with the given seed.

    Over Z the exhaustive estimate is the largest row l1 sum of the box's
    normal-form matrix.  A free quotient's basis is monic, so
    ``reduce_full`` sweeps every sample of the box the same way: each
    monomial has one reducer, fixed by the basis, and one step clears it.
    That sweep is built once by ``reduction_plan`` and replayed on each
    sample's coefficient list.  A step fires where the monomial's
    coefficient is nonzero (mod p) when the sweep reaches it, so the
    remainder and the step count behind ``k_measured`` are exactly those
    of the sample's own ``reduce_full``.
    """
    if samples < 1:
        raise DomainError("samples must be at least 1")
    if coeff_bound < 1:
        raise DomainError("coefficient bound must be at least 1")
    if not q.free:
        raise DomainError("expansion factor needs a free quotient")
    k_tuple = tuple(int(k) for k in k_tuple)
    if len(k_tuple) != q.nvars:
        raise DomainError("expected %d degree multipliers" % q.nvars)
    monos = _degree_box(q, k_tuple)
    g_max = max(inf_norm(g) for g in q.gb.elements)
    exhaustive = 3 ** len(monos) <= exhaustive_limit
    reached, plan, irreducible = reduction_plan(q.gb.elements, q.gb.order, monos)
    pad = [0] * (len(reached) - len(monos))
    p = q.modulus

    def candidates():
        if exhaustive:
            yield from itertools.product((-1, 0, 1), repeat=len(monos))
        else:
            rng = random.Random(rng_seed)
            for _ in range(samples):
                yield [rng.randint(-coeff_bound, coeff_bound) for _ in monos]

    def centered_norm(values):
        if p is None:
            return max(map(abs, values), default=0)
        return max((abs(c - p if c > p // 2 else c) for c in (v % p for v in values)), default=0)

    # the best ratio so far is best_num / best_den, compared by cross-multiplying
    best_num, best_den = 0, 1
    witness = Polynomial.zero(q.nvars, p)
    k_measured = 0
    count = 0
    for draw in candidates():
        den = centered_norm(draw)
        if not den:  # the zero draw, or one that vanishes mod p, is no sample
            continue
        v = [*draw, *pad]
        steps = 0
        for i, tail in plan:
            c = v[i] if p is None else v[i] % p
            if c:
                steps += 1
                for t, a in tail:
                    v[t] -= c * a
        count += 1
        k_measured = max(k_measured, steps)
        num = centered_norm([v[i] for i in irreducible])
        # the bound from one reduction pass holds sample by sample
        assert num <= (2 * g_max) ** steps * den
        if num * best_den > best_num * den:
            best_num, best_den = num, den
            witness = Polynomial._trusted(dict(zip(monos, draw)), q.nvars, p)
    best = Fraction(best_num, best_den)
    bound = (2 * g_max) ** k_measured
    assert best <= bound
    return ExpansionReport(
        k_tuple=k_tuple,
        estimate=best,
        witness=witness,
        theorem_bound=bound,
        k_measured=k_measured,
        samples=count,
        exhaustive=exhaustive,
    )


# ---------------------------------------------------------------------------
# shortest polynomial oracles

def _canonical_shortest(q, vectors):
    """Deterministic representative: sign-normalized, smallest leading
    monomial first, then lexicographically smallest coordinates."""
    polys = []
    for vec in vectors:
        f = from_coordinates(vec, q)
        lc, lm = leading_data(f, q.gb.order)
        if lc < 0:
            f, vec = -f, tuple(-x for x in vec)
        polys.append((q.gb.order.key(lm), tuple(vec), f))
    polys.sort(key=lambda t: (t[0], t[1]))
    return polys[0][2]


def spp_bruteforce(q, gens_of_a, gamma=1, box=None, budget=DEFAULT_ENUM_BUDGET):
    """A nonzero ideal element of residue norm at most gamma * lambda1.

    Exhaustive within the coefficient box, exact for gamma = 1: returns a
    canonical shortest polynomial of the ideal's lattice.
    """
    if gamma < 1:
        raise DomainError("gamma must be at least 1")
    lat = ideal_to_lattice(q, gens_of_a)
    if lat.rank == 0:
        raise DomainError("the zero ideal has no shortest polynomial")
    _, ties = shortest_nonzero(lat, box=box, budget=budget)
    return _canonical_shortest(q, ties)


def incspp_step(q, gens_of_a, g, box=None, budget=DEFAULT_ENUM_BUDGET):
    """An ideal element of residue norm at most half of g's.

    The reference implementation answers by exact enumeration; the caller
    asserts the problem's promise on g.
    """
    if g.is_zero:
        raise DomainError("g must be a nonzero ideal element")
    target = norm_mod(g, q) // 2
    h = spp_bruteforce(q, gens_of_a, 1, box=box, budget=budget)
    if norm_mod(h, q) > target:
        raise InfeasibleError(
            "no ideal element of norm <= %d exists within the searched box" % target
        )
    return h


# ---------------------------------------------------------------------------
# the cyclic -> cyclotomic-sum reduction

def _cyclotomic_sum(i, r, nvars, modulus):
    """1 + x_i + ... + x_i^(r - 1)."""
    return Polynomial({(0,) * i + (j,) + (0,) * (nvars - i - 1): 1 for j in range(r)}, nvars, modulus)


def _univariate_shape(q, cyclotomic):
    """(r_1..r_n) when the basis holds one generator per variable, each
    1 + x_i + ... + x_i^(r_i - 1) if ``cyclotomic`` and x_i^r_i - 1
    otherwise; None for any other basis."""
    shape = [0] * q.nvars
    if len(q.gb.elements) != q.nvars:
        return None
    for g in q.gb.elements:
        used = [i for i in range(q.nvars) if maxdeg(g, i) > 0]
        if len(used) != 1 or shape[used[0]]:
            return None
        i = used[0]
        if cyclotomic:
            r = maxdeg(g, i) + 1
            want = _cyclotomic_sum(i, r, q.nvars, q.modulus)
        else:
            r = maxdeg(g, i)
            want = Polynomial.variable(i, q.nvars, power=r, modulus=q.modulus) - 1
        if g != want:
            return None
        shape[i] = r
    return tuple(shape)


def cyclic_shape(q):
    """The exponent tuple (r1..rn) when the quotient is modulo <x_i^{r_i}-1>."""
    shape = _univariate_shape(q, cyclotomic=False)
    if shape is None:
        raise DomainError("quotient is not of the cyclic <x_i^r_i - 1> form")
    return shape


def cyclotomic_sum_ideal(r_tuple, nvars=None, modulus=None):
    """The ideal generated by 1 + x_i + ... + x_i^(r_i - 1) per variable."""
    r_tuple = tuple(int(r) for r in r_tuple)
    nv = nvars or len(r_tuple)
    if any(r < 2 for r in r_tuple):
        raise DomainError("every exponent must be at least 2")
    return Ideal([_cyclotomic_sum(i, r, nv, modulus) for i, r in enumerate(r_tuple)], nv, modulus)


def _closest_in_coset(u0, k_lat, box=4, budget=DEFAULT_ENUM_BUDGET):
    """Small exact search for a short vector in u0 + K, u0 itself included."""
    vecs = enumerate_box(k_lat.hnf, box, budget, offset=u0)
    return list(min((max(abs(x) for x in v), tuple(v)) for v in vecs)[1])


def cyclic_to_cyclotomic(oracle, q_cyclic, gens_of_a, box=None, budget=DEFAULT_ENUM_BUDGET):
    """Short element of an ideal of the cyclic quotient via the
    cyclotomic-sum oracle.

    Follows the two-case argument: when the ideal's image modulo the
    cyclotomic-sum ideal is nonzero, the oracle answer is lifted back to a
    minimal-norm coset representative; the intersection with the
    cyclotomic-sum part contributes its own shortest generator.  The
    better candidate is returned and meets twice the oracle's factor.
    """
    shape = cyclic_shape(q_cyclic)
    ap = cyclotomic_sum_ideal(shape, q_cyclic.nvars, q_cyclic.modulus)
    q_ap = build_quotient(ap, q_cyclic.gb.order)
    lat_a = ideal_to_lattice(q_cyclic, gens_of_a)
    if lat_a.rank == 0:
        raise DomainError("the zero ideal has no shortest polynomial")
    lat_ap = ideal_to_lattice(q_cyclic, ap.generators)
    kernel_part = intersect(lat_a, lat_ap)

    candidates = []

    image_gens = [residue(g, q_ap) for g in gens_of_a]
    image_gens = [g for g in image_gens if not g.is_zero]
    if image_gens:
        g_prime = oracle(q_ap, image_gens)
        # projection matrix: cyclic basis monomial -> cyclotomic coordinates
        proj = [coordinates(b, q_ap) for b in q_cyclic.basis_polynomials()]
        rows = [row_combination(row, proj, [0] * q_ap.N) for row in lat_a.hnf]
        target = coordinates(g_prime, q_ap)
        x = solve_left(rows, target)
        if x is not None:
            u0 = row_combination(x, lat_a.hnf, [0] * lat_a.ambient_dim)
            candidates.append(_closest_in_coset(u0, kernel_part, budget=budget))

    if kernel_part.rank > 0:
        _, ties = shortest_nonzero(kernel_part, box=box, budget=budget)
        candidates.append(list(ties[0]))

    if not candidates:
        raise DomainError("no candidate produced; is the ideal nonzero?")
    vecs = [tuple(v) for v in candidates if any(v)]
    best = min((max(abs(x) for x in v), v) for v in vecs)
    return _canonical_shortest(q_cyclic, [best[1]])


# ---------------------------------------------------------------------------
# variety substitution

@dataclass
class VarietyContext:
    """The zero set of the cyclotomic-sum ideal with its quotient."""

    r_tuple: tuple
    points: list
    N: int
    t: float
    quotient: object

    def evaluate(self, f, point):
        val = 0j
        for e, c in f.coeffs.items():
            term = complex(c)
            for a, k in zip(point, e):
                term *= a**k
            val += term
        return val


def variety_cyclotomic(r_tuple):
    """All tuples of nontrivial r_i-th roots of unity, generated analytically."""
    r_tuple = tuple(int(r) for r in r_tuple)
    if any(r < 2 for r in r_tuple):
        raise DomainError("every r_i must be at least 2")
    axes = []
    for r in r_tuple:
        axes.append([cmath.exp(2j * cmath.pi * k / r) for k in range(1, r)])
    points = [tuple(p) for p in itertools.product(*axes)]
    q = build_quotient(cyclotomic_sum_ideal(r_tuple), MonomialOrder("lex"))
    ctx = VarietyContext(
        r_tuple=r_tuple,
        points=points,
        N=len(points),
        t=0.0,
        quotient=q,
    )
    t = 0.0
    for b in q.basis_polynomials():
        for point in points:
            t = max(t, abs(ctx.evaluate(b, point)))
    ctx.t = t
    assert len(points) == math.prod(r - 1 for r in r_tuple)
    return ctx


def max_substitution(alpha, ctx):
    """Largest modulus of alpha's value over the variety (reduced first)."""
    a = residue(alpha, ctx.quotient)
    if a.is_zero:
        return 0.0
    return max(abs(ctx.evaluate(a, point)) for point in ctx.points)


def max_coefficient(alpha, ctx):
    """Infinity norm of the reduced representative."""
    return norm_mod(alpha, ctx.quotient)


def ssub_bruteforce(ctx, gens_of_i, box=3, budget=DEFAULT_ENUM_BUDGET):
    """Element of the ideal minimizing the maximum substitution modulus.

    Exhaustive over the coefficient box on the ideal's lattice; ties are
    broken by residue norm and then coordinates, so the answer is
    deterministic.
    """
    q = ctx.quotient
    lat = ideal_to_lattice(q, gens_of_i)
    if lat.rank == 0:
        raise DomainError("the zero ideal has no smallest substitution")

    def key(v):
        return (max_substitution(from_coordinates(v, q), ctx), max(abs(x) for x in v), tuple(v))

    vecs = enumerate_box(lat.hnf, box, budget)
    return from_coordinates(min((v for v in vecs if any(v)), key=key), q)


# ---------------------------------------------------------------------------
# primality certificates (recognized families only)

def primality_certificate(q):
    """'prime', or 'unknown' when the ideal is outside the recognized families.

    Family one: the cyclotomic-sum ideal with every r_i prime and the odd
    r_i pairwise distinct.  (A repeated odd prime splits: the second
    cyclotomic factor factors over the ring the first one generates, so
    x_i - x_j becomes a zero divisor.)  Family two: unit-coefficient
    binomial generators whose exponent-difference lattice is saturated.
    """
    shape = _univariate_shape(q, cyclotomic=True)
    if shape is not None and all(_is_prime(r) for r in shape):
        odd = [r for r in shape if r % 2]
        return "prime" if len(odd) == len(set(odd)) else "unknown"

    binomials = [sorted(g.coeffs.items()) for g in q.gb.elements]
    if binomials and all(len(b) == 2 and sorted(c for _, c in b) == [-1, 1] for b in binomials):
        diffs = [[x - y for x, y in zip(b[0][0], b[1][0])] for b in binomials]
        if is_saturated(IntegerLattice(diffs)):
            return "prime"
    return "unknown"


# ---------------------------------------------------------------------------
# collision-driven incremental shortest polynomial (the reduction harness)

def gaussian_width(g, n_dim, d, m, eta):
    """Width of the sampling Gaussian, tied to |g|_inf by definition."""
    if n_dim < 2:
        raise DomainError("the width formula needs dimension at least 2")
    return inf_norm(g) / (8 * eta * math.sqrt(n_dim) * d * m * math.log(n_dim))


def incspp_via_collisions(q, gens_of_a, g, oracle, rng_seed, p, d, m, eta):
    """Turn hash collisions into an ideal element, following the
    coset-sampling loop.

    Per round: a uniform coset representative v of A modulo <g>, a Gaussian
    offset y, the real solve p(v + y) = g*w modulo p<g> with w's
    coefficients folded into [0, p), and its rounding c, whose residues
    are the key polynomial.  Those are the only floats: the collision
    differences z_i recombine h = sum (v_i - c_i*g/p)*z_i in integers, and
    h is returned after exact membership verification.  The norm property
    is statistical and left to the caller.
    """
    import numpy as np

    if primality_certificate(q) != "prime":
        raise DomainError("the reduction runs only over certified prime ideals")
    n_dim = q.N
    lat_a = ideal_to_lattice(q, gens_of_a)
    if lat_a.rank != n_dim:
        raise DomainError("the ideal's lattice must be full rank")
    g_vec = coordinates(g, q)
    if not lat_a.contains(g_vec):
        raise DomainError("g does not belong to the given ideal")
    if g.is_zero:
        raise DomainError("g must be nonzero")

    s = gaussian_width(g, n_dim, d, m, eta)
    # the HNF is echelon and full rank, so each row of M_g solves directly
    basis_a = lat_a.hnf
    mul_g = multiplication_matrix(g, q)
    coords_g = [_echelon_solve(basis_a, row) for row in mul_g]
    if any(c is None for c in coords_g):
        raise NumericDegeneracyError("<g> is not inside the ideal lattice")
    index_form = hnf(coords_g)
    if len(index_form) != n_dim:
        raise NumericDegeneracyError("<g> has infinite index in the ideal")
    diag = [row[next(j for j, a in enumerate(row) if a)] for row in index_form]

    m_mat = np.array(mul_g, dtype=float)
    rng = np.random.default_rng(rng_seed)
    a_polys = []
    # per round p*v - c*M_g, with c = p*k + rho the integer rounding of w, c = a mod p
    offsets = []
    for _ in range(m):
        t = [int(rng.integers(0, di)) for di in diag]
        v = row_combination(t, basis_a, [0] * n_dim)
        y = rng.normal(0.0, s / math.sqrt(2 * math.pi), n_dim)
        try:
            w_hat = np.linalg.solve(m_mat.T, p * (np.array(v, dtype=float) + y))
        except np.linalg.LinAlgError as exc:
            raise NumericDegeneracyError("multiplication-by-g system is singular") from exc
        w_mod = w_hat % p
        rounded = np.floor(w_mod + 0.5)
        wraps = np.rint((w_hat - w_mod) / p)
        c = [p * int(k) + int(rho) for k, rho in zip(wraps, rounded)]
        a_polys.append(Polynomial({e: x % p for e, x in zip(q.basis, c)}, q.nvars, p))
        offsets.append(row_combination([-x for x in c], mul_g, [p * x for x in v]))

    alphas, betas = oracle(a_polys)
    z_list = [a - b for a, b in zip(alphas, betas)]
    if all(z.is_zero for z in z_list):
        raise DegenerateCollisionError("oracle returned identical tuples; retry with a new seed")

    # w*M_g = p*(v + y) gives h = sum (v - c*M_g/p)*M_z, so p*h = sum offset*M_z,
    # which p divides when sum a*z = 0 mod (I, p): the collision identity
    ph = [0] * n_dim
    for offset, z in zip(offsets, z_list):
        if not z.is_zero:
            ph = row_combination(offset, multiplication_matrix(z, q), ph)
    if any(x % p for x in ph):
        raise NumericDegeneracyError("combination is not divisible by p = %d" % p)
    h_coords = [x // p for x in ph]
    if any(h_coords) and not lat_a.contains(h_coords):
        raise NumericDegeneracyError("reconstructed element escaped the ideal lattice")
    return from_coordinates(h_coords, q)
