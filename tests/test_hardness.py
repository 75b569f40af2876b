"""Residue norms, expansion factor, shortest-polynomial oracles, the
cyclic-to-cyclotomic reduction, variety substitution bounds and the
collision-driven harness."""

import cmath
import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from ideallat.errors import (
    DegenerateCollisionError,
    DomainError,
    InfeasibleError,
    NumericDegeneracyError,
    ResourceError,
)
from ideallat.groebner import Ideal, reduce_full
from ideallat.hardness import (
    cyclic_shape,
    cyclic_to_cyclotomic,
    cyclotomic_sum_ideal,
    expansion_factor,
    gaussian_width,
    incspp_step,
    incspp_via_collisions,
    max_coefficient,
    max_substitution,
    norm_mod,
    primality_certificate,
    spp_bruteforce,
    ssub_bruteforce,
    variety_cyclotomic,
)
from ideallat.hashing import HashKey, HashParams, collision_oracle
from ideallat.lattice import ideal_to_lattice, minima_bruteforce
from ideallat.poly import MonomialOrder, Polynomial, format_polynomial, inf_norm, parse_polynomial
from ideallat.quotient import build_quotient, coordinates, from_coordinates, quotient_mul

from conftest import random_polynomial


def P(text, nvars, modulus=None):
    return parse_polynomial(text, nvars, modulus)


def Q_of(*gens_text, nvars=1):
    return build_quotient(Ideal([P(t, nvars) for t in gens_text], nvars))


class TestNormMod:
    def test_examples(self):
        assert norm_mod(P("x^2", 1), Q_of("x^2-1")) == 1
        assert norm_mod(P("x^2", 1), Q_of("x^2+x+1")) == 1
        assert norm_mod(Polynomial.zero(1), Q_of("x^2-1")) == 0


class TestExpansionFactor:
    def test_small_box_oracle_for_square_ring(self):
        # oracle: exhaustive over coefficients in {-1,0,1}, degree <= 2;
        # reduction folds a0+a1x+a2x^2 to (a0+a2) + a1x, so no sampled
        # ratio exceeds 2.
        q = Q_of("x^2-1")
        worst = Fraction(0)
        for a0, a1, a2 in itertools.product((-1, 0, 1), repeat=3):
            if not any((a0, a1, a2)):
                continue
            g = Polynomial({(0,): a0, (1,): a1, (2,): a2}, 1)
            ratio = Fraction(norm_mod(g, q), inf_norm(g))
            assert ratio <= 2
            worst = max(worst, ratio)
        assert worst == 2
        # the stated witness folds to ratio 1
        g = P("x^3 + x^2", 1)
        assert Fraction(norm_mod(g, q), inf_norm(g)) == 1

    def test_report_matches_independent_vertex_sweep(self):
        # oracle over the definitional box (degree <= k*maxdeg = 4):
        # b0 = a0+a2+a4 and b1 = a1+a3, so the exact maximum is 3.
        q = Q_of("x^2-1")
        worst = Fraction(0)
        for signs in itertools.product((-1, 0, 1), repeat=5):
            if not any(signs):
                continue
            g = Polynomial({(i,): s for i, s in enumerate(signs)}, 1)
            worst = max(worst, Fraction(norm_mod(g, q), inf_norm(g)))
        assert worst == 3
        report = expansion_factor(q, (2,), rng_seed=0)
        assert report.exhaustive
        assert report.estimate == worst
        assert report.estimate <= report.theorem_bound

    @pytest.mark.parametrize("gen", ["x^2-1", "x^3-1", "x^2+x+1", "x^4+x^3+x^2+x+1"])
    def test_exhaustive_estimate_is_induced_norm(self, gen):
        # the ratio is a maximum of linear maps: over the +-1 sweep it equals
        # the largest l1 sum over output coordinates of the box monomials'
        # normal forms
        q = Q_of(gen)
        report = expansion_factor(q, (2,), rng_seed=0)
        assert report.exhaustive
        cap = 2 * max(e for (e,) in q.gb.elements[0].coeffs)
        box = [coordinates(Polynomial.monomial((e,), 1), q) for e in range(cap + 1)]
        norm = max(sum(abs(v[t]) for v in box) for t in range(q.N))
        assert report.estimate == norm

    def test_collapse_ring(self):
        q = Q_of("x-1")
        report = expansion_factor(q, (1,), rng_seed=0)
        assert report.estimate == 2  # x+1 folds to the integer 2
        assert norm_mod(P("x+1", 1), q) == 2

    def test_samples_that_vanish_mod_p_are_skipped(self):
        # with coefficients up to p some Monte Carlo draws are 0 mod p; they
        # are no samples, as the empty draw is not
        q = build_quotient(Ideal([P("x^2+1", 1, 3)], 1, 3))
        report = expansion_factor(q, (2,), samples=200, rng_seed=5, coeff_bound=3,
                                  exhaustive_limit=0)
        rng = random.Random(5)
        draws = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(200)]
        assert report.samples == sum(any(c % 3 for c in d) for d in draws) < 200
        assert report.estimate <= report.theorem_bound

    @pytest.mark.parametrize("limit", [0, 250_000])
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"samples": 0}, "samples must be at least 1"),
            ({"coeff_bound": -1}, "coefficient bound must be at least 1"),
        ],
    )
    def test_sampling_arguments_must_be_positive(self, kwargs, message, limit):
        # checked in either sweep mode, though only Monte Carlo reads them
        with pytest.raises(DomainError) as exc:
            expansion_factor(Q_of("x^2+1"), (1,), exhaustive_limit=limit, **kwargs)
        assert str(exc.value) == message

    def test_constants_have_ratio_one(self):
        q = Q_of("x^2-1")
        g = P("7", 1)
        assert Fraction(norm_mod(g, q), inf_norm(g)) == 1

    def test_per_sample_bound_holds_externally(self, rng):
        q = Q_of("x^3-1")
        g_max = max(inf_norm(g) for g in q.gb.elements)
        for _ in range(200):
            g = random_polynomial(rng, 1, max_deg=5, max_coeff=9)
            r, _, steps = reduce_full(g, q.gb.elements, q.gb.order)
            assert inf_norm(r) <= inf_norm(g) * (2 * g_max) ** steps


# (generators, nvars, modulus, order, k, keyword arguments): the five bench
# expansion fixtures at rng_seed 10-14, two Z_13 quotients (one bivariate),
# a grevlex quotient, a Monte Carlo draw wider than p, and a long box
EXPANSION_GOLDEN_CASES = [
    (["x^2-1"], 1, None, "lex", (2,), {"rng_seed": 10}),
    (["x^3-1"], 1, None, "lex", (2,), {"rng_seed": 11}),
    (["x^2+x+1"], 1, None, "lex", (2,), {"rng_seed": 12}),
    (["x^4+x^3+x^2+x+1"], 1, None, "lex", (2,), {"rng_seed": 13}),
    (["x^2-1", "y^2-1"], 2, None, "lex", (2, 2), {"rng_seed": 14}),
    (["x^3+2*x+5"], 1, 13, "lex", (2,), {"rng_seed": 0}),
    (["x^2+3*y+1", "y^2+5*x"], 2, 13, "lex", (1, 1),
     {"samples": 300, "rng_seed": 7, "exhaustive_limit": 0}),
    (["x^2-y", "y^2-x"], 2, None, "grevlex", (1, 1),
     {"samples": 300, "rng_seed": 8, "exhaustive_limit": 0}),
    (["x^2+x+4"], 1, 13, "lex", (3,),
     {"samples": 300, "rng_seed": 9, "coeff_bound": 20, "exhaustive_limit": 0}),
    (["x^4+x^3+x^2+x+1"], 1, None, "lex", (150,),
     {"samples": 300, "rng_seed": 0, "exhaustive_limit": 0}),
]
EXPANSION_GOLDEN_SHA256 = "8b2fbabac95f1ad60358dfcf21b6b8dbef86e98619f4f0cc8c50a249db5b2c3e"


def test_expansion_reports_golden():
    # every ExpansionReport field, pinned from the per-sample reduce_full sweep
    reports = []
    for gens, nvars, modulus, order, k, kwargs in EXPANSION_GOLDEN_CASES:
        ideal = Ideal([P(g, nvars, modulus) for g in gens], nvars, modulus)
        q = build_quotient(ideal, MonomialOrder(order))
        rep = expansion_factor(q, k, **kwargs)
        reports.append((
            rep.k_tuple, rep.estimate.numerator, rep.estimate.denominator,
            sorted(rep.witness.coeffs.items()), rep.theorem_bound, rep.k_measured,
            rep.samples, rep.exhaustive,
        ))
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == EXPANSION_GOLDEN_SHA256


class TestSPP:
    def test_unit_ideal(self):
        q = Q_of("x^2", "y", nvars=2)
        out = spp_bruteforce(q, [P("1", 2)])
        assert out == P("1", 2)
        assert norm_mod(out, q) == 1

    def test_worked_lattice(self):
        q = Q_of("x^2", "y", nvars=2)
        out = spp_bruteforce(q, [P("6*x", 2)])
        assert out == P("6*x", 2)
        assert norm_mod(out, q) == 6

    def test_principal_two(self):
        q = Q_of("x^2+x+1")
        out = spp_bruteforce(q, [P("2", 1)])
        assert out == P("2", 1)

    def test_incspp_halving(self):
        q = Q_of("x^2", "y", nvars=2)
        h = incspp_step(q, [P("12*x", 2)], P("24*x", 2))
        assert h == P("12*x", 2)
        assert norm_mod(h, q) <= norm_mod(P("24*x", 2), q) // 2

    def test_incspp_infeasible_at_minimum(self):
        q = Q_of("x^2", "y", nvars=2)
        with pytest.raises(InfeasibleError):
            incspp_step(q, [P("6*x", 2)], P("6*x", 2))

    def test_incspp_rejects_zero(self):
        q = Q_of("x^2", "y", nvars=2)
        with pytest.raises(DomainError):
            incspp_step(q, [P("6*x", 2)], Polynomial.zero(2))


class TestCyclicToCyclotomic:
    def exact_oracle(self, q, gens):
        return spp_bruteforce(q, gens, gamma=1, box=8)

    def test_shape_detection(self):
        assert cyclic_shape(Q_of("x^2-1", "y^3-1", nvars=2)) == (2, 3)
        with pytest.raises(DomainError):
            cyclic_shape(Q_of("x^2+x+1"))

    @pytest.mark.parametrize("r,a_text", [((2,), "x-1"), ((3,), "x-1"), ((3,), "x+2")])
    def test_output_within_twice_lambda1(self, r, a_text):
        q = Q_of("x^%d-1" % r[0])
        gens = [P(a_text, 1)]
        out = cyclic_to_cyclotomic(self.exact_oracle, q, gens)
        lat = ideal_to_lattice(q, gens)
        lam1 = minima_bruteforce(lat, 1, box=6).lambdas[0]
        assert not out.is_zero
        assert lat.contains(coordinates(out, q))
        assert norm_mod(out, q) <= 2 * lam1

    def test_unit_ideal(self):
        q = Q_of("x^2-1")
        out = cyclic_to_cyclotomic(self.exact_oracle, q, [P("1", 1)])
        assert norm_mod(out, q) == 1

    def test_ideal_inside_cyclotomic_part(self):
        # A = <x+1> in Z[x]/<x^2-1> lies inside <x+1>, exercising the
        # intersection branch; the generator itself is the answer.
        q = Q_of("x^2-1")
        out = cyclic_to_cyclotomic(self.exact_oracle, q, [P("x+1", 1)])
        assert out == P("x+1", 1)

    def test_budget_bounds_the_coset_search(self):
        # the kernel part has rank 3: 3^3 combinations at box 1 fit the
        # budget, the coset search's 9^3 at its box of 4 does not
        q = Q_of("x^2-1", "y^2-1", nvars=2)
        gens = [P("x+2", 2)]
        assert cyclic_to_cyclotomic(self.exact_oracle, q, gens, box=1) == P("x*y+x-y-1", 2)
        with pytest.raises(ResourceError, match="729 combinations exceeds the budget of 100"):
            cyclic_to_cyclotomic(self.exact_oracle, q, gens, box=1, budget=100)


class TestSearchBox:
    """spp and ssub share the lattice module's one box and budget check."""

    @pytest.mark.parametrize("box", [0, -2])
    def test_box_below_one_is_a_domain_error(self, box):
        with pytest.raises(DomainError, match="box must be at least 1"):
            spp_bruteforce(Q_of("x^2", "y", nvars=2), [P("6*x", 2)], box=box)
        with pytest.raises(DomainError, match="box must be at least 1"):
            ssub_bruteforce(variety_cyclotomic((3,)), [P("x-1", 1)], box=box)

    def test_ssub_budget_message(self):
        # <x-1> has rank 2 in Z[x]/<x^2+x+1>: 5^2 combinations at box 2
        with pytest.raises(ResourceError, match="^enumeration of 25 combinations exceeds the budget of 10$"):
            ssub_bruteforce(variety_cyclotomic((3,)), [P("x-1", 1)], box=2, budget=10)


class TestVariety:
    def test_single_point(self):
        ctx = variety_cyclotomic((2, 2))
        assert ctx.N == 1
        assert ctx.points == [(-1 + 0j, -1 + 0j)] or all(
            abs(a + 1) < 1e-12 for a in ctx.points[0]
        )

    def test_cube_roots(self):
        ctx = variety_cyclotomic((3,))
        assert ctx.N == 2
        for (a,) in ctx.points:
            assert abs(abs(a) - 1) < 1e-12
            assert abs(a**3 - 1) < 1e-12 and abs(a - 1) > 1e-9

    def test_product_construction(self):
        ctx = variety_cyclotomic((2, 3))
        assert ctx.N == 2
        for a, b in ctx.points:
            assert abs(a + 1) < 1e-12
            assert abs(b**3 - 1) < 1e-12 and abs(b - 1) > 1e-9

    def test_t_is_one(self):
        for r in [(2,), (3,), (2, 3), (5,)]:
            assert abs(variety_cyclotomic(r).t - 1.0) < 1e-12

    def test_rejects_small_exponent(self):
        with pytest.raises(DomainError):
            variety_cyclotomic((1,))


class TestSubstitutionBounds:
    def test_examples(self):
        ctx2 = variety_cyclotomic((2,))
        one = P("1", 1)
        assert abs(max_substitution(one, ctx2) - 1) < 1e-12
        assert max_coefficient(one, ctx2) == 1
        assert abs(max_substitution(P("2-x", 1), ctx2) - 3) < 1e-12
        ctx3 = variety_cyclotomic((3,))
        assert abs(max_substitution(P("x", 1), ctx3) - 1) < 1e-12

    def test_univariate_matches_per_root_evaluation(self, rng):
        # oracle: independent Horner evaluation at each root of unity
        ctx = variety_cyclotomic((5,))
        for _ in range(50):
            f = random_polynomial(rng, 1, max_deg=3, max_coeff=20)
            vals = []
            for k in range(1, 5):
                root = cmath.exp(2j * cmath.pi * k / 5)
                vals.append(abs(sum(c * root ** e[0] for e, c in f.coeffs.items())))
            assert abs(max_substitution(f, ctx) - max(vals)) < 1e-9

    def test_onebound_side_conditions(self):
        for r in [(2,), (3,), (5,), (2, 3), (3, 3), (2, 5)]:
            ctx = variety_cyclotomic(r)
            total = sum(
                math.prod(a**ri for a, ri in zip(point, r)) for point in ctx.points
            )
            assert abs(total - ctx.N) < 1e-9
            for j in itertools.product(*(range(1, ri) for ri in r)):
                s = sum(
                    math.prod(a**ji for a, ji in zip(point, j))
                    for point in ctx.points
                )
                assert abs(s) <= 1 + 1e-9

    def test_both_bounds_random(self, rng):
        for r in [(2,), (3,), (5,), (2, 3), (3, 3)]:
            ctx = variety_cyclotomic(r)
            for _ in range(60):
                f = random_polynomial(rng, len(r), max_deg=4, max_coeff=20)
                ms = max_substitution(f, ctx)
                mc = max_coefficient(f, ctx)
                assert mc <= ctx.N * ms + 1e-9
                assert ms <= ctx.N * mc + 1e-9
                assert ms <= ctx.N * ctx.t * mc + 1e-9

    def test_ssub_reduces_no_candidate(self, monkeypatch):
        """The candidates lie on the standard monomials, so only the
        multiplication rows off them reach reduce_full, at most N."""
        import ideallat.groebner as groebner

        ctx = variety_cyclotomic((5,))
        calls = []
        real = groebner.reduce_full

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(groebner, "reduce_full", counting)
        ssub_bruteforce(ctx, [P("x^2-3*x+1", 1)], box=2)
        assert 0 < len(calls) <= ctx.N

    def test_gamma_n2_equivalence(self):
        # both directions with brute-force enumerators standing in for oracles
        for r, gens_text in [((3,), ["x-1"]), ((3,), ["2"]), ((5,), ["x-1"])]:
            ctx = variety_cyclotomic(r)
            q = ctx.quotient
            gens = [P(t, 1) for t in gens_text]
            alpha = ssub_bruteforce(ctx, gens, box=3)
            lat = ideal_to_lattice(q, gens)
            lam1 = minima_bruteforce(lat, 1, box=4).lambdas[0]
            n = ctx.N
            assert inf_norm(alpha) <= n * n * lam1 + 1e-9
            h = spp_bruteforce(q, gens, box=4)
            best_sub = max_substitution(alpha, ctx)
            assert max_substitution(h, ctx) <= n * n * best_sub + 1e-9


class TestPrimalityCertificate:
    def test_families(self):
        assert primality_certificate(build_quotient(cyclotomic_sum_ideal((3,)))) == "prime"
        assert primality_certificate(build_quotient(cyclotomic_sum_ideal((2, 3)))) == "prime"
        assert primality_certificate(Q_of("x^2-1")) == "unknown"
        assert primality_certificate(Q_of("x^2+x+1")) == "prime"

    def test_repeated_odd_prime_is_not_certified(self):
        # x - y is a zero divisor there: (x - y)(x + y + 1) =
        # (x^2+x+1) - (y^2+y+1) = 0, so the quotient splits and the ring
        # cannot be prime.
        q = build_quotient(cyclotomic_sum_ideal((3, 3)))
        ann = quotient_mul(P("x-y", 2), P("x + y + 1", 2), q)
        assert ann.is_zero
        assert primality_certificate(q) == "unknown"

    def test_toric_binomial_family(self):
        # saturated difference lattice (the full Z^2) certifies; a
        # non-saturated one (index 3) does not
        assert primality_certificate(Q_of("x-1", "y-1", nvars=2)) == "prime"
        assert primality_certificate(Q_of("x-y", "y^3-1", nvars=2)) == "unknown"


NOT_CYCLIC = "quotient is not of the cyclic <x_i^r_i - 1> form"

# generators, variable count, modulus, cyclic_shape (None: the DomainError
# NOT_CYCLIC), primality_certificate; the same under lex and grevlex
RING_FAMILIES = [
    # x_i^r_i - 1
    (("x-1",), 1, None, (1,), "prime"),
    (("x-1",), 1, 13, (1,), "unknown"),
    (("x^2-1",), 1, None, (2,), "unknown"),
    (("x^3-1",), 1, 13, (3,), "unknown"),
    (("x^6-1",), 1, None, (6,), "unknown"),
    (("x^2-1", "y^3-1"), 2, None, (2, 3), "unknown"),
    (("x^2-1", "y^3-1"), 2, 13, (2, 3), "unknown"),
    (("x^5-1", "y^2-1"), 2, None, (5, 2), "unknown"),
    (("x-1", "y-1"), 2, None, (1, 1), "prime"),
    (("x-1", "y-1"), 2, 13, (1, 1), "unknown"),
    (("2*x^2-2",), 1, 13, (2,), "unknown"),
    (("x^4-1", "2*x^2-2"), 1, 13, (2,), "unknown"),
    # cyclotomic sums 1 + x_i + ... + x_i^(r_i - 1)
    (("x+1",), 1, None, None, "prime"),
    (("x^2+x+1",), 1, None, None, "prime"),
    (("x^2+x+1",), 1, 13, None, "prime"),
    (("2*x^2+2*x+2",), 1, 13, None, "prime"),
    (("x^4+x^3+x^2+x+1",), 1, None, None, "prime"),
    (("x^3+x^2+x+1",), 1, None, None, "unknown"),
    (("x+1", "y^2+y+1"), 2, None, None, "prime"),
    (("x^2+x+1", "y^4+y^3+y^2+y+1"), 2, 13, None, "prime"),
    (("x^2+x+1", "y^2+y+1"), 2, None, None, "unknown"),
    (("x+1", "y+1"), 2, 13, None, "prime"),
    (("x^2+x+1", "y+1", "z^2+z+1"), 3, None, None, "unknown"),
    # near misses
    (("x^2+1",), 1, None, None, "unknown"),
    (("x^2-x+1",), 1, 13, None, "unknown"),
    (("x^2+x+2",), 1, None, None, "unknown"),
    (("x^2-2",), 1, None, None, "unknown"),
    (("x^2+1", "y^2-1"), 2, None, None, "unknown"),
    (("x^2+x+1", "y-x"), 2, None, None, "unknown"),
    (("x-y", "y^3-1"), 2, 13, None, "unknown"),
    (("x^2-1", "y"), 2, None, None, "unknown"),
    (("x^4-1", "2*x^2-2"), 1, None, None, "unknown"),
    (("x^2+x+1", "3*x+3"), 1, None, None, "unknown"),
    (("x^2+x+1", "3*x+3"), 1, 13, None, "unknown"),
    (("x^2-1", "y^2-1", "x*y-1"), 2, None, None, "unknown"),
]


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("gens, nvars, modulus, shape, cert", RING_FAMILIES)
def test_ring_family_recognizers(gens, nvars, modulus, shape, cert, order):
    ideal = Ideal([P(t, nvars, modulus) for t in gens], nvars, modulus)
    q = build_quotient(ideal, MonomialOrder(order))
    if shape is None:
        with pytest.raises(DomainError) as exc:
            cyclic_shape(q)
        assert str(exc.value) == NOT_CYCLIC
    else:
        assert cyclic_shape(q) == shape
    assert primality_certificate(q) == cert


def collision_instance(ring, a_gens, g_text, nvars=1):
    """(q, gens of A, g, oracle) for p = 17, d = 1, m = 3, eta = 2."""
    ideal = Ideal([P(t, nvars) for t in ring], nvars)
    q = build_quotient(ideal)
    params = HashParams(p=17, ideal=ideal, order=MonomialOrder("lex"), d=1, m=3, eta=2.0)
    oracle = collision_oracle(HashKey(params=params, a=()), budget=10**6)
    return q, [P(t, nvars) for t in a_gens], P(g_text, nvars), oracle


def tiny_instance():
    return collision_instance(["x^2+x+1"], ["x-1"], "12*x-12")


# sha256 of the h of seeds 0..K-1, one per line, pinned before the
# recombination became exact
ALGO1_GOLDEN = [
    (["x^2+x+1"], ["x-1"], "12*x-12", 1, 200, "4e81484bf9fb45a0"),
    (["x^4+x^3+x^2+x+1"], ["x-1"], "12*x-12", 1, 40, "f7b2a91905a9361f"),
    (["x+1", "y^2+y+1"], ["x-y"], "10*x-10*y", 2, 200, "a9e7bb5efa9529b4"),
]


@pytest.mark.parametrize("ring, a_gens, g_text, nvars, seeds, digest", ALGO1_GOLDEN)
def test_algo1_golden(ring, a_gens, g_text, nvars, seeds, digest):
    q, gens, g, oracle = collision_instance(ring, a_gens, g_text, nvars)
    out = "\n".join(
        format_polynomial(incspp_via_collisions(q, gens, g, oracle, seed, 17, 1, 3, 2.0))
        for seed in range(seeds)
    )
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestCollisionHarness:
    def test_width_formula(self):
        g = P("12*x-12", 1)
        s = gaussian_width(g, 2, 1, 3, 2.0)
        assert abs(s - 12 / (8 * 2.0 * math.sqrt(2) * 1 * 3 * math.log(2))) < 1e-12

    def test_degenerate_oracle_is_retriable(self):
        q, gens, g, _ = tiny_instance()
        same = tuple(P("1", 1) for _ in range(3))

        def zero_oracle(a_polys):
            return same, same

        with pytest.raises(DegenerateCollisionError):
            incspp_via_collisions(q, gens, g, zero_oracle, 1, 17, 1, 3, 2.0)

    def test_non_collision_is_not_divisible(self):
        # sum a_i*z_i = a_1 is not 0 mod (I, p), so p does not divide p*h
        q, gens, g, _ = tiny_instance()
        one, zero = P("1", 1), Polynomial.zero(1)

        def fake_oracle(a_polys):
            return (one, zero, zero), (zero, zero, zero)

        with pytest.raises(NumericDegeneracyError) as exc:
            incspp_via_collisions(q, gens, g, fake_oracle, 1, 17, 1, 3, 2.0)
        assert str(exc.value) == "combination is not divisible by p = 17"

    def test_membership_over_seeds(self):
        q, gens, g, oracle = tiny_instance()
        lat = ideal_to_lattice(q, gens)
        hits = 0
        for seed in range(12):
            h = incspp_via_collisions(q, gens, g, oracle, seed, 17, 1, 3, 2.0)
            assert h.is_zero or lat.contains(coordinates(h, q))
            if not h.is_zero and norm_mod(h, q) <= norm_mod(g, q) // 2:
                hits += 1
        assert hits > 0

    def test_rejects_uncertified_ring(self):
        q = Q_of("x^2-1")
        with pytest.raises(DomainError):
            incspp_via_collisions(
                q, [P("x-1", 1)], P("4*x-4", 1), lambda a: None, 0, 17, 1, 3, 2.0
            )

    def test_rejects_foreign_g(self):
        q, gens, _, oracle = tiny_instance()
        with pytest.raises(DomainError):
            incspp_via_collisions(q, gens, P("x", 1), oracle, 0, 17, 1, 3, 2.0)


class TestLambdaNBound:
    def test_prime_fixture_expansion_inequality(self):
        # lambda_N <= (measured expansion at (2,..,2)) * lambda_1 on
        # exhaustively solvable prime fixtures
        for r in [(2,), (3,)]:
            ctx_ideal = cyclotomic_sum_ideal(r)
            q = build_quotient(ctx_ideal)
            for gens_text in (["x-1"], ["2"], ["x+2"]):
                gens = [P(t, 1) for t in gens_text]
                lat = ideal_to_lattice(q, gens)
                if lat.rank < q.N:
                    continue
                rep = minima_bruteforce(lat, q.N, box=6)
                report = expansion_factor(q, (2,) * len(r), rng_seed=1)
                est = report.estimate
                # fold in the witness products the proof actually uses
                w = from_coordinates(rep.witnesses[0], q)
                for b in q.basis_polynomials():
                    prod = w * b
                    if prod.is_zero:
                        continue
                    est = max(est, Fraction(norm_mod(prod, q), inf_norm(prod)))
                assert rep.lambdas[-1] <= est * rep.lambdas[0]
