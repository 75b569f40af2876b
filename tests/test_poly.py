"""Polynomial arithmetic, monomial orders, norms and the text grammar."""

import itertools
import math
import pickle
import random

import pytest

from ideallat.errors import ArityError, DomainError, ParseError
from ideallat.jsonio import ideal_from_obj
from ideallat.poly import (
    MonomialOrder,
    _is_prime,
    _pocklington,
    Polynomial,
    format_polynomial,
    inf_norm,
    leading_data,
    maxdeg,
    parse_polynomial,
)

from conftest import monomials_up_to, random_polynomial


def P(text, nvars, modulus=None):
    return parse_polynomial(text, nvars, modulus)


class TestArithmetic:
    def test_additive_inverse(self):
        f = P("x+1", 1)
        assert (f + P("-x-1", 1)).is_zero

    def test_difference_of_squares(self):
        assert P("x1+x2", 2) * P("x1-x2", 2) == P("x1^2-x2^2", 2)

    def test_mul_mod7_matches_integer_reduction(self):
        # oracle: multiply over Z, then reduce the product mod 7
        f, g = P("3*x", 1, 7), P("5*x", 1, 7)
        fz, gz = P("3*x", 1), P("5*x", 1)
        prod_z = fz * gz
        reduced = Polynomial(prod_z.coeffs, 1, 7)
        assert f * g == reduced == P("x^2", 1, 7)

    def test_mismatched_rings_rejected(self):
        with pytest.raises(ArityError):
            P("x", 1) + P("x", 2)
        with pytest.raises(ArityError):
            P("x", 1) * P("x", 1, 7)

    def test_ring_axioms_on_random_inputs(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, n, max_deg=2, max_coeff=5)
            g = random_polynomial(rng, n, max_deg=2, max_coeff=5)
            h = random_polynomial(rng, n, max_deg=2, max_coeff=5)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    @pytest.mark.parametrize("modulus", [None, 7])
    def test_results_are_canonical(self, modulus):
        # oracle: the checked constructor applied to the naive term sums
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, n, max_deg=2, max_coeff=9, modulus=modulus)
            g = random_polynomial(rng, n, max_deg=2, max_coeff=9, modulus=modulus)
            total = dict(f.coeffs)
            for e, c in g.coeffs.items():
                total[e] = total.get(e, 0) + c
            product = {}
            for e1, c1 in f.coeffs.items():
                for e2, c2 in g.coeffs.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    product[e] = product.get(e, 0) + c1 * c2
            assert f + g == Polynomial(total, n, modulus)
            assert f * g == Polynomial(product, n, modulus)
            assert -f == Polynomial({e: -c for e, c in f.coeffs.items()}, n, modulus)
            assert f * 7 == Polynomial({e: 7 * c for e, c in f.coeffs.items()}, n, modulus)

    def test_scalar_multiplication(self):
        f = P("x^2 - 3*x", 1)
        assert f * 4 == P("4*x^2 - 12*x", 1)
        assert 0 * f == Polynomial.zero(1)


class TestOrders:
    def brute_greater(self, order, a, b):
        return order.key(a) > order.key(b)

    def test_lex_default_y_precedes_x(self):
        # leading term of 3x^2 + y under lex with y < x
        lc, lm = leading_data(P("3*x^2 + y", 2), MonomialOrder("lex"))
        assert (lc, lm) == (3, (2, 0))

    def test_constant_leading_data(self):
        assert leading_data(P("7", 2)) == (7, (0, 0))

    def test_zero_has_no_leading_term(self):
        with pytest.raises(DomainError):
            leading_data(Polynomial.zero(2))

    def test_grevlex_tiebreak_matches_pairwise_comparison(self):
        # oracle: grevlex compares total degree, then the rightmost nonzero
        # entry of the exponent difference must be negative for the larger.
        order = MonomialOrder("grevlex")

        def reference_greater(a, b):
            if sum(a) != sum(b):
                return sum(a) > sum(b)
            for x, y in zip(reversed(a), reversed(b)):
                if x != y:
                    return x < y
            return False

        monos = monomials_up_to(3, 4)
        for a in monos:
            for b in monos:
                assert (order.key(a) > order.key(b)) == reference_greater(a, b)

    def test_grevlex_example(self):
        lc, lm = leading_data(P("x1*x2^2 + x1^2*x2", 2), MonomialOrder("grevlex"))
        assert (lc, lm) == (1, (2, 1))

    @pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
    def test_order_axioms_exhaustive(self, kind):
        order = MonomialOrder(kind)
        monos = monomials_up_to(3, 4)
        one = (0, 0, 0)
        keys = {m: order.key(m) for m in monos}
        # totality with antisymmetry
        for a in monos:
            for b in monos:
                assert (keys[a] < keys[b]) + (keys[a] > keys[b]) + (a == b) == 1
        # 1 is minimal
        for a in monos:
            if a != one:
                assert keys[a] > keys[one]
        # multiplicativity sampled over shifts inside the degree window
        small = monomials_up_to(3, 2)
        for a in small:
            for b in small:
                if keys[a] >= keys[b]:
                    continue
                for c in small:
                    am = tuple(x + y for x, y in zip(a, c))
                    bm = tuple(x + y for x, y in zip(b, c))
                    assert order.key(am) < order.key(bm)

    @pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
    @pytest.mark.parametrize("priority", [None, (2, 0, 1)])
    def test_flat_descending_key_reverses_the_order(self, kind, priority):
        order = MonomialOrder(kind, priority)
        rng = random.Random("desc_key/%s/%s" % (kind, priority))
        monos = [tuple(rng.randint(0, 5) for _ in range(3)) for _ in range(300)]
        assert sorted(monos, key=order.desc_key) == sorted(monos, key=order.key, reverse=True)
        keys = [order.desc_key(m) for m in set(monos)]
        assert len(set(keys)) == len(keys)
        assert all(type(x) is int for k in keys for x in k)

    @pytest.mark.parametrize("kind", ["lex", "grlex", "grevlex"])
    @pytest.mark.parametrize("priority", [None, (2, 0, 1)])
    def test_pickle_round_trip(self, kind, priority):
        order = MonomialOrder(kind, priority)
        copy = pickle.loads(pickle.dumps(order))
        monos = list(itertools.product(range(3), repeat=3))
        assert copy == order
        assert [copy.key(m) for m in monos] == [order.key(m) for m in monos]
        assert [copy.desc_key(m) for m in monos] == [order.desc_key(m) for m in monos]

    def test_priority_permutation(self):
        order = MonomialOrder("lex", priority=(1, 0))
        # y is now most significant
        assert order.key((0, 1)) > order.key((5, 0))
        with pytest.raises(DomainError):
            MonomialOrder("lex", priority=(0, 2))


class TestNorms:
    def test_examples(self):
        assert inf_norm(P("6*x", 2)) == 6
        assert inf_norm(Polynomial.zero(2)) == 0
        assert maxdeg(Polynomial.zero(2), 0) == 0
        f = P("x^3 - 5*x + 2", 1)
        assert inf_norm(f) == 5
        assert maxdeg(f, 0) == 3

    def test_norm_scaling_and_triangle(self):
        rng = random.Random(11)
        for _ in range(80):
            n = rng.randint(1, 3)
            f = random_polynomial(rng, n)
            g = random_polynomial(rng, n)
            c = rng.randint(-6, 6)
            assert inf_norm(f * c) == abs(c) * inf_norm(f)
            assert inf_norm(f + g) <= inf_norm(f) + inf_norm(g)

    def test_centered_lift(self):
        f = P("6*x + 3", 1, 7)
        lifted = f.centered_lift()
        assert lifted == P("-x + 3", 1)
        assert inf_norm(lifted) == 3


class TestTextFormat:
    def test_parse_examples(self):
        assert P("3*x1^2*x2 - 5", 2) == Polynomial({(2, 1): 3, (0, 0): -5}, 2)
        assert P(" 3 * x ^ 2 * y - 5 ", 2) == Polynomial({(2, 1): 3, (0, 0): -5}, 2)
        assert P("0", 3).is_zero

    def test_aliases_and_indexed_names_agree(self):
        assert P("x*y^2*z", 3) == P("x1*x2^2*x3", 3)

    def test_alias_rejected_beyond_three_vars(self):
        with pytest.raises(ParseError):
            P("y", 4)

    def test_bad_inputs(self):
        for text in ["", "x^", "q", "x4", "3**x", "+"]:
            with pytest.raises(ParseError):
                P(text, 2)

    def test_round_trip_is_identity(self):
        rng = random.Random(13)
        for _ in range(120):
            n = rng.randint(1, 4)
            f = random_polynomial(rng, n, max_deg=4, max_coeff=30, max_terms=6)
            assert parse_polynomial(format_polynomial(f), n) == f
        assert parse_polynomial(format_polynomial(Polynomial.zero(2)), 2).is_zero

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            Polynomial({(-1,): 2}, 1)


class TestPrimality:
    def test_agrees_with_trial_division_below_1e5(self):
        for n in range(-2, 10**5):
            expected = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
            assert _is_prime(n) == expected, n

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # strong pseudoprimes to the bases 2, 3, 5, 7 and 2, ..., 23
        assert not _is_prime(n)

    @pytest.mark.parametrize("n, prime", [(10**16 + 61, True), (10**16 + 63, False), (10**400, False)])
    def test_large_inputs(self, n, prime):
        assert _is_prime(n) == prime

    def test_pocklington_proof_above_the_miller_rabin_bound(self):
        # n - 1 = 4 * 11 * 23 * q, and Miller-Rabin is exact on q
        n = 10**25 + 13
        q = (n - 1) // (4 * 11 * 23)
        assert 4 * 11 * 23 * q == n - 1 and q < 3_317_044_064_679_887_385_961_981
        assert _is_prime(n)

    def test_composite_cofactor_is_split(self):
        # n - 1 = 2^3 * 3 * 79043 * c, and c = 3998741 * 290240017 * 454197539
        # is composite and above the trial bound
        n = 10**30 + 57
        assert (n - 1) // (8 * 3 * 79043) == 3998741 * 290240017 * 454197539
        assert _is_prime(n)

    def test_each_modulus_is_proven_once(self):
        # the file's modulus and the ideal's are the same number
        _pocklington.cache_clear()
        ideal_from_obj({"nvars": 1, "modulus": str(10**25 + 13), "generators": ["x^2+1", "x+3"]})
        assert _pocklington.cache_info().misses == 1

    def test_strong_pseudoprime_to_every_base_is_refused(self):
        # composite, and a strong pseudoprime to all 13 Miller-Rabin bases
        n = 3317044064679887385961981
        assert n == 1287836182261 * 2575672364521
        with pytest.raises(DomainError) as exc:
            _is_prime(n)
        assert str(exc.value) == "cannot certify modulus %d as prime" % n

    @pytest.mark.parametrize("p", [17, 257, 12289, 10**16 + 61])
    def test_prime_moduli_load(self, p):
        ideal = ideal_from_obj({"nvars": 1, "modulus": str(p), "generators": ["x^2+1"]})
        assert ideal.modulus == p and _is_prime(p)
