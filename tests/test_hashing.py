"""Hash family: validation, key generation, hashing, collisions and the
byte encoding."""

import math

import pytest

from ideallat.errors import DomainError, ResourceError, ValidationError
from ideallat.groebner import Ideal, normal_form
from ideallat.hashing import (
    HashKey,
    HashParams,
    digest,
    encode_bytes,
    find_collision_bruteforce,
    in_domain,
    keygen,
    validate,
    verify_collision,
)
from ideallat.jsonio import dumps, key_from_obj, key_to_obj
from ideallat.poly import MonomialOrder, Polynomial, inf_norm, parse_polynomial
from ideallat.quotient import build_quotient, coordinates


def P(text, nvars, modulus=None):
    return parse_polynomial(text, nvars, modulus)


def make_params(p=17, d=1, m=5, eta=2.0, gens=("x^2+x+1",), nvars=1):
    ideal = Ideal([P(t, nvars) for t in gens], nvars)
    return HashParams(p=p, ideal=ideal, order=MonomialOrder("lex"), d=d, m=m, eta=eta)


class TestValidate:
    def test_lax_accepts_demo_parameters(self):
        # log 17 / log 2 = 4.09 < 5
        assert math.log(17) / math.log(2) < 5
        params = validate(make_params())
        assert params.N == 2

    def test_rejects_short_key(self):
        with pytest.raises(ValidationError) as exc:
            validate(make_params(m=1, p=3))
        assert any("collision richness" in v for v in exc.value.violations)

    def test_rejects_degenerate_domain(self):
        with pytest.raises(ValidationError) as exc:
            validate(make_params(d=0))
        assert any("domain bound" in v for v in exc.value.violations)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValidationError):
            validate(make_params(p=15))

    def test_strict_modulus_bound(self):
        with pytest.raises(ValidationError) as exc:
            validate(make_params(), strict=True)
        assert any("strict modulus bound" in v for v in exc.value.violations)


class TestKeygen:
    def test_deterministic(self):
        k1 = keygen(make_params(), 7)
        k2 = keygen(make_params(), 7)
        assert k1.a == k2.a
        k3 = keygen(make_params(), 8)
        assert k3.a != k1.a

    def test_coordinate_histogram_uniform(self):
        # chi-square over p bins within 5 sigma of its mean, 10^4 draws
        params = make_params()
        counts = [0] * params.p
        draws = 0
        for seed in range(1000):
            key = keygen(params, seed)
            q = key.ring()
            for ai in key.a:
                for c in coordinates(ai, q):
                    counts[c] += 1
                    draws += 1
        assert draws == 10_000
        expected = draws / params.p
        chi2 = sum((c - expected) ** 2 / expected for c in counts)
        df = params.p - 1
        assert chi2 <= df + 5 * math.sqrt(2 * df)

    def test_empty_key_rejected(self):
        with pytest.raises(ValidationError):
            keygen(make_params(m=0), 1)

    def test_strict_mode_is_validate_strict(self):
        with pytest.raises(ValidationError) as exc:
            keygen(make_params(), 7, strict=True)
        assert any("strict modulus bound" in v for v in exc.value.violations)
        # p = 12289 passes the strict bound for m = 14 over Z[x]/<x^8+1>
        params = make_params(p=12289, m=14, gens=("x^8+1",))
        assert keygen(params, 7, strict=True).a == keygen(params, 7).a


class TestDigest:
    def test_zero_tuple(self):
        key = keygen(make_params(), 3)
        out = digest(key, tuple(Polynomial.zero(1) for _ in range(5)))
        assert out.is_zero

    def test_worked_mod7_example(self):
        # independent oracle: reduce x*1 + (1+x)*x = x^2 + 2x by hand:
        # x^2 = -x-1 = 6x+6 mod 7, so the digest is 8x+6 = x+6.
        params = make_params(p=7, d=1, m=2)
        q = build_quotient(params.lifted_ideal(), params.order)
        key = HashKey(params=params, a=(P("x", 1, 7), P("1+x", 1, 7)), quotient=q)
        out = digest(key, (P("1", 1), P("x", 1)))
        assert out == P("x+6", 1, 7)

    def test_domain_violation_names_index(self):
        key = keygen(make_params(), 3)
        good = Polynomial.zero(1)
        bad = P("5*x", 1)
        with pytest.raises(DomainError) as exc:
            digest(key, (good, bad, good, good, good))
        assert "entry 1" in str(exc.value)

    def test_linearity(self, rng):
        key = keygen(make_params(), 5)
        q = key.ring()
        for _ in range(60):
            b = tuple(_small(rng) for _ in range(5))
            c = tuple(_small(rng) for _ in range(5))
            s = tuple(x + y for x, y in zip(b, c))
            lhs = normal_form(digest(key, b) + digest(key, c), q.gb)
            # componentwise sums may leave the domain ball; hash the sums
            # through the algebra map directly
            rhs = _raw_digest(key, s)
            assert lhs == rhs


def _small(rng):
    return Polynomial({(0,): rng.randint(-1, 1), (1,): rng.randint(-1, 1)}, 1)


def _raw_digest(key, tup):
    from ideallat.quotient import quotient_mul

    q = key.ring()
    acc = Polynomial.zero(1, key.params.p)
    for ai, bi in zip(key.a, tup):
        acc = acc + quotient_mul(ai, Polynomial(bi.coeffs, 1, key.params.p), q)
    return normal_form(acc, q.gb)


class TestCollisions:
    def test_equal_tuples_are_not_collisions(self):
        key = keygen(make_params(), 11)
        tup = tuple(Polynomial.zero(1) for _ in range(5))
        assert not verify_collision(key, tup, tup)

    def test_pigeonhole_search_succeeds(self):
        # |D^m| = 3^10 = 59049 > 289 = 17^2 = |R|
        assert 3**10 > 17**2
        key = keygen(make_params(), 11)
        alpha, beta = find_collision_bruteforce(key)
        assert verify_collision(key, alpha, beta)

    def test_handoff_contract(self):
        key = keygen(make_params(), 12)
        q = key.ring()
        alpha, beta = find_collision_bruteforce(key)
        z = [a - b for a, b in zip(alpha, beta)]
        assert any(not zi.is_zero for zi in z)
        for zi in z:
            assert inf_norm(zi) <= 2 * key.params.d
        acc = Polynomial.zero(1, key.params.p)
        from ideallat.quotient import quotient_mul

        for ai, zi in zip(key.a, z):
            acc = acc + quotient_mul(ai, Polynomial(zi.coeffs, 1, key.params.p), q)
        assert normal_form(acc, q.gb).is_zero

    def test_verify_reduces_each_entry_once(self, monkeypatch):
        import ideallat.hashing as hashing

        key = keygen(make_params(), 11)
        alpha, beta = find_collision_bruteforce(key)
        reduced = []
        real = hashing.normal_form

        def counting(f, gb):
            reduced.append(f)
            return real(f, gb)

        monkeypatch.setattr(hashing, "normal_form", counting)
        assert verify_collision(key, alpha, beta)
        assert len(reduced) == 2 * key.params.m == 10

    def test_verify_rejects_out_of_domain_entries(self):
        key = keygen(make_params(), 11)
        alpha, beta = find_collision_bruteforce(key)
        far = (P("2*x", 1),) + tuple(alpha[1:])
        assert not verify_collision(key, far, beta)
        assert not verify_collision(key, alpha, far)
        with pytest.raises(DomainError):
            verify_collision(key, (P("x", 1, 7),) + tuple(alpha[1:]), beta)

    def test_budget_guard(self):
        key = keygen(make_params(), 11)
        with pytest.raises(ResourceError):
            find_collision_bruteforce(key, budget=10)

    def test_no_collision_when_domain_small(self):
        # d=1, N=2, m=1 gives |D^m| = 9 < 289 = |R|; such parameters fail
        # validation (so keygen refuses them), and a hand-built key makes
        # the exhaustive sweep report the empty result.
        params = make_params(m=1)
        with pytest.raises(ValidationError):
            validate(make_params(m=1))
        q = build_quotient(params.lifted_ideal(), params.order)
        key = HashKey(params=params, a=(P("x+2", 1, 17),), quotient=q)
        with pytest.raises(DomainError):
            find_collision_bruteforce(key)


class TestSerialization:
    def test_key_round_trip(self):
        key = keygen(make_params(), 21)
        obj = key_to_obj(key)
        back = key_from_obj(obj)
        assert back.a == key.a
        assert back.params.p == key.params.p
        assert dumps(key_to_obj(back)) == dumps(obj)


class TestEncoding:
    def test_bytes_round_trip_capacity(self):
        params = make_params()
        q = build_quotient(params.lifted_ideal(), params.order)
        tup = encode_bytes(b"\x07", params, q)
        assert len(tup) == params.m
        key = keygen(params, 3)
        for f in tup:
            assert in_domain(key, f)
        # 7 in base 3 is 21: digits [1, 2] -> centered [0, 1]
        assert coordinates(normal_form(Polynomial(tup[0].coeffs, 1, 17), q.gb), q)[0] % 17 in (0, 1, 16)

    def test_oversized_input_rejected(self):
        params = make_params()
        q = build_quotient(params.lifted_ideal(), params.order)
        with pytest.raises(DomainError):
            encode_bytes(b"\xff" * 64, params, q)
