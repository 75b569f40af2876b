"""Hash family: validation, key generation, hashing, collisions and the
byte encoding."""

import dataclasses
import math

import pytest

from ideallat.errors import ArityError, DomainError, ResourceError, ValidationError
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

    def test_strict_bound_needs_ranges_in_order(self):
        """An out-of-range eta is reported alone, not also as a strict
        modulus bound of nan."""
        with pytest.raises(ValidationError) as exc:
            validate(make_params(eta=math.nan), strict=True)
        assert exc.value.violations == ["expansion bound: eta = nan must be finite and positive"]

    def test_primality_is_checked_once(self, monkeypatch):
        import ideallat.hashing as hashing

        calls = []
        real = hashing._is_prime

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(hashing, "_is_prime", counting)
        validate(make_params())
        assert calls == [17]
        calls.clear()
        with pytest.raises(ValidationError):
            validate(make_params(), strict=True)
        assert calls == [17]
        calls.clear()
        keygen(make_params(), 7)
        assert calls == [17]

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"p": 0}, "modulus: p = 0 is not prime"),
            ({"d": 0}, "domain bound: d = 0 but log(2d) needs d >= 1"),
            ({"m": -1}, "key length: m = -1 must be positive"),
            ({"eta": 0.0}, "expansion bound: eta = 0.0 must be finite and positive"),
            ({"eta": math.nan}, "expansion bound: eta = nan must be finite and positive"),
        ],
    )
    def test_range_checks(self, changes, message):
        """``check_ranges`` raises the range messages of ``validate`` and
        skips its collision-richness bound."""
        from ideallat.hashing import check_ranges

        with pytest.raises(ValidationError) as exc:
            check_ranges(make_params(**changes))
        assert exc.value.violations == [message]
        with pytest.raises(ValidationError) as exc:
            validate(make_params(**changes))
        assert message in exc.value.violations
        params = make_params(m=1)
        assert check_ranges(params) is params


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

    def test_short_key_is_refused(self):
        """A key with fewer than m elements hashes no prefix of the tuple."""
        k = keygen(make_params(), 3)
        short = HashKey(params=k.params, a=k.a[:2], quotient=k.ring())
        zero = Polynomial.zero(1)
        alpha = (zero,) * 5
        beta = (zero,) * 4 + (P("x", 1),)
        for call in (lambda: digest(short, alpha), lambda: verify_collision(short, alpha, beta)):
            with pytest.raises(DomainError, match="key has 2 elements but m = 5"):
                call()

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
    acc = Polynomial.zero(q.nvars, key.params.p)
    for ai, bi in zip(key.a, tup):
        acc = acc + quotient_mul(ai, Polynomial(bi.coeffs, q.nvars, key.params.p), q)
    return normal_form(acc, q.gb)


def _power_ring_params(shape, p=12289, d=8, m=4):
    """Parameters over Z[x_1..x_n]/<x_i^r_i + 1> for shape (r_1, .., r_n)."""
    n = len(shape)
    gens = [Polynomial({tuple(r if j == i else 0 for j in range(n)): 1, (0,) * n: 1}, n)
            for i, r in enumerate(shape)]
    return HashParams(p=p, ideal=Ideal(gens, n), order=MonomialOrder("lex"), d=d, m=m, eta=1.0)


class TestDigestDifferential:
    """``digest`` against ``_raw_digest``, the sum of the ring products
    a_i * b_i each reduced by ``normal_form``, on the two rings of the
    benchmark's hash workload."""

    SHAPES = [(32,), (8, 4)]

    def _entry(self, rng, key, kind):
        q = key.ring()
        p, d, n = key.params.p, key.params.d, q.nvars
        coeffs = {e: rng.randint(-d, d) for e in q.basis}
        if kind == "mod p":
            return Polynomial(coeffs, n, p)
        f = Polynomial(coeffs, n)
        if kind == "standard":
            return f
        # f plus multiples of the generators: support off the standard
        # monomials (exponents up to 2r) with the same residue as f
        for g in key.params.ideal.generators:
            h = Polynomial({rng.choice(q.basis): rng.randint(-p, p) for _ in range(3)}, n)
            f = f + g * h
        assert not set(f.coeffs) <= set(q.basis)
        return f

    @pytest.mark.parametrize("shape", SHAPES)
    def test_agrees_with_raw_digest(self, shape):
        import random

        rng = random.Random(2026)
        key = keygen(_power_ring_params(shape), 5)
        for t in range(40):
            kinds = [("standard", "mod p", "off standard")[(t + i) % 3] for i in range(4)]
            b = tuple(self._entry(rng, key, kind) for kind in kinds)
            assert all(in_domain(key, f) for f in b)
            assert digest(key, b) == _raw_digest(key, b)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_errors(self, shape):
        key = keygen(_power_ring_params(shape), 5)
        n = len(shape)
        z = Polynomial.zero(n)
        cases = [
            ((z,) * 3, DomainError, "expected a tuple of 4 elements"),
            ((z, Polynomial.constant(1, n, 7), z, z), DomainError, "tuple entry has a foreign modulus"),
            ((z, Polynomial.constant(9, n), z, z), DomainError,
             "tuple entry 1 lies outside the domain bound d = 8"),
            ((z, P("x^%d" % (shape[0] + 1), n) * 9, z, z), DomainError,
             "tuple entry 1 lies outside the domain bound d = 8"),
            ((z, z, Polynomial.zero(n + 1), z), ArityError,
             "variable counts differ: %d vs %d" % (n, n + 1)),
            # the domain check of every entry comes before the arity check
            ((Polynomial.zero(n + 1), Polynomial.constant(9, n), z, z), DomainError,
             "tuple entry 1 lies outside the domain bound d = 8"),
        ]
        for b, error, message in cases:
            with pytest.raises(error) as exc:
                digest(key, b)
            assert type(exc.value) is error and str(exc.value) == message
        assert in_domain(key, Polynomial.constant(8 - 12289, n))
        assert in_domain(key, Polynomial.constant(12289 - 8, n, 12289))
        assert not in_domain(key, Polynomial.constant(12289 - 9, n, 12289))
        with pytest.raises(DomainError, match="foreign modulus"):
            in_domain(key, Polynomial.constant(1, n, 7))


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

    @pytest.mark.parametrize("m, d", [(0, 1), (1, 1), (1, -1), (3, -1)])
    def test_search_without_collision_is_domain_error(self, m, d):
        # m = 0 leaves the empty tuple alone; d = -1 leaves no tuple at all;
        # m = 1 has 3^2 = 9 tuples for 17^2 digests
        key = keygen(make_params(), 11)
        probe = HashKey(params=dataclasses.replace(key.params, m=m, d=d), a=key.a[:m], quotient=key.ring())
        with pytest.raises(DomainError, match="no collision found"):
            find_collision_bruteforce(probe)

    def test_verify_reduces_each_entry_once(self, monkeypatch):
        """Entries off the standard monomials are reduced once each; the
        entries of a bruteforce collision lie on them and need no normal
        form."""
        import ideallat.quotient as quotient

        key = keygen(make_params(), 11)
        alpha, beta = find_collision_bruteforce(key)
        reduced = []
        real = quotient.normal_form

        def counting(f, gb):
            reduced.append(f)
            return real(f, gb)

        monkeypatch.setattr(quotient, "normal_form", counting)
        assert verify_collision(key, alpha, beta)
        assert reduced == []
        g = key.params.ideal.generators[0]
        off = [tuple(f + g * P("x^2", 1) for f in tup) for tup in (alpha, beta)]
        assert verify_collision(key, *off)
        assert len(reduced) == 2 * key.params.m == 10

    @pytest.mark.parametrize(
        "seed, alpha, beta",
        [
            (11, ["-x - 1"] * 4 + ["-1"], ["-x - 1", "-x - 1", "-1", "-1", "-x - 1"]),
            (12, ["-x - 1"] * 3 + ["-1", "-1"], ["-x - 1"] * 3 + ["-x + 1", "-x"]),
        ],
    )
    def test_bruteforce_result(self, seed, alpha, beta):
        """The first collision in enumeration order, pinned."""
        key = keygen(make_params(), seed)
        got = find_collision_bruteforce(key)
        assert got == (tuple(P(t, 1) for t in alpha), tuple(P(t, 1) for t in beta))
        assert verify_collision(key, *got)

    def test_verify_rejects_out_of_domain_entries(self):
        key = keygen(make_params(), 11)
        alpha, beta = find_collision_bruteforce(key)
        far = (P("2*x", 1),) + tuple(alpha[1:])
        assert not verify_collision(key, far, beta)
        assert not verify_collision(key, alpha, far)
        with pytest.raises(DomainError):
            verify_collision(key, (P("x", 1, 7),) + tuple(alpha[1:]), beta)

    def test_bruteforce_refuses_short_key(self):
        k = keygen(make_params(), 3)
        short = HashKey(params=k.params, a=k.a[:2], quotient=k.ring())
        with pytest.raises(DomainError, match="key has 2 elements but m = 5"):
            find_collision_bruteforce(short)

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
