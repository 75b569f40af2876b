"""Buchberger completion over Z and Z_p, division, short reduction and
membership, checked against independent oracles (bounded integer linear
algebra, explicit certificates, brute-force combination search)."""

import hashlib
import itertools
import math
import random
import time

import pytest

from ideallat.errors import DomainError, ResourceError
from ideallat.groebner import (
    Ideal,
    buchberger,
    expand_representation,
    g_polynomial,
    ideal_membership,
    normal_form,
    reduce_full,
    reduction_plan,
    s_polynomial,
    short_reduce,
)
from ideallat.jsonio import ideal_from_obj, poly_from_obj
from ideallat.poly import (
    MonomialOrder,
    Polynomial,
    leading_data,
    mono_divides,
    parse_polynomial,
)

from conftest import bounded_membership, random_ideal, random_polynomial


def P(text, nvars, modulus=None):
    return parse_polynomial(text, nvars, modulus)


def gb_of(gens, nvars, modulus=None, short=True, **kw):
    gb = buchberger(Ideal(gens, nvars, modulus), MonomialOrder("lex"), **kw)
    return short_reduce(gb) if short else gb


class TestWorkedExamples:
    def test_two_variable_example(self):
        gb = gb_of([P("3*x^2", 2), P("5*x^2", 2), P("y", 2)], 2)
        assert {str(g) for g in gb.elements} == {"x^2", "y"}
        assert gb.is_monic and gb.is_short_reduced

    def test_principal_ideal_is_its_own_basis(self):
        gb = gb_of([P("x-1", 1)], 1)
        assert [str(g) for g in gb.elements] == ["x - 1"]

    def test_gcd_combination_produces_x(self):
        # <2x, 3x> contains x; oracle: brute-force small integer combinations
        gens = [P("2*x", 1), P("3*x", 1)]
        found = any(
            (gens[0] * u + gens[1] * v) == P("x", 1)
            for u in range(-5, 6)
            for v in range(-5, 6)
        )
        assert found
        gb = gb_of(gens, 1)
        assert ideal_membership(P("x", 1), gb)
        assert [str(g) for g in gb.elements] == ["x"]


class TestNormalForm:
    def test_direct_division(self):
        gb = gb_of([P("x^2", 2), P("y", 2)], 2)
        assert normal_form(P("x^3 + 2*y + 5", 2), gb) == P("5", 2)

    def test_generator_reduces_to_zero(self):
        gb = gb_of([P("x^2-1", 1)], 1)
        assert normal_form(P("x^2-1", 1), gb).is_zero

    def test_euclidean_coefficient_reduction(self):
        # oracle: 5 = 2*2 + 1, so 5x loses 2*(2x) and keeps coefficient 1
        gb = gb_of([P("2*x", 1)], 1)
        q, r = divmod(5, 2)
        assert (q, r) == (2, 1)
        assert normal_form(P("5*x", 1), gb) == P("x", 1)

    def test_idempotence_and_certificate(self, rng):
        for _ in range(40):
            ideal = random_ideal(rng)
            try:
                gb = buchberger(ideal, MonomialOrder("lex"), pair_budget=1500, step_budget=20_000)
            except ResourceError:
                continue
            f = random_polynomial(rng, ideal.nvars)
            r, quot, _ = reduce_full(f, gb.elements, gb.order, record=True)
            assert normal_form(r, gb) == r
            # certificate: f - r must re-expand exactly from the quotients
            acc = Polynomial.zero(ideal.nvars)
            for qd, g in zip(quot, gb.elements):
                if qd:
                    acc = acc + Polynomial(qd, ideal.nvars) * g
            assert acc == f - r


def _reduction_digest(modulus, kind, priority):
    """sha256 prefix of (remainder, quotients, steps) over seeded reductions.

    The reducers are random, not a Groebner basis, so several heads often
    apply to one term and the choice rule (smallest lm, then lowest
    index) decides the result.
    """
    rng = random.Random("reduce_full/%s/%s/%s" % (modulus, kind, priority))
    order = MonomialOrder(kind, priority)
    h = hashlib.sha256()
    for _ in range(12):
        elements = []
        for _ in range(rng.randint(1, 4)):
            g = random_polynomial(rng, 3, max_deg=2, max_terms=3, modulus=modulus)
            lc = g.coeffs[max(g.coeffs, key=order.key)]
            # heads as completion leaves them: positive over Z, monic over Z_p
            elements.append(g * (pow(lc, -1, modulus) if modulus else (1 if lc > 0 else -1)))
        f = random_polynomial(rng, 3, max_deg=4, max_coeff=30, max_terms=8, modulus=modulus)
        r, quot, steps = reduce_full(f, elements, order, record=True)
        h.update(repr((sorted(r.coeffs.items()), [sorted(q.items()) for q in quot], steps)).encode())
    return h.hexdigest()[:16]


class TestReduceFullGolden:
    """Division results pinned as computed by the reference implementation."""

    GOLDEN = {
        (None, "lex", None): "3dd415be43f6101d",
        (None, "lex", (2, 0, 1)): "8e8d7a86346e0ced",
        (None, "grlex", None): "014435d1454c5001",
        (None, "grlex", (2, 0, 1)): "6ad2e1f93509e8f1",
        (None, "grevlex", None): "6afb8e687084c1c9",
        (None, "grevlex", (2, 0, 1)): "dd3e40d7811fc422",
        (13, "lex", None): "e97631860c19ee6a",
        (13, "lex", (2, 0, 1)): "019f289da76da79c",
        (13, "grlex", None): "f0427734e03d0d2b",
        (13, "grlex", (2, 0, 1)): "62a2e6a3d263aae9",
        (13, "grevlex", None): "5085ae693f40c8db",
        (13, "grevlex", (2, 0, 1)): "18bcf7dff5dc5293",
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN, key=repr))
    def test_remainder_quotients_and_steps(self, case):
        assert _reduction_digest(*case) == self.GOLDEN[case]

    def test_smallest_head_then_lowest_index(self):
        # every head divides x*y; y is the smallest, and of the two equal
        # heads y the lower index reduces
        elements = [P("x", 2), P("y", 2), P("y", 2)]
        r, quot, steps = reduce_full(P("3*x*y", 2), elements, MonomialOrder("lex"), record=True)
        assert (r.is_zero, steps) == (True, 1)
        assert quot == [{}, {(1, 0): 3}, {}]


def _replay(plan, f, monos):
    """Remainder and step count of ``f`` from a ``reduction_plan``."""
    reached, steps, irreducible = plan
    p = f.modulus
    v = [f.coeffs.get(e, 0) for e in monos] + [0] * (len(reached) - len(monos))
    count = 0
    for i, tail in steps:
        c = v[i] if p is None else v[i] % p
        if c:
            count += 1
            for t, a in tail:
                v[t] -= c * a
    return Polynomial({reached[i]: v[i] for i in irreducible}, f.nvars, p), count


class TestReductionPlan:
    @pytest.mark.parametrize("gens, nvars, modulus, kind", [
        (["x^3-x-1"], 1, None, "lex"),
        (["x^2-2*y", "y^2+x-3"], 2, None, "grevlex"),
        (["x^2+3*y+1", "y^2+5*x"], 2, 13, "lex"),
        (["x^2+2*y+1", "y^2+x+z", "z^2-x-y+4"], 3, 13, "grevlex"),
        (["x^2-1", "y^2-x", "z^2-y"], 3, None, "lex"),
    ])
    def test_replay_matches_reduce_full(self, gens, nvars, modulus, kind):
        order = MonomialOrder(kind)
        gb = short_reduce(buchberger(Ideal([P(g, nvars, modulus) for g in gens], nvars, modulus), order))
        monos = list(itertools.product(range(4), repeat=nvars))
        plan = reduction_plan(gb.elements, order, monos)
        rng = random.Random("plan/%s" % gens)
        for _ in range(40):
            # small coefficients and many zeros, so steps often cancel out
            f = Polynomial({e: rng.choice((-2, -1, 0, 0, 1, 2, 13)) for e in monos}, nvars, modulus)
            r, _, steps = reduce_full(f, gb.elements, order)
            assert _replay(plan, f, monos) == (r, steps)

    def test_refuses_a_head_that_is_not_monic(self):
        gb = gb_of([P("2*x^2+1", 1)], 1)
        with pytest.raises(DomainError):
            reduction_plan(gb.elements, gb.order, [(0,), (1,), (2,)])


class TestMembership:
    def test_partial_reduction_is_not_membership(self):
        gb = gb_of([P("x^2", 2), P("y", 2)], 2)
        # manual division: x^2 + x -> remainder x
        assert normal_form(P("x^2+x", 2), gb) == P("x", 2)
        assert not ideal_membership(P("x^2+x", 2), gb)

    def test_zero_and_explicit_multiples(self):
        gb = gb_of([P("x^2+x+1", 1)], 1)
        assert ideal_membership(Polynomial.zero(1), gb)
        assert ideal_membership(P("x-1", 1) * P("x^2+x+1", 1), gb)

    def test_agreement_with_bounded_linear_algebra(self, rng):
        """Membership via division vs. the independent HNF row-span oracle."""
        checked = 0
        while checked < 25:
            ideal = random_ideal(rng)
            try:
                gb = buchberger(ideal, MonomialOrder("lex"), pair_budget=1500, step_budget=20_000)
            except ResourceError:
                continue
            checked += 1
            # member probe with known multipliers
            hs = [random_polynomial(rng, ideal.nvars, max_deg=2, max_coeff=3)
                  for _ in ideal.generators]
            member = Polynomial.zero(ideal.nvars)
            for h, g in zip(hs, ideal.generators):
                member = member + h * g
            if not member.is_zero:
                assert ideal_membership(member, gb)
                assert bounded_membership(member, ideal.generators, 2)
            # random probe: certify positives, cross-check negatives
            probe = random_polynomial(rng, ideal.nvars)
            if ideal_membership(probe, gb):
                r, quot, _ = reduce_full(probe, gb.elements, gb.order, record=True)
                assert r.is_zero
                multipliers = _multipliers_over_generators(quot, gb, ideal)
                recon = Polynomial.zero(ideal.nvars)
                for h, g in zip(multipliers, ideal.generators):
                    recon = recon + h * g
                assert recon == probe
                bound = max(
                    (max(sum(e) for e in h.coeffs) for h in multipliers if not h.is_zero),
                    default=0,
                )
                assert bounded_membership(probe, ideal.generators, bound)
            else:
                deg = max(sum(e) for e in probe.coeffs)
                assert not bounded_membership(probe, ideal.generators, deg + 2)


def _multipliers_over_generators(quot, gb, ideal):
    mult = [Polynomial.zero(ideal.nvars) for _ in ideal.generators]
    for qd, rep in zip(quot, gb.representations):
        if not qd:
            continue
        qp = Polynomial(qd, ideal.nvars)
        mult = [m + qp * r for m, r in zip(mult, rep)]
    return mult


class TestShortReduce:
    def test_worked_example_monic(self):
        gb = gb_of([P("3*x^2", 2), P("5*x^2", 2), P("y", 2)], 2)
        assert gb.is_monic

    def test_redundant_higher_power_dropped(self):
        # oracle: 4x^2 = (2x)(2x) is in <2x>, so it must vanish
        gens = [P("2*x", 1), P("4*x^2", 1)]
        gb = gb_of(gens, 1)
        assert ideal_membership(P("4*x^2", 1), gb)
        assert [str(g) for g in gb.elements] == ["2*x"]

    def test_idempotent(self):
        gb = gb_of([P("x-1", 1)], 1)
        again = short_reduce(gb)
        assert [str(g) for g in again.elements] == [str(g) for g in gb.elements]

    def test_unique_under_generator_permutation(self, rng):
        done = 0
        while done < 20:
            ideal = random_ideal(rng)
            try:
                gb1 = gb_of(ideal.generators, ideal.nvars, pair_budget=1500, step_budget=20_000)
            except ResourceError:
                continue
            perm = list(ideal.generators)
            rng.shuffle(perm)
            gb2 = gb_of(perm, ideal.nvars, pair_budget=1500, step_budget=20_000)
            assert {str(g) for g in gb1.elements} == {str(g) for g in gb2.elements}
            done += 1

    @pytest.mark.parametrize("modulus", [None, 13])
    @pytest.mark.parametrize("order", ["lex", "grevlex"])
    def test_buchberger_heads_are_already_short(self, modulus, order):
        """The precondition of ``short_reduce``: the heads of a minimal
        strong basis are distinct, each lc is the gcd of the lcs whose lm
        divides its lm, no other head covers one, and short reduction keeps
        every head."""
        rng = random.Random(2026 + (modulus or 0))
        order = MonomialOrder(order)
        done = 0
        while done < 12:
            ideal = random_ideal(rng)
            gens = [Polynomial(g.coeffs, ideal.nvars, modulus) for g in ideal.generators]
            if any(g.is_zero for g in gens):
                continue
            try:
                gb = buchberger(Ideal(gens, ideal.nvars, modulus), order,
                                pair_budget=1500, step_budget=20_000)
            except ResourceError:
                continue
            done += 1
            heads = [leading_data(g, order)[::-1] for g in gb.elements]
            assert len({lm for lm, _ in heads}) == len(heads)
            for i, (lm, lc) in enumerate(heads):
                assert lc == math.gcd(*(c for m, c in heads if mono_divides(m, lm)))
                assert not any(
                    j != i and mono_divides(m, lm) and lc % c == 0
                    for j, (m, c) in enumerate(heads)
                )
            short = short_reduce(gb)
            assert [leading_data(g, order)[::-1] for g in short.elements] == heads

    def test_mixed_content_keeps_both_levels(self):
        # <2x, 3y>: contents 2 at x, 3 at y, 1 at xy -> three elements
        gb = gb_of([P("2*x", 2), P("3*y", 2)], 2)
        assert {str(g) for g in gb.elements} == {"2*x", "3*y", "x*y"}


class TestStrongProperty:
    def test_all_pairs_reduce_to_zero(self, rng):
        done = 0
        while done < 25:
            ideal = random_ideal(rng)
            try:
                gb = gb_of(ideal.generators, ideal.nvars, pair_budget=1500, step_budget=20_000)
            except ResourceError:
                continue
            done += 1
            for f, g in itertools.combinations(gb.elements, 2):
                assert normal_form(s_polynomial(f, g, gb.order), gb).is_zero
                if gb.modulus is None:
                    assert normal_form(g_polynomial(f, g, gb.order), gb).is_zero

    def test_representations_expand_to_elements(self, rng):
        done = 0
        while done < 15:
            ideal = random_ideal(rng)
            try:
                gb = gb_of(ideal.generators, ideal.nvars, pair_budget=1500, step_budget=20_000)
            except ResourceError:
                continue
            done += 1
            for g, rep in zip(gb.elements, gb.representations):
                assert expand_representation(rep, ideal.generators) == g


class TestFieldCase:
    def test_monic_over_z7(self):
        gb = gb_of([P("3*x^2+3*x", 1, 7)], 1, modulus=7)
        assert gb.is_monic
        assert [str(g) for g in gb.elements] == ["x^2 + x"]

    def test_membership_mod_p(self):
        gb = gb_of([P("x^2+1", 1, 5)], 1, modulus=5)
        # (x^2+1)(x+2) mod 5
        f = P("x^2+1", 1, 5) * P("x+2", 1, 5)
        assert ideal_membership(f, gb)
        assert not ideal_membership(P("x+1", 1, 5), gb)

    @pytest.mark.parametrize("modulus", [4, 1, 91])
    def test_ideal_needs_a_prime_modulus(self, modulus):
        with pytest.raises(DomainError, match="modulus %d is not prime" % modulus):
            Ideal([P("x^2+1", 1, modulus)], 1, modulus)

    @pytest.mark.parametrize("modulus", ["4", "0", "-7"])
    def test_loaders_reject_a_composite_or_zero_modulus(self, modulus):
        # checked before any coefficient is reduced, so "0" never divides
        poly = {"nvars": 1, "modulus": modulus, "terms": [{"e": [2], "c": "2"}]}
        with pytest.raises(DomainError, match="modulus %s is not prime" % modulus):
            poly_from_obj(poly)
        with pytest.raises(DomainError, match="modulus %s is not prime" % modulus):
            ideal_from_obj({"nvars": 1, "modulus": modulus, "generators": ["2*x^2+1"]})


    def test_loaders_accept_a_large_prime_modulus_quickly(self):
        modulus = str(10**16 + 61)
        t0 = time.perf_counter()
        ideal = ideal_from_obj({"nvars": 1, "modulus": modulus, "generators": ["2*x^2+1"]})
        # trial division took seconds per check on this modulus
        assert time.perf_counter() - t0 < 0.1
        assert ideal.modulus == 10**16 + 61


class TestBudget:
    def test_budget_abort(self):
        gens = [P("x^2*y - 1", 2), P("x*y^2 - x", 2)]
        with pytest.raises(ResourceError):
            buchberger(Ideal(gens, 2), MonomialOrder("lex"), pair_budget=1)


class TestOrderCoverage:
    @pytest.mark.parametrize("priority", [(1, 0), (0, 1, 2, 3)])
    def test_priority_must_cover_every_variable(self, priority):
        ideal = Ideal([P("x^2", 3), P("y^2", 3), P("z^2", 3)], 3)
        with pytest.raises(DomainError, match="monomial order ranks %d variables" % len(priority)):
            buchberger(ideal, MonomialOrder("lex", priority))


class TestPairCriteria:
    """Each case fails when one condition of a pair criterion is dropped."""

    def test_product_criterion_needs_coprime_leading_coefficients(self):
        # disjoint heads 2x, 2y, but gcd(2, 2) = 2: the S-pair gives y - x
        gens = [P("2*x+1", 2), P("2*y+1", 2)]
        assert P("y", 2) * gens[0] - P("x", 2) * gens[1] == P("y-x", 2)
        gb = gb_of(gens, 2)
        assert [str(g) for g in gb.elements] == ["x + y + 1", "2*y + 1"]
        assert ideal_membership(P("x-y", 2), gb)

    @pytest.mark.parametrize("modulus", [None, 13])
    def test_product_criterion_skips_coprime_disjoint_heads(self, monkeypatch, modulus):
        import ideallat.groebner as groebner

        calls = []
        real = groebner.reduce_full

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(groebner, "reduce_full", counting)
        gens = [P("x^3-1", 2, modulus), P("y^5-1", 2, modulus)]
        gb = buchberger(Ideal(gens, 2, modulus), MonomialOrder("lex"))
        assert calls == []
        assert gb.elements == gens

    def test_chain_criterion_needs_leading_coefficient_division(self):
        # 1 = 4*x^2 - (2x - 1)(2x + 1), while 4 does not divide lcm(1, 2)
        gens = [P("4", 1), P("2*x-1", 1)]
        assert P("x^2", 1) * gens[0] - gens[1] * P("2*x+1", 1) == P("1", 1)
        gb = gb_of(gens, 1)
        assert [str(g) for g in gb.elements] == ["1"]

    def test_g_pair_criterion_needs_leading_coefficient_division(self):
        # the G-pair of 7y^3 and 4xy^2 - y^3 has head x*y^3 (gcd(7, 4) = 1);
        # 4xy^2 covers its monomial but not its coefficient
        gens = [P("7*y^3", 2), P("-4*x*y^2+y^3", 2)]
        gb = gb_of(gens, 2)
        expected = ["x*y^3 + 5*y^4", "4*x*y^2 + 6*y^3", "7*y^3"]
        assert [str(g) for g in gb.elements] == expected
        for text in expected:
            assert bounded_membership(P(text, 2), gens, 2)


class TestModPAgainstSympy:
    def test_short_reduce_matches_sympy_groebner(self):
        """Reduced monic bases over Z_p are unique, so sympy's must match."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(987654)
        compared = 0
        for _ in range(200):
            ideal = random_ideal(rng)
            nv = ideal.nvars
            syms = sympy.symbols("x0:%d" % nv)
            for p in (13, 101):
                gens = [Polynomial(g.coeffs, nv, p) for g in ideal.generators]
                gens = [g for g in gens if not g.is_zero]
                if not gens:
                    continue
                # representations leave the basis unchanged and cost seconds here
                ours = gb_of(gens, nv, modulus=p, track=False)
                exprs = [
                    sympy.Poly.from_dict(g.coeffs, *syms, modulus=p).as_expr() for g in gens
                ]
                theirs = sympy.groebner(exprs, *syms, order="lex", modulus=p)
                expected = {
                    frozenset(
                        (e, c % p)
                        for e, c in sympy.Poly(b, *syms, modulus=p).as_dict().items()
                    )
                    for b in theirs.exprs
                }
                assert {frozenset(g.coeffs.items()) for g in ours.elements} == expected
                compared += 1
        assert compared >= 390
