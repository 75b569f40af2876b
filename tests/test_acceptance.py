"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured evidence.  Budgets and tolerances are pinned here and
nowhere else."""

import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from ideallat.cyclic import cyclic_shift, is_multivariate_cyclic, tensor_of
from ideallat.errors import InfiniteDimensionError, RepresentationError, ResourceError
from ideallat.groebner import (
    Ideal,
    buchberger,
    g_polynomial,
    ideal_membership,
    normal_form,
    reduce_full,
    s_polynomial,
    short_reduce,
)
from ideallat.hardness import (
    cyclic_to_cyclotomic,
    cyclotomic_sum_ideal,
    expansion_factor,
    incspp_via_collisions,
    max_coefficient,
    max_substitution,
    norm_mod,
    primality_certificate,
    spp_bruteforce,
    variety_cyclotomic,
)
from ideallat.hashing import HashKey, HashParams, collision_oracle, digest, find_collision_bruteforce, keygen, verify_collision
from ideallat.lattice import ideal_to_lattice, minima_bruteforce
from ideallat.poly import MonomialOrder, Polynomial, inf_norm, maxdeg, parse_polynomial
from ideallat.quotient import (
    build_quotient,
    coordinates,
    from_coordinates,
    quotient_mul,
)

from conftest import bounded_membership, random_ideal, random_polynomial

LEX = MonomialOrder("lex")


def P(text, nvars, modulus=None):
    return parse_polynomial(text, nvars, modulus)


def report(n, message):
    print("ACCEPTANCE %d PASS — %s" % (n, message))


# ---------------------------------------------------------------------------
# shared corpus for criteria 2 and 3

@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(987654)
    out = []
    skipped = 0
    while len(out) < 200:
        ideal = random_ideal(rng)
        try:
            gb = short_reduce(buchberger(ideal, LEX, pair_budget=1500, step_budget=20_000))
        except ResourceError:
            skipped += 1
            continue
        out.append((ideal, gb))
    return out, skipped, rng


def test_criterion_1_worked_example_exact():
    ideal = Ideal([P("3*x^2", 2), P("5*x^2", 2), P("y", 2)], 2)
    gb = short_reduce(buchberger(ideal, LEX))
    assert [str(g) for g in gb.elements] == ["x^2", "y"]
    assert gb.is_monic
    q = build_quotient(ideal, LEX)
    assert q.N == 2 and q.free
    assert q.basis == [(0, 0), (1, 0)]
    lat = ideal_to_lattice(q, [P("6*x", 2)])
    assert lat.hnf == [[0, 6]]
    report(1, "short reduced basis {x^2, y}, monic, N=2, B=(1, x), HNF [(0, 6)]")


def test_criterion_2_strong_basis_soundness(corpus):
    ideals, skipped, rng = corpus
    probes_checked = 0
    for ideal, gb in ideals:
        for f, g in itertools.combinations(gb.elements, 2):
            assert normal_form(s_polynomial(f, g, LEX), gb).is_zero
            assert normal_form(g_polynomial(f, g, LEX), gb).is_zero
        member_lattice = None
        for k in range(20):
            if k < 10:
                # membership probe with known degree-2 multipliers
                hs = [
                    random_polynomial(rng, ideal.nvars, max_deg=2, max_coeff=3)
                    for _ in ideal.generators
                ]
                probe = Polynomial.zero(ideal.nvars)
                for h, gen in zip(hs, ideal.generators):
                    probe = probe + h * gen
                if probe.is_zero:
                    continue
                assert ideal_membership(probe, gb)
                assert bounded_membership(probe, ideal.generators, 2)
            else:
                probe = random_polynomial(rng, ideal.nvars)
                if ideal_membership(probe, gb):
                    r, quot, _ = reduce_full(probe, gb.elements, gb.order, record=True)
                    assert r.is_zero
                    mult = [Polynomial.zero(ideal.nvars) for _ in ideal.generators]
                    for qd, rep in zip(quot, gb.representations):
                        if qd:
                            qp = Polynomial(qd, ideal.nvars)
                            mult = [m + qp * r2 for m, r2 in zip(mult, rep)]
                    recon = Polynomial.zero(ideal.nvars)
                    for h, gen in zip(mult, ideal.generators):
                        recon = recon + h * gen
                    assert recon == probe
                    bound = max(
                        (max(sum(e) for e in h.coeffs) for h in mult if not h.is_zero),
                        default=0,
                    )
                    assert bounded_membership(probe, ideal.generators, bound)
                else:
                    deg = max(sum(e) for e in probe.coeffs)
                    assert not bounded_membership(probe, ideal.generators, deg + 2)
            probes_checked += 1
    report(
        2,
        "200 random ideals closed under S- and GCD-pairs; %d probes agreed with "
        "the bounded linear-algebra oracle (%d over-budget draws resampled)"
        % (probes_checked, skipped),
    )


def test_criterion_3_free_iff_monic(corpus):
    ideals, _, _ = corpus
    finite = nonfree = 0
    for ideal, gb in ideals:
        try:
            q = build_quotient(ideal, LEX, pair_budget=1500)
        except InfiniteDimensionError:
            continue
        except ResourceError:
            continue
        finite += 1
        assert q.free == gb.is_monic
        if not q.free:
            nonfree += 1
            witness = [gen for gen in q.torsion.values()]
            assert witness and all(w not in (0, 1) for w in witness)
            with pytest.raises(RepresentationError):
                coordinates(Polynomial.constant(1, ideal.nvars), q)
    assert finite >= 50
    report(
        3,
        "free == monic on %d finite-dimensional fixtures; %d non-free fixtures "
        "refused coordinates and exhibited torsion" % (finite, nonfree),
    )


def test_criterion_4_shift_equivalence():
    rng = random.Random(24)
    shapes = [(2,), (3,), (2, 2), (2, 3), (2, 2, 3)]
    checked = 0
    for shape in shapes:
        n = len(shape)
        gens = [Polynomial.variable(i, n, power=r) - 1 for i, r in enumerate(shape)]
        q = build_quotient(Ideal(gens, n), LEX)
        for _ in range(100):
            coeffs = {
                e: rng.randint(-9, 9)
                for e in itertools.product(*(range(r) for r in shape))
                if rng.random() < 0.7
            }
            f = Polynomial(coeffs, n)
            t = tensor_of(f, shape)
            for axis in range(1, n + 1):
                xi = Polynomial.variable(axis - 1, n)
                assert tensor_of(quotient_mul(xi, f, q), shape) == cyclic_shift(t, axis)
                cur = t
                for _ in range(shape[axis - 1]):
                    cur = cyclic_shift(cur, axis)
                assert cur == t
                for other in range(1, n + 1):
                    assert cyclic_shift(cyclic_shift(t, axis), other) == cyclic_shift(
                        cyclic_shift(t, other), axis
                    )
            checked += 1
        for _ in range(5):
            a_gens = [
                Polynomial(
                    {
                        e: rng.randint(-4, 4)
                        for e in itertools.product(*(range(r) for r in shape))
                        if rng.random() < 0.5
                    },
                    n,
                )
            ]
            a_gens = [g for g in a_gens if not g.is_zero]
            if not a_gens:
                continue
            lat = ideal_to_lattice(q, a_gens)
            if lat.rank:
                assert is_multivariate_cyclic(lat, shape)
    report(4, "500 random elements across 5 shapes satisfy shift equivalence, "
              "commutation and order; ideal lattices are shift-closed")


def test_criterion_5_prime_iff_full_rank():
    # A free, torsion-free quotient is prime exactly when every nonzero
    # ideal has full rank N; both directions are checked.  Prime r_i do not
    # make the cyclotomic-sum ring prime: in Z[x,y]/<x^2+x+1, y^2+y+1>,
    # (x - y)(x + y + 1) = (x^2+x+1) - (y^2+y+1) = 0, so the ring splits
    # into two copies of Z[w], along y = x and along y = -1 - x.  There the
    # certificate is withheld, <x - y> and <x + y + 1> are fixed witnesses
    # of rank N/2, and each sampled ideal has rank N/2 exactly when one of
    # the two factors kills every generator: x + y + 1 annihilates exactly
    # what vanishes on y = x, and x - y exactly what vanishes on y = -1 - x.
    rng = random.Random(25)
    q_split = build_quotient(Ideal([P("x^2-1", 1)], 1), LEX)
    lat = ideal_to_lattice(q_split, [P("x+1", 1)])
    assert lat.rank == 1 < q_split.N

    certified = []
    draws = {}
    deficits = 0
    witness_ranks = []
    for r in [(2,), (3,), (2, 3), (3, 3)]:
        q = build_quotient(cyclotomic_sum_ideal(r), LEX)
        prime = primality_certificate(q) == "prime"
        assert prime == (r != (3, 3)), r
        if prime:
            certified.append(r)
        else:
            factors = [P("x-y", 2), P("x+y+1", 2)]
            assert not any(normal_form(z, q.gb).is_zero for z in factors)
            assert quotient_mul(factors[0], factors[1], q).is_zero
            witness_ranks = [ideal_to_lattice(q, [z]).rank for z in factors]
            assert witness_ranks == [q.N // 2] * 2 == [2, 2]
        count = 0
        while count < 50:
            gens = []
            for _ in range(rng.randint(1, 2)):
                f = normal_form(
                    random_polynomial(rng, len(r), max_deg=3, max_coeff=5), q.gb
                )
                if not f.is_zero:
                    gens.append(f)
            if not gens:
                continue
            count += 1
            lat = ideal_to_lattice(q, gens)
            if prime:
                assert lat.rank == q.N, (r, [str(g) for g in gens], lat.rank)
                continue
            killed = any(
                all(quotient_mul(z, g, q).is_zero for g in gens) for z in factors
            )
            assert lat.rank in (q.N // 2, q.N), ([str(g) for g in gens], lat.rank)
            assert (lat.rank == q.N // 2) == killed, ([str(g) for g in gens], lat.rank)
            deficits += killed
        draws[r] = count
    report(5, "certified prime %s: %d random ideals all full rank; (3, 3) not "
              "certified, (x-y)(x+y+1) = 0 with <x-y>, <x+y+1> of rank %s of 4; "
              "%d of %d (3, 3) draws rank 2, each explained by an annihilator; "
              "the x^2-1 fixture drops to rank 1"
              % (certified, sum(draws[r] for r in certified), witness_ranks,
                 deficits, draws[(3, 3)]))


def test_criterion_6_expansion_bound():
    rng = random.Random(26)
    fixtures = [
        (Ideal([P("x^2-1", 1)], 1), (2,)),
        (Ideal([P("x^3-1", 1)], 1), (2,)),
        (cyclotomic_sum_ideal((3,)), (2,)),
        (cyclotomic_sum_ideal((5,)), (2,)),
        (Ideal([P("x^2-1", 2), P("y^2-1", 2)], 2), (2, 2)),
    ]
    samples = 0
    for ideal, k in fixtures:
        q = build_quotient(ideal, LEX)
        g_max = max(inf_norm(g) for g in q.gb.elements)
        caps = [
            k[i] * max(maxdeg(g, i) for g in q.gb.elements) for i in range(q.nvars)
        ]
        monos = list(itertools.product(*(range(c + 1) for c in caps)))
        for _ in range(2000):
            coeffs = {e: rng.randint(-9, 9) for e in monos if rng.random() < 0.6}
            f = Polynomial(coeffs, q.nvars)
            if f.is_zero:
                continue
            r, _, steps = reduce_full(f, q.gb.elements, q.gb.order)
            assert inf_norm(r) <= inf_norm(f) * (2 * g_max) ** steps
            samples += 1
    assert samples >= 10_000 * 0.9  # zero draws excluded

    lemma_fixtures = 0
    for r in [(2,), (3,), (5,), (2, 3)]:
        q = build_quotient(cyclotomic_sum_ideal(r), LEX)
        for gens_text in (["x1-1"], ["2"], ["x1+2"]):
            gens = [normal_form(P(t, len(r)), q.gb) for t in gens_text]
            gens = [g for g in gens if not g.is_zero]
            if not gens:
                continue
            lat = ideal_to_lattice(q, gens)
            if lat.rank < q.N or q.N > 4:
                continue
            rep = minima_bruteforce(lat, q.N, box=6)
            estimate = expansion_factor(q, (2,) * len(r), rng_seed=1).estimate
            w = from_coordinates(rep.witnesses[0], q)
            for b in q.basis_polynomials():
                prod = w * b
                if not prod.is_zero:
                    estimate = max(
                        estimate, Fraction(norm_mod(prod, q), inf_norm(prod))
                    )
            assert rep.lambdas[-1] <= estimate * rep.lambdas[0]
            lemma_fixtures += 1
    assert lemma_fixtures >= 8
    report(6, "%d sampled reductions satisfied the per-sample bound; the "
              "lambda_N inequality held on %d prime fixtures" % (samples, lemma_fixtures))


def test_criterion_7_substitution_bounds():
    rng = random.Random(27)
    combos = [(2,), (3,), (5,), (2, 3), (3, 3), (2, 5), (3, 5), (2, 2, 3)]
    trials = 0
    for r in combos:
        ctx = variety_cyclotomic(r)
        assert ctx.N <= 8
        total = sum(
            math.prod(a**ri for a, ri in zip(point, r)) for point in ctx.points
        )
        assert abs(total - ctx.N) < 1e-9
        for j in itertools.product(*(range(1, ri) for ri in r)):
            s = sum(
                math.prod(a**ji for a, ji in zip(point, j)) for point in ctx.points
            )
            assert abs(s) <= 1 + 1e-9
        for _ in range(150):
            f = random_polynomial(rng, len(r), max_deg=4, max_coeff=20, max_terms=6)
            ms = max_substitution(f, ctx)
            mc = max_coefficient(f, ctx)
            assert mc <= ctx.N * ms + 1e-9
            assert ms <= ctx.N * mc + 1e-9
            trials += 1
    assert trials >= 1000
    report(7, "%d random elements over %d root systems satisfied both N-factor "
              "bounds; side sums matched N and stayed within 1" % (trials, len(combos)))


def test_criterion_8_hash_pigeonhole_and_handoff():
    ideal = Ideal([P("x^2+x+1", 1)], 1)
    params = HashParams(p=17, ideal=ideal, order=LEX, d=1, m=5, eta=2.0)
    rng = random.Random(28)
    for seed in range(20):
        key = keygen(params, seed)
        alpha, beta = find_collision_bruteforce(key)
        assert verify_collision(key, alpha, beta)
        q = key.ring()
        z = [a - b for a, b in zip(alpha, beta)]
        assert any(not zi.is_zero for zi in z)
        for zi in z:
            assert inf_norm(zi) <= 2 * params.d
        acc = Polynomial.zero(1, 17)
        for ai, zi in zip(key.a, z):
            acc = acc + quotient_mul(ai, Polynomial(zi.coeffs, 1, 17), q)
        assert normal_form(acc, q.gb).is_zero
    key = keygen(params, 99)
    q = key.ring()
    for _ in range(1000):
        b = tuple(
            Polynomial({(0,): rng.randint(-1, 1), (1,): rng.randint(-1, 1)}, 1)
            for _ in range(5)
        )
        c = tuple(
            Polynomial({(0,): rng.randint(-1, 1), (1,): rng.randint(-1, 1)}, 1)
            for _ in range(5)
        )
        lhs = normal_form(digest(key, b) + digest(key, c), q.gb)
        s = tuple(x + y for x, y in zip(b, c))
        acc = Polynomial.zero(1, 17)
        for ai, si in zip(key.a, s):
            acc = acc + quotient_mul(ai, Polynomial(si.coeffs, 1, 17), q)
        assert lhs == normal_form(acc, q.gb)
    report(8, "20 seeded keys produced verified collisions with the z-handoff "
              "contract; linearity held on 1000 random pairs")


def test_criterion_9_collision_harness_contract():
    ideal = Ideal([P("x^2+x+1", 1)], 1)
    q = build_quotient(ideal, LEX)
    params = HashParams(p=17, ideal=ideal, order=LEX, d=1, m=3, eta=2.0)
    oracle = collision_oracle(HashKey(params=params, a=()), budget=10**6)
    gens = [P("x-1", 1)]
    g = P("12*x-12", 1)
    lat = ideal_to_lattice(q, gens)
    target = norm_mod(g, q) // 2
    small = 0
    for seed in range(100):
        h = incspp_via_collisions(q, gens, g, oracle, seed, 17, 1, 3, 2.0)
        assert h.is_zero or lat.contains(coordinates(h, q))
        if not h.is_zero and norm_mod(h, q) <= target:
            small += 1
    assert small > 0
    report(9, "100 seeded runs all returned ideal members; %d/100 met the "
              "half-norm target (positive fraction)" % small)


def test_criterion_10_two_gamma_reduction():
    def enumerate_lambda1(lat, box=6):
        # independent minimum: fresh exhaustive loop over HNF coefficients
        basis = lat.hnf
        best = None
        for coeff in itertools.product(range(-box, box + 1), repeat=len(basis)):
            if not any(coeff):
                continue
            v = [0] * lat.ambient_dim
            for c, row in zip(coeff, basis):
                if c:
                    v = [a + c * b for a, b in zip(v, row)]
            if any(v):
                norm = max(abs(x) for x in v)
                best = norm if best is None else min(best, norm)
        return best

    def oracle(qa, gens):
        return spp_bruteforce(qa, gens, gamma=1, box=8)

    fixtures = {
        (2,): ["x-1", "x+1", "2", "3*x+1"],
        (3,): ["x-1", "x+2", "2", "x^2-1"],
    }
    checked = 0
    for r, gens_list in fixtures.items():
        q = build_quotient(Ideal([P("x^%d-1" % r[0], 1)], 1), LEX)
        for text in gens_list:
            gens = [P(text, 1)]
            out = cyclic_to_cyclotomic(oracle, q, gens)
            lat = ideal_to_lattice(q, gens)
            lam1 = enumerate_lambda1(lat)
            assert not out.is_zero
            assert lat.contains(coordinates(out, q))
            assert norm_mod(out, q) <= 2 * lam1
            checked += 1
    report(10, "%d reductions through the exact cyclotomic oracle stayed within "
               "twice the independently enumerated minimum" % checked)


def test_criterion_11_cli_determinism(tmp_path):
    ideal_file = tmp_path / "ideal.json"
    ideal_file.write_text(
        json.dumps(
            {
                "nvars": 2,
                "modulus": None,
                "generators": [
                    {"nvars": 2, "modulus": None, "terms": [{"e": [2, 0], "c": "3"}]},
                    {"nvars": 2, "modulus": None, "terms": [{"e": [2, 0], "c": "5"}]},
                    {"nvars": 2, "modulus": None, "terms": [{"e": [0, 1], "c": "1"}]},
                ],
            }
        )
    )
    lat_file = tmp_path / "L.json"
    lat_file.write_text(json.dumps([[3, 1, 0], [0, 2, 5], [1, 1, 1]]))
    params_file = tmp_path / "hp.json"
    params_file.write_text(
        json.dumps(
            {
                "p": "17",
                "d": "1",
                "m": "5",
                "eta": "2",
                "order": "lex",
                "ideal": {
                    "nvars": 1,
                    "modulus": None,
                    "generators": [
                        {
                            "nvars": 1,
                            "modulus": None,
                            "terms": [
                                {"e": [2], "c": "1"},
                                {"e": [1], "c": "1"},
                                {"e": [0], "c": "1"},
                            ],
                        }
                    ],
                },
            }
        )
    )

    def run(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "ideallat.cli", *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    fixed = [
        ("groebner", "--ideal", str(ideal_file), "--short"),
        ("quotient", "--ideal", str(ideal_file)),
        ("hardness", "expansion", "--ideal", str(ideal_file), "--k", "1,1",
         "--samples", "300", "--seed", "7"),
        ("hash", "keygen", "--params", str(params_file), "--seed", "7"),
    ]
    for argv in fixed:
        assert run(*argv) == run(*argv)
    per_thread = {
        run("lattice", "minima", "--lattice", str(lat_file), "--k", "3", "--box", "3",
            "--threads", t)
        for t in ("1", "4")
    }
    assert len(per_thread) == 1
    report(11, "stdout byte-identical across reruns and thread counts {1, 4}")
