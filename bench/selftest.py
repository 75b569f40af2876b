"""Tests of the benchmark's own checkers and tracer.

    python3 -m pytest -q bench/selftest.py

Each checker must accept ideallat's answer and reject a deliberately wrong
one.  The file is named so that the repository's own test run does not
collect it.
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import ring  # noqa: E402
import tracer  # noqa: E402
import ideallat  # noqa: E402
from ideallat import MonomialOrder, Polynomial, parse_polynomial  # noqa: E402

LEX = MonomialOrder("lex")


def as_dict(f):
    return dict(f.coeffs)


def test_sampler_copy_matches_acceptance_corpus():
    sys.path.insert(0, str(HERE.parent / "tests"))
    from conftest import random_ideal

    rng = random.Random(inputs.CORPUS_SEED)
    ours = inputs.corpus_ideals()
    kept = 0
    for draw in range(len(ours) + len(inputs.CORPUS_OVER_BUDGET)):
        ideal = random_ideal(rng)
        if draw in inputs.CORPUS_OVER_BUDGET:
            continue
        assert (ideal.nvars, [as_dict(g) for g in ideal.generators]) == ours[kept]
        kept += 1
    assert kept == inputs.CORPUS_SIZE


@pytest.mark.parametrize("spec", [[("neg", 8)], [("neg", 4), ("neg", 2)], [("cyc", 3), ("cyc", 2)], [("sum", 5)], [("sum", 3), ("sum", 3)]])
def test_ring_products_match_the_quotient(spec):
    rng = random.Random(1)
    n = len(spec)
    gens = []
    for i, (kind, r) in enumerate(spec):
        e = [0] * n
        e[i] = r if kind != "sum" else r - 1
        coeffs = {tuple(e): 1}
        if kind == "sum":
            for j in range(r - 1):
                e[i] = j
                coeffs[tuple(e)] = 1
        else:
            coeffs[(0,) * n] = 1 if kind == "neg" else -1
        gens.append(Polynomial(coeffs, n))
    q = ideallat.build_quotient(ideallat.Ideal(gens, n), LEX)
    for _ in range(10):
        f = {tuple(rng.randint(0, 5) for _ in range(n)): rng.randint(-9, 9) for _ in range(4)}
        g = {tuple(rng.randint(0, 5) for _ in range(n)): rng.randint(-9, 9) for _ in range(4)}
        want = ideallat.quotient_mul(Polynomial(f, n), Polynomial(g, n), q)
        assert ring.mul(f, g, spec) == as_dict(want)


def test_independent_hnf_matches_the_program():
    rng = random.Random(2)
    for _ in range(200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        if m > 2 and rng.random() < 0.4:
            rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
        if not any(any(r) for r in rows):
            continue
        H = ideallat.hnf(rows)
        assert checks.lattice_hnf(rows, n) == H
        assert checks.same_lattice(H, rows) == []


def _digest_case():
    params = ideallat.HashParams(
        p=257, ideal=ideallat.Ideal([parse_polynomial("x^8+1", 1)], 1), order=LEX, d=8, m=3, eta=1.0
    )
    key = ideallat.keygen(params, 5)
    rng = random.Random(3)
    b = [{(j,): rng.randint(-8, 8) for j in range(8)} for _ in range(3)]
    out = ideallat.digest(key, tuple(Polynomial(bi, 1) for bi in b))
    conv = checks.Convolver((8,), 257)
    return conv, [as_dict(a) for a in key.a], b, inputs.poly_to_json(as_dict(out))


def test_digest_check_rejects_one_changed_coefficient():
    conv, key, b, digest = _digest_case()
    assert checks.check_digest(conv, key, b, digest) == []
    wrong = [[e, c] for e, c in digest]
    wrong[3][1] = (wrong[3][1] + 1) % 257
    assert checks.check_digest(conv, key, b, wrong)


def test_extract_check_rejects_an_hnf_missing_a_row():
    shape = (3, 5)
    gen = {(i, j): (3 * i + j) % 7 - 3 for i in range(3) for j in range(5)}
    q = ideallat.build_quotient(
        ideallat.Ideal([parse_polynomial("x^3-1", 2), parse_polynomial("y^5-1", 2)], 2), LEX
    )
    lat = ideallat.ideal_to_lattice(q, [Polynomial(gen, 2)])
    out = {"hnf": lat.hnf, "snf": lat.snf_factors}
    assert checks.check_extract(shape, gen, out) == []
    assert checks.check_extract(shape, gen, {"hnf": lat.hnf[:-1], "snf": lat.snf_factors[:-1]})
    assert checks.check_extract(shape, gen, {"hnf": lat.hnf[1:], "snf": lat.snf_factors[1:]})


def _corpus_record(ideal):
    gb = ideallat.short_reduce(ideallat.buchberger(ideal, LEX))
    q = ideallat.quotient.quotient_from_basis(gb)
    rec = {"kind": "quotient", "free": q.free, "N": q.N, "monic": gb.is_monic,
           "basis": [list(e) for e in q.basis],
           "elements": [inputs.poly_to_json(as_dict(g)) for g in gb.elements],
           "reps": [[inputs.poly_to_json(as_dict(h)) for h in rep] for rep in gb.representations]}
    spec = {"nvars": ideal.nvars, "gens": [inputs.poly_to_json(as_dict(g)) for g in ideal.generators]}
    return spec, rec


def test_corpus_check_rejects_a_basis_missing_an_element():
    ideal = ideallat.Ideal([parse_polynomial(t, 2) for t in ("3*x^2", "5*x^2", "y")], 2)
    spec, rec = _corpus_record(ideal)
    assert checks.check_corpus_record(spec, rec) == []
    short = dict(rec, elements=rec["elements"][1:], reps=rec["reps"][1:])
    assert checks.check_corpus_record(spec, short)


def test_corpus_check_rejects_a_wrong_freeness_claim():
    ideal = ideallat.Ideal([parse_polynomial(t, 1) for t in ("2*x", "x^2-3")], 1)
    spec, rec = _corpus_record(ideal)
    assert checks.check_corpus_record(spec, rec) == []
    assert checks.check_corpus_record(spec, dict(rec, free=not rec["free"]))


def test_collision_check_rejects_different_digests():
    params = ideallat.HashParams(
        p=17, ideal=ideallat.Ideal([parse_polynomial("x^2+x+1", 1)], 1), order=LEX, d=1, m=5, eta=2.0
    )
    key = ideallat.keygen(params, 7)
    alpha, beta = ideallat.find_collision_bruteforce(key)
    a = [as_dict(f) for f in key.a]
    alpha, beta = [as_dict(f) for f in alpha], [as_dict(f) for f in beta]
    assert checks.check_collision(a, 17, 1, alpha, beta) == []
    changed = [dict(f) for f in beta]
    changed[0][(0,)] = 1 if changed[0].get((0,), 0) != 1 else -1
    assert checks.check_collision(a, 17, 1, alpha, changed)


def test_minima_check_rejects_lambdas_above_the_row_bound():
    m = {"rows": inputs.MINIMA_ROWS, "k": 3}
    good = {"lambdas": [7, 7, 7], "witnesses": inputs.MINIMA_ROWS[:3]}
    assert checks.check_minima(m, good) == []
    rep = ideallat.minima_bruteforce(ideallat.IntegerLattice(inputs.MINIMA_ROWS), 3, box=3)
    found = checks.check_minima(m, {"lambdas": rep.lambdas, "witnesses": rep.witnesses})
    assert found and "norm 7" in found[-1]


def test_spp_check_rejects_a_longer_answer():
    gen = {(0,): 2, (1,): -1, (3,): 1}
    q = ideallat.build_quotient(ideallat.cyclotomic_sum_ideal((5,)), LEX)
    f = ideallat.spp_bruteforce(q, [Polynomial(gen, 1)], box=2)
    assert checks.check_spp([5], gen, 2, {"element": inputs.poly_to_json(as_dict(f))}) == []
    longer = ring.reduce(ring.mul(as_dict(f), {(0,): 2}, [("sum", 5)]), [("sum", 5)])
    assert checks.check_spp([5], gen, 2, {"element": inputs.poly_to_json(longer)})


def test_layer_metrics_use_self_time_and_pair_counts():
    spans = [
        ["groebner.buchberger", 0.0, 10.0, -1, 0, None],
        ["groebner.pair", 1.0, 2.0, 0, 0, None],
        ["groebner.reduce_full", 2.0, 5.0, 0, 0, (7, True)],
        ["groebner.pair", 5.0, 6.0, 0, 0, None],
        ["groebner.reduce_full", 6.0, 7.0, 0, 0, (3, False)],
        ["groebner.reduce_full", 20.0, 21.0, -1, 1, (4, True)],
    ]
    m = tracer.layer_metrics(spans, {"cli.import_s": 0.2, "cli.startup_s": 0.1})
    assert m["groebner.buchberger_s"]["value"] == pytest.approx(4.0)
    assert m["groebner.reduce_full_s"]["value"] == pytest.approx(5.0)
    assert m["groebner.pairs_reduced"]["value"] == 2
    assert m["groebner.zero_reductions"]["value"] == 1
    assert m["groebner.useful_pair_ratio"]["value"] == 0.5
    assert m["groebner.reduce_steps"]["value"] == 14
    assert [k for k in m] == [name for name, _ in tracer.METRICS]


def test_benchmark_json_lists_the_tracer_metrics():
    import json

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.METRICS


def test_calibration_keeps_its_share_and_scales_inversely():
    meter = calibrate.Meter()
    meter.after(0.05)
    assert meter.units >= 1 and meter.seconds >= calibrate.SHARE * 0.05
    units = meter.units
    meter.after(0.0)  # already at its share: no more units
    assert meter.units == units
    meter = calibrate.Meter(lambda: 2 * calibrate.REF_UNIT_S)
    meter.run(3)
    assert meter.speed == pytest.approx(0.5)
