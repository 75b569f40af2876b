"""Seeded inputs for every workload, made without importing ideallat.

A polynomial is a dict from exponent tuples to nonzero ints; on disk it is
a list of ``[exponents, coefficient]`` pairs.  The same seed always gives
the same inputs.
"""

import itertools
import random

import ring

CORPUS_SEED = 987654
CORPUS_SIZE = 200
# Draws of the seed-987654 sampler that exceed the 1,500-pair budget of the
# acceptance corpus; the acceptance suite resamples them, so they are left
# out here as well.  Finding them costs about 34 s, so the list is pinned.
CORPUS_OVER_BUDGET = (39, 47, 50, 70, 86, 115)
PAIR_BUDGET = 1500
STEP_BUDGET = 20_000

HASH_P = 12289
HASH_D = 8
HASH_M = 4
# ℤ[x]/<x^32+1> and its two-variable analogue ℤ[x,y]/<x^8+1, y^4+1>, N = 32.
HASH_RINGS = ((32,), (8, 4))

EXTRACT_SHAPES = ((3, 5), (5, 7), (7, 11))
SPP_CASES = (((5,), 2), ((3, 3), 2), ((2, 5), 2), ((7,), 2))
SSUB_CASES = (((5,), 2), ((3, 3), 2), ((2, 5), 2), ((7,), 1))
C2C_FIXTURES = {2: ("x-1", "x+1", "2", "3*x+1"), 3: ("x-1", "x+2", "2", "x^2-1")}
C2C_ORACLE_BOX = 8
# (kind, exponents, k): criterion-6 fixtures; kind "cyc" is <x_i^r_i - 1>,
# "sum" the cyclotomic sum 1 + x + ... + x^(r-1).
EXPANSION_FIXTURES = (
    ("cyc", (2,), (2,)),
    ("cyc", (3,), (2,)),
    ("sum", (3,), (2,)),
    ("sum", (5,), (2,)),
    ("cyc", (2, 2), (2, 2)),
)
EXPANSION_SAMPLES = 2000
INCSPP_RUNS = 5
MINIMA_ROWS = [
    [7, 1, 0, 0, 0],
    [1, 7, 1, 0, 0],
    [0, 1, 7, 1, 0],
    [0, 0, 1, 7, 1],
    [0, 0, 0, 1, 7],
]
MINIMA_K = 3
MINIMA_BOX = 3
# every row of MINIMA_ROWS has infinity norm 7 and the rows are independent
MINIMA_BOUND = 7


def poly_to_json(f):
    return [[list(e), c] for e, c in sorted(f.items(), reverse=True)]


def poly_from_json(terms):
    return {tuple(e): c for e, c in terms}


def clean(f):
    return {e: c for e, c in f.items() if c}


# ---------------------------------------------------------------------------
# corpus: the acceptance sampler of tests/conftest.py, draw for draw


def _monomials_up_to(nvars, total_degree):
    return [
        e
        for e in itertools.product(range(total_degree + 1), repeat=nvars)
        if sum(e) <= total_degree
    ]


def _random_polynomial(rng, nvars, max_deg=3, max_coeff=9, max_terms=4):
    monos = _monomials_up_to(nvars, max_deg)
    while True:
        coeffs = {}
        for _ in range(rng.randint(1, max_terms)):
            e = rng.choice(monos)
            c = rng.randint(-max_coeff, max_coeff)
            coeffs[e] = coeffs.get(e, 0) + c
        f = clean(coeffs)
        if f:
            return f


def _random_ideal(rng):
    nvars = rng.randint(1, 3)
    gens = [_random_polynomial(rng, nvars) for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        i = rng.randrange(nvars)
        r = rng.randint(1, 3)
        c = rng.choice([-1, 1, rng.randint(-9, 9) or 1])
        e = [0] * nvars
        e[i] = r
        gens[rng.randrange(len(gens))] = {tuple(e): 1, (0,) * nvars: -c}
    return nvars, gens


def corpus_ideals():
    """The 200 ideals the acceptance corpus keeps, as (nvars, generators)."""
    rng = random.Random(CORPUS_SEED)
    out = []
    draw = 0
    while len(out) < CORPUS_SIZE:
        ideal = _random_ideal(rng)
        if draw not in CORPUS_OVER_BUDGET:
            out.append(ideal)
        draw += 1
    return out


def corpus_inputs(seed):
    """The fixed corpus; the seed only sets the order of each pass."""
    ideals = corpus_ideals()
    order = list(range(len(ideals)))
    random.Random(seed).shuffle(order)
    return {
        "ideals": [
            {"nvars": nv, "gens": [poly_to_json(g) for g in gens]} for nv, gens in ideals
        ],
        "order": order,
        "pair_budget": PAIR_BUDGET,
        "step_budget": STEP_BUDGET,
    }


# ---------------------------------------------------------------------------
# hash


def hash_tuple(rng, shape):
    """One domain tuple: m elements with coefficients uniform in [-d, d]."""
    return [
        poly_to_json(
            clean(
                {
                    e: rng.randint(-HASH_D, HASH_D)
                    for e in itertools.product(*(range(r) for r in shape))
                }
            )
        )
        for _ in range(HASH_M)
    ]


def hash_inputs(seed):
    return {
        "p": HASH_P,
        "d": HASH_D,
        "m": HASH_M,
        "rings": [list(s) for s in HASH_RINGS],
        "key_seeds": [seed * 2 + 1, seed * 2 + 2],
        "tuple_seed": seed,
    }


# ---------------------------------------------------------------------------
# oracles


def _dense(rng, shape, bound):
    while True:
        f = clean(
            {
                e: rng.randint(-bound, bound)
                for e in itertools.product(*(range(r) for r in shape))
            }
        )
        if f:
            return f


def oracles_inputs(seed):
    rng = random.Random(seed)
    extract = [
        {"shape": list(shape), "gen": poly_to_json(_dense(rng, shape, 4))}
        for shape in EXTRACT_SHAPES
    ]
    # elements of the cyclotomic-sum ring: exponents below r_i - 1
    spp = [
        {"r": list(r), "box": box, "gen": poly_to_json(_dense(rng, [x - 1 for x in r], 3))}
        for r, box in SPP_CASES
    ]
    ssub = [
        {"r": list(r), "box": box, "gen": poly_to_json(_dense(rng, [x - 1 for x in r], 3))}
        for r, box in SSUB_CASES
    ]
    c2c = [{"r": r, "gen": text} for r, texts in C2C_FIXTURES.items() for text in texts]
    expansion = [
        {"kind": kind, "r": list(r), "k": list(k), "rng_seed": seed * 10 + i}
        for i, (kind, r, k) in enumerate(EXPANSION_FIXTURES)
    ]
    return {
        "extract": extract,
        "spp": spp,
        "ssub": ssub,
        "c2c": c2c,
        "c2c_box": C2C_ORACLE_BOX,
        "expansion": expansion,
        "expansion_samples": EXPANSION_SAMPLES,
        "incspp_seeds": [seed * INCSPP_RUNS + i for i in range(INCSPP_RUNS)],
        "minima": {"rows": MINIMA_ROWS, "k": MINIMA_K, "box": MINIMA_BOX},
    }


# ---------------------------------------------------------------------------
# cli fixtures


def _ideal_obj(nvars, gens):
    return {
        "nvars": nvars,
        "modulus": None,
        "generators": [
            {
                "nvars": nvars,
                "modulus": None,
                "terms": [{"e": list(e), "c": str(c)} for e, c in sorted(g.items(), reverse=True)],
            }
            for g in gens
        ],
    }


def _pure(nvars, i, r, c):
    """x_i^r + c."""
    e = [0] * nvars
    e[i] = r
    return clean({tuple(e): 1, (0,) * nvars: c})


def poly_text(f):
    """The CLI's polynomial grammar, for up to three variables."""
    names = "xyz"
    parts = []
    for e, c in sorted(f.items(), reverse=True):
        mono = "*".join(
            names[i] if k == 1 else "%s^%d" % (names[i], k) for i, k in enumerate(e) if k
        )
        parts.append("%+d%s" % (c, "*" + mono if mono else ""))
    return "".join(parts)


def cli_inputs(seed):
    """Fixture objects keyed by file name, and the command lines of one round.

    An argument ``@name`` names a fixture file; the runner turns it into a path.
    """
    rng = random.Random(seed)
    shape = (3, 5)
    cyc = _ideal_obj(2, [_pure(2, 0, 3, -1), _pure(2, 1, 5, -1)])
    a, b, c = (rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(3))
    groebner = _ideal_obj(2, [_pure(2, 0, 3, -1), _pure(2, 1, 2, -1), clean({(1, 0): a, (0, 1): b, (0, 0): c})])
    gen = _dense(rng, shape, 4)
    lattice = [[rng.randint(-3, 3) + (6 if i == j else 0) for j in range(3)] for i in range(3)]
    tensor = [rng.randint(-9, 9) for _ in range(15)]
    phi_poly = clean({(rng.randint(0, 6), rng.randint(0, 8)): rng.randint(-9, 9) for _ in range(6)}) or {(0, 0): 1}
    maxsub_poly = clean({(rng.randint(0, 4), rng.randint(0, 6)): rng.randint(-9, 9) for _ in range(5)}) or {(0, 0): 1}
    spp_gen = _dense(rng, (4,), 3)
    digest_bytes = bytes(rng.randrange(256) for _ in range(12))
    files = {
        "groebner.json": groebner,
        "cyclic.json": cyc,
        "A.json": [_ideal_obj(2, [gen])["generators"][0]],
        "minima.json": lattice,
        "shift_rows.json": ring.ideal_rows([gen], [("cyc", r) for r in shape]),
        "tensor.json": {"shape": list(shape), "data": [str(x) for x in tensor]},
        "expansion.json": _ideal_obj(1, [{(2,): 1, (1,): 1, (0,): 1}]),
        "sum5.json": _ideal_obj(1, [{(4,): 1, (3,): 1, (2,): 1, (1,): 1, (0,): 1}]),
        "A5.json": [_ideal_obj(1, [spp_gen])["generators"][0]],
        "algo1.json": {
            "ideal": _ideal_obj(1, [{(2,): 1, (1,): 1, (0,): 1}]),
            "p": "17", "d": "1", "m": "3", "eta": "2",
            "g": {"nvars": 1, "modulus": None, "terms": [{"e": [1], "c": "12"}, {"e": [0], "c": "-12"}]},
            "A": [{"nvars": 1, "modulus": None, "terms": [{"e": [1], "c": "1"}, {"e": [0], "c": "-1"}]}],
        },
        "digest_params.json": {
            "p": "257", "d": "8", "m": "3", "eta": "1",
            "ideal": _ideal_obj(1, [{(8,): 1, (0,): 1}]),
        },
        "collide_params.json": {
            "p": "17", "d": "1", "m": "5", "eta": "2",
            "ideal": _ideal_obj(1, [{(2,): 1, (1,): 1, (0,): 1}]),
        },
    }
    key_seeds = {"digest_key.json": seed * 2 + 1, "collide_key.json": seed * 2 + 2}
    commands = [
        ["groebner", "--ideal", "@groebner.json", "--short"],
        ["quotient", "info", "--ideal", "@cyclic.json"],
        ["quotient", "phi", "--ideal", "@cyclic.json", "--poly=" + poly_text(phi_poly)],
        ["lattice", "extract", "--ideal", "@cyclic.json", "--A", "@A.json"],
        ["lattice", "minima", "--lattice", "@minima.json", "--k", "3", "--box", "2"],
        ["cyclic", "check", "--lattice", "@shift_rows.json", "--shape", "3,5"],
        ["cyclic", "shift", "--tensor", "@tensor.json", "--axis", str(1 + seed % 2)],
        ["hardness", "expansion", "--ideal", "@expansion.json", "--k", "2",
         "--samples", "300", "--seed", str(seed)],
        ["hardness", "spp", "--ideal", "@sum5.json", "--A", "@A5.json", "--box", "2"],
        ["hardness", "maxsub", "--r", "3,5", "--poly=" + poly_text(maxsub_poly)],
        ["hardness", "algo1", "--params", "@algo1.json", "--seed", str(seed)],
        ["hash", "keygen", "--params", "@digest_params.json", "--seed", str(seed)],
        ["hash", "digest", "--key", "@digest_key.json", "--in", "@digest.bin"],
        ["hash", "collide", "--key", "@collide_key.json"],
    ]
    return {
        "files": files,
        "digest_bytes": list(digest_bytes),
        "key_seeds": key_seeds,
        "commands": commands,
        "shift_gen": poly_to_json(gen),
        "shape": list(shape),
        "phi_poly": poly_to_json(phi_poly),
        "maxsub_poly": poly_to_json(maxsub_poly),
        "spp_gen": poly_to_json(spp_gen),
    }


MAKERS = {
    "corpus": corpus_inputs,
    "hash": hash_inputs,
    "oracles": oracles_inputs,
    "cli": cli_inputs,
}
