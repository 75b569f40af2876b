"""The program side of a benchmark run.

One fresh process that imports ideallat from the source tree, does the
workload's set-up, then runs whole rounds of operations one at a time in a
closed loop and writes every output to a JSON-lines file.  It never checks
anything: checking happens in the parent, after this process has ended, so
the checker's imports and work do not count towards this process's time
or memory.

    python3 bench/worker.py --workload W --inputs FILE --out FILE --src DIR
        --mode setup|run [--seconds S] [--trace-rounds R] [--trace-file FILE]

``--mode setup`` stops after set-up.  With ``--trace-rounds`` the run is
traced and does exactly that many rounds, so its counters repeat exactly;
otherwise it does rounds until the operations have taken ``--seconds``.
The process also times calibration units (see calibrate.py) between
operations, outside any span.
"""

import argparse
import json
import random
import resource
import sys
import time

import calibrate


def terms(f):
    """A polynomial's coefficients as [exponents, coefficient] pairs."""
    return [[list(e), c] for e, c in sorted(f.coeffs.items(), reverse=True)]


def poly(ideallat, obj, nvars, modulus=None):
    return ideallat.Polynomial({tuple(e): c for e, c in obj}, nvars, modulus)


# ---------------------------------------------------------------------------
# corpus: one operation completes one ideal and builds its quotient data


def corpus_setup(ideallat, inputs):
    return {
        "ideals": [
            ideallat.Ideal([poly(ideallat, g, d["nvars"]) for g in d["gens"]], d["nvars"])
            for d in inputs["ideals"]
        ],
        "order": ideallat.MonomialOrder("lex"),
        "seen": set(),
    }


def _basis_record(gb):
    return {
        "elements": [terms(g) for g in gb.elements],
        "reps": [[terms(h) for h in rep] for rep in gb.representations],
    }


def corpus_round(ideallat, state, inputs):
    from ideallat.quotient import build_quotient

    budget = inputs["pair_budget"]
    for index in inputs["order"]:
        ideal = state["ideals"][index]

        def op(ideal=ideal):
            try:
                return build_quotient(ideal, state["order"], pair_budget=budget)
            except ideallat.InfiniteDimensionError as exc:
                return exc

        def dump(result, index=index, ideal=ideal):
            first = index not in state["seen"]
            state["seen"].add(index)
            if isinstance(result, ideallat.InfiniteDimensionError):
                out = {"ideal": index, "kind": "infinite", "variable": result.variable}
                if first:
                    # the error carries no basis; recompute it (untimed) as evidence
                    gb = ideallat.short_reduce(
                        ideallat.buchberger(ideal, state["order"], pair_budget=budget)
                    )
                    out.update(_basis_record(gb))
                return out
            out = {
                "ideal": index,
                "kind": "quotient",
                "free": result.free,
                "N": result.N,
                "basis": [list(e) for e in result.basis],
                "monic": result.gb.is_monic,
            }
            out.update(_basis_record(result.gb))
            return out

        yield "corpus", op, dump


# ---------------------------------------------------------------------------
# hash: one operation is one digest; keys alternate


def hash_setup(ideallat, inputs):
    order = ideallat.MonomialOrder("lex")
    keys = []
    for shape, seed in zip(inputs["rings"], inputs["key_seeds"]):
        n = len(shape)
        gens = []
        for i, r in enumerate(shape):
            e = [0] * n
            e[i] = r
            gens.append(ideallat.Polynomial({tuple(e): 1, (0,) * n: 1}, n))
        params = ideallat.HashParams(
            p=inputs["p"], ideal=ideallat.Ideal(gens, n), order=order,
            d=inputs["d"], m=inputs["m"], eta=1.0,
        )
        keys.append(ideallat.keygen(params, seed))
    return {"keys": keys, "rng": random.Random(inputs["tuple_seed"])}


def hash_meta(state):
    return {"keys": [[terms(a) for a in key.a] for key in state["keys"]]}


def hash_round(ideallat, state, inputs):
    import inputs as bench_inputs

    for k, (shape, key) in enumerate(zip(inputs["rings"], state["keys"])):
        raw = bench_inputs.hash_tuple(state["rng"], shape)
        b = tuple(poly(ideallat, t, len(shape)) for t in raw)

        def op(key=key, b=b):
            return ideallat.digest(key, b)

        def dump(result, k=k, raw=raw):
            return {"key": k, "b": raw, "digest": terms(result)}

        yield "digest", op, dump


# ---------------------------------------------------------------------------
# oracles: a fixed mix of hardness-pipeline problems per round


def _ring_ideal(ideallat, kinds, rs):
    n = len(rs)
    gens = []
    for i, (kind, r) in enumerate(zip(kinds, rs)):
        coeffs = {}
        top = r if kind == "cyc" else r - 1
        for j in range(top + 1):
            if kind == "sum" or j in (0, top):
                e = [0] * n
                e[i] = j
                coeffs[tuple(e)] = -1 if (kind == "cyc" and j == 0) else 1
        gens.append(ideallat.Polynomial(coeffs, n))
    return ideallat.Ideal(gens, n)


def oracles_setup(ideallat, inputs):
    from ideallat.hashing import collision_oracle

    order = ideallat.MonomialOrder("lex")

    def quotient(kind, rs):
        return ideallat.build_quotient(_ring_ideal(ideallat, [kind] * len(rs), rs), order)

    hp = ideallat.HashParams(
        p=17, ideal=_ring_ideal(ideallat, ["sum"], [3]), order=order, d=1, m=3, eta=2.0
    )
    return {
        "extract": [quotient("cyc", c["shape"]) for c in inputs["extract"]],
        "spp": [quotient("sum", c["r"]) for c in inputs["spp"]],
        "ssub": [ideallat.variety_cyclotomic(c["r"]) for c in inputs["ssub"]],
        "c2c": {r: quotient("cyc", [r]) for r in (2, 3)},
        "expansion": [quotient(c["kind"], c["r"]) for c in inputs["expansion"]],
        "incspp": ideallat.build_quotient(hp.ideal, order),
        "incspp_oracle": collision_oracle(ideallat.HashKey(params=hp, a=()), budget=10**6),
    }


def oracles_round(ideallat, state, inputs):
    P = ideallat.parse_polynomial
    for q, case in zip(state["extract"], inputs["extract"]):
        g = poly(ideallat, case["gen"], 2)

        def op(q=q, g=g):
            lat = ideallat.ideal_to_lattice(q, [g])
            return lat.hnf, lat.snf_factors

        yield "extract", op, lambda res: {"hnf": res[0], "snf": res[1]}

    for family, fn in (("spp", ideallat.spp_bruteforce), ("ssub", ideallat.ssub_bruteforce)):
        for ring, case in zip(state[family], inputs[family]):
            g = poly(ideallat, case["gen"], len(case["r"]))

            def op(fn=fn, ring=ring, g=g, box=case["box"]):
                return fn(ring, [g], box=box)

            yield family, op, lambda res: {"element": terms(res)}

    def c2c_oracle(qa, gens):
        return ideallat.spp_bruteforce(qa, gens, gamma=1, box=inputs["c2c_box"])

    for case in inputs["c2c"]:
        g = P(case["gen"], 1)

        def op(q=state["c2c"][case["r"]], g=g):
            return ideallat.cyclic_to_cyclotomic(c2c_oracle, q, [g])

        yield "c2c", op, lambda res: {"element": terms(res)}

    for q, case in zip(state["expansion"], inputs["expansion"]):

        def op(q=q, case=case):
            return ideallat.expansion_factor(
                q, case["k"], samples=inputs["expansion_samples"], rng_seed=case["rng_seed"]
            )

        yield "expansion", op, lambda rep: {
            "num": rep.estimate.numerator,
            "den": rep.estimate.denominator,
            "witness": terms(rep.witness),
            "theorem_bound": rep.theorem_bound,
            "k_measured": rep.k_measured,
            "samples": rep.samples,
            "exhaustive": rep.exhaustive,
        }

    gens = [P("x-1", 1)]
    g = P("12*x-12", 1)
    for seed in inputs["incspp_seeds"]:

        def op(seed=seed):
            return ideallat.incspp_via_collisions(
                state["incspp"], gens, g, state["incspp_oracle"], seed, 17, 1, 3, 2.0
            )

        yield "incspp", op, lambda res: {"element": terms(res)}

    m = inputs["minima"]

    def minima_op():
        return ideallat.minima_bruteforce(ideallat.IntegerLattice(m["rows"]), m["k"], box=m["box"])

    yield "minima", minima_op, lambda rep: {"lambdas": rep.lambdas, "witnesses": rep.witnesses}


# ---------------------------------------------------------------------------
# cli: set-up writes the key files; the traced run calls cli.main in-process


def cli_setup(ideallat, inputs, files):
    from ideallat import jsonio

    for name, seed in inputs["key_seeds"].items():
        params_name = name.replace("_key.json", "_params.json")
        params = jsonio.params_from_obj(jsonio.load_json(files[params_name]))
        key = ideallat.keygen(params, seed)
        with open(files[name], "w") as fh:
            fh.write(jsonio.dumps(jsonio.key_to_obj(key)))
            fh.write("\n")
    return {}


def cli_round(ideallat, state, inputs, files):
    import contextlib
    import io

    from ideallat import cli

    for argv in inputs["commands"]:
        argv = [files[a[1:]] if a.startswith("@") else a for a in argv]

        def op(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        yield " ".join(argv[:2]), op, lambda res: {"code": res[0], "stdout": res[1]}


WORKLOADS = {
    "corpus": (corpus_setup, corpus_round, None),
    "hash": (hash_setup, hash_round, hash_meta),
    "oracles": (oracles_setup, oracles_round, None),
    "cli": (cli_setup, cli_round, None),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace-rounds", type=int, default=0)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args()
    with open(args.inputs) as fh:
        inputs = json.load(fh)
    files = inputs.pop("paths", {})
    setup_fn, round_fn, meta_fn = WORKLOADS[args.workload]
    extra = (files,) if args.workload == "cli" else ()
    tracer = None

    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import ideallat

    if args.trace_rounds:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
    state = setup_fn(ideallat, inputs, *extra)
    setup_s = time.perf_counter() - t0
    if tracer:
        tracer.active = False

    with open(args.out, "w") as out:
        head = {"setup_s": setup_s}
        if meta_fn and args.mode == "run":
            head.update(meta_fn(state))
        out.write(json.dumps(head) + "\n")
        if args.mode == "setup":
            return
        meter = calibrate.Meter()
        wall = 0.0  # seconds inside operations
        cpu = 0.0  # CPU seconds of this process inside operations
        rounds = 0
        attempted = 0
        while True:
            for label, op, dump in round_fn(ideallat, state, inputs, *extra):
                if tracer:
                    tracer.op = attempted
                    tracer.active = True
                t, c = time.perf_counter(), time.process_time()
                try:
                    result, error = op(), None
                except Exception as exc:  # a failed operation is reported, not fatal
                    result, error = None, "%s: %s" % (type(exc).__name__, exc)
                cpu += time.process_time() - c
                elapsed = time.perf_counter() - t
                wall += elapsed
                if tracer:
                    tracer.active = False
                meter.after(wall)
                record = {"round": rounds, "op": label, "s": elapsed, "error": error}
                if error is None:
                    record["out"] = dump(result)
                out.write(json.dumps(record) + "\n")
                attempted += 1
            rounds += 1
            if rounds >= args.trace_rounds and (args.trace_rounds or wall >= args.seconds):
                break
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tail = {"end": True, "wall_s": wall, "cpu_s": cpu, "rounds": rounds, "attempted": attempted,
                "peak_rss_mb": peak_kib / 1024.0, "speed": meter.speed}
        if tracer:
            tail["spans"] = len(tracer.spans)
            with open(args.trace_file, "w") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s) + "\n")
        out.write(json.dumps(tail) + "\n")


if __name__ == "__main__":
    main()
