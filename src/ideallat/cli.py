"""Command-line entry point.

One subcommand per module; stdout carries exactly one JSON document on
success and diagnostics go to stderr.  Exit codes: 0 success, 1 usage,
3 budget exceeded, 2 any other library error (domain, validation, parse
or arity).  Identical argv and seed give byte-identical stdout.

Each process runs one command, so the module level imports only what every
command needs (errors, poly, groebner, jsonio); each handler imports the
modules its verb uses (quotient, lattice, cyclic, hardness, hashing).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, jsonio
from .errors import DomainError, IdealLatError, ParseError, ResourceError
from .groebner import buchberger, short_reduce
from .poly import format_monomial, format_polynomial, parse_polynomial


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Usage(message)


def _int_list(text):
    return tuple(int(x) for x in text.split(","))


def _budget(text):
    value = float(text)
    if not (math.isfinite(value) and value >= 1):
        raise argparse.ArgumentTypeError("must be a finite number at least 1, got %s" % text)
    return int(value)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _build_parser():
    top = _Parser(prog="ideallat", description=__doc__)
    top.add_argument("--version", action="version", version="ideallat %s" % __version__)
    sub = top.add_subparsers(dest="command", required=True)
    ideal_args = argparse.ArgumentParser(add_help=False)
    ideal_args.add_argument("--ideal", required=True)
    ideal_args.add_argument("--order", default="lex")

    g = sub.add_parser("groebner", parents=[ideal_args], help="strong Groebner basis of an ideal")
    g.add_argument("--short", action="store_true", help="emit the short reduced basis")
    g.add_argument("--budget", type=_budget, default=10**6)

    q = sub.add_parser("quotient", help="module structure of the quotient ring")
    qsub = q.add_subparsers(dest="verb", required=True)
    qsub.add_parser("info", parents=[ideal_args])
    qp = qsub.add_parser("phi", parents=[ideal_args])
    qp.add_argument("--poly", required=True)

    l = sub.add_parser("lattice", help="lattice extraction and successive minima")
    lsub = l.add_subparsers(dest="verb", required=True)
    le = lsub.add_parser("extract", parents=[ideal_args])
    le.add_argument("--A", required=True, dest="a_gens")
    lm = lsub.add_parser("minima")
    lm.add_argument("--lattice", required=True)
    lm.add_argument("--k", type=int, required=True)
    lm.add_argument("--box", type=int, default=None)
    lm.add_argument("--budget", type=_budget, default=None)
    lm.add_argument("--threads", type=_positive_int, default=1)

    c = sub.add_parser("cyclic", help="tensor shifts and shift-closure checks")
    csub = c.add_subparsers(dest="verb", required=True)
    cc = csub.add_parser("check")
    cc.add_argument("--lattice", required=True)
    cc.add_argument("--shape", type=_int_list, required=True)
    cs = csub.add_parser("shift")
    cs.add_argument("--tensor", required=True)
    cs.add_argument("--axis", type=int, required=True)

    h = sub.add_parser("hardness", help="norms, expansion factor and oracles")
    hsub = h.add_subparsers(dest="verb", required=True)
    he = hsub.add_parser("expansion", parents=[ideal_args])
    he.add_argument("--k", type=_int_list, required=True)
    he.add_argument("--samples", type=int, default=10000)
    he.add_argument("--seed", type=int, required=True)
    he.add_argument("--coeff-bound", type=int, default=1)
    hs = hsub.add_parser("spp", parents=[ideal_args])
    hs.add_argument("--A", required=True, dest="a_gens")
    hs.add_argument("--gamma", type=float, default=1)
    hs.add_argument("--box", type=int, default=None)
    hs.add_argument("--budget", type=_budget, default=None)
    hm = hsub.add_parser("maxsub")
    hm.add_argument("--r", type=_int_list, required=True)
    hm.add_argument("--poly", required=True)
    ha = hsub.add_parser("algo1")
    ha.add_argument("--params", required=True)
    ha.add_argument("--seed", type=int, required=True)
    ha.add_argument("--budget", type=_budget, default=10**6)

    hh = sub.add_parser("hash", help="the collision-resistant hash family")
    hhsub = hh.add_subparsers(dest="verb", required=True)
    hk = hhsub.add_parser("keygen")
    hk.add_argument("--params", required=True)
    hk.add_argument("--seed", type=int, required=True)
    hk.add_argument("-o", "--out", default=None)
    hk.add_argument("--strict", action="store_true")
    hd = hhsub.add_parser("digest")
    hd.add_argument("--key", required=True)
    hd.add_argument("--in", required=True, dest="infile")
    hc = hhsub.add_parser("collide")
    hc.add_argument("--key", required=True)
    hc.add_argument("--budget", type=_budget, default=10**6)
    return top


def _load_ideal(args):
    return jsonio.ideal_from_obj(jsonio.load_json(args.ideal)), jsonio.order_from_str(args.order)


def _load_quotient(args):
    from .quotient import build_quotient

    return build_quotient(*_load_ideal(args))


def _cmd_groebner(args):
    ideal, order = _load_ideal(args)
    # representations are not printed, so they are not tracked
    gb = buchberger(ideal, order, pair_budget=args.budget, track=False)
    if args.short:
        gb = short_reduce(gb)
    return {
        "order": jsonio.order_to_str(order),
        "elements": [format_polynomial(g) for g in gb.elements],
        "monic": gb.is_monic,
    }


def _cmd_quotient(args):
    from .quotient import coordinates

    q = _load_quotient(args)
    if args.verb == "info":
        return {
            "N": jsonio.int_str(q.N),
            "free": q.free,
            "basis": [format_monomial(e, q.nvars) for e in q.basis],
            "monic": q.gb.is_monic,
        }
    f = parse_polynomial(args.poly, q.nvars, q.modulus)
    return {"vector": [jsonio.int_str(x) for x in coordinates(f, q)]}


def _cmd_lattice(args):
    if args.verb == "extract":
        from .lattice import ideal_to_lattice

        q = _load_quotient(args)
        gens = jsonio.polys_from_obj(jsonio.load_json(args.a_gens), q.nvars, q.modulus, "--A")
        lat = ideal_to_lattice(q, gens)
        return {"hnf": jsonio.matrix_to_obj(lat.hnf), "rank": jsonio.int_str(lat.rank)}
    from .lattice import DEFAULT_ENUM_BUDGET, IntegerLattice, minima_bruteforce

    rows = jsonio.matrix_from_obj(jsonio.load_json(args.lattice))
    lat = IntegerLattice(rows)
    report = minima_bruteforce(
        lat, args.k, box=args.box, budget=args.budget or DEFAULT_ENUM_BUDGET, threads=args.threads
    )
    return {
        "lambdas": [jsonio.int_str(v) for v in report.lambdas],
        "witnesses": jsonio.matrix_to_obj(report.witnesses),
        "search_bound": jsonio.int_str(report.search_bound),
    }


def _cmd_cyclic(args):
    if args.verb == "check":
        from .cyclic import is_multivariate_cyclic
        from .lattice import IntegerLattice

        rows = jsonio.matrix_from_obj(jsonio.load_json(args.lattice))
        lat = IntegerLattice(rows, ambient_dim=math.prod(args.shape))
        return {"cyclic": is_multivariate_cyclic(lat, args.shape)}
    from .cyclic import Tensor, cyclic_shift

    obj = jsonio.load_json(args.tensor)
    try:
        shape = tuple(int(x) for x in obj["shape"])
        data = tuple(int(x) for x in obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed tensor object: %s" % exc) from exc
    out = cyclic_shift(Tensor(shape=shape, data=data), args.axis)
    return {
        "shape": list(out.shape),
        "data": [jsonio.int_str(x) for x in out.data],
    }


def _cmd_hardness(args):
    if args.verb == "expansion":
        from .hardness import expansion_factor

        q = _load_quotient(args)
        report = expansion_factor(
            q,
            args.k,
            samples=args.samples,
            rng_seed=args.seed,
            coeff_bound=args.coeff_bound,
        )
        return {
            "k": list(report.k_tuple),
            "estimate_num": jsonio.int_str(report.estimate.numerator),
            "estimate_den": jsonio.int_str(report.estimate.denominator),
            "estimate": jsonio.real_str(report.estimate),
            "witness": format_polynomial(report.witness),
            "theorem_bound": jsonio.int_str(report.theorem_bound),
            "k_measured": jsonio.int_str(report.k_measured),
            "samples": jsonio.int_str(report.samples),
            "exhaustive": report.exhaustive,
        }
    if args.verb == "spp":
        from .hardness import norm_mod, spp_bruteforce
        from .lattice import DEFAULT_ENUM_BUDGET

        q = _load_quotient(args)
        gens = jsonio.polys_from_obj(jsonio.load_json(args.a_gens), q.nvars, q.modulus, "--A")
        budget = args.budget or DEFAULT_ENUM_BUDGET
        g = spp_bruteforce(q, gens, gamma=args.gamma, box=args.box, budget=budget)
        return {"element": format_polynomial(g), "norm": jsonio.int_str(norm_mod(g, q))}
    if args.verb == "maxsub":
        from .hardness import max_coefficient, max_substitution, variety_cyclotomic

        ctx = variety_cyclotomic(args.r)
        f = parse_polynomial(args.poly, len(args.r))
        return {
            "maxsub": jsonio.real_str(max_substitution(f, ctx)),
            "maxcoeff": jsonio.int_str(max_coefficient(f, ctx)),
            "N": jsonio.int_str(ctx.N),
            "t": jsonio.real_str(ctx.t),
        }
    return _cmd_algo1(args)


def _cmd_algo1(args):
    from .hardness import gaussian_width, incspp_via_collisions, norm_mod
    from .hashing import HashKey, check_ranges, collision_oracle
    from .quotient import build_quotient

    obj = jsonio.load_json(args.params)
    params = check_ranges(jsonio.params_from_obj(obj))
    try:
        g_obj, a_obj = obj["g"], obj["A"]
    except KeyError as exc:
        raise ParseError("malformed algo1 parameter object: %s" % exc) from exc
    ideal = params.ideal
    q = build_quotient(ideal, params.order)
    gens = jsonio.polys_from_obj(a_obj, ideal.nvars, ideal.modulus, '"A"')
    g = jsonio.poly_from_obj(g_obj, ideal.nvars, ideal.modulus)
    oracle_fn = collision_oracle(HashKey(params=params, a=()), budget=args.budget)
    p, d, m, eta = params.p, params.d, params.m, params.eta
    h = incspp_via_collisions(q, gens, g, oracle_fn, args.seed, p, d, m, eta)
    return {
        "h": format_polynomial(h),
        "h_norm": jsonio.int_str(norm_mod(h, q)),
        "g_norm": jsonio.int_str(norm_mod(g, q)),
        "member": True,
        "gaussian_width": jsonio.real_str(gaussian_width(g, q.N, d, m, eta)),
    }


def _cmd_hash(args):
    if args.verb == "keygen":
        from .hashing import keygen

        params = jsonio.params_from_obj(jsonio.load_json(args.params))
        obj = jsonio.key_to_obj(keygen(params, args.seed, strict=args.strict))
        if args.out:
            try:
                with open(args.out, "w") as fh:
                    fh.write(jsonio.dumps(obj) + "\n")
            except OSError as exc:
                raise DomainError("cannot write %s: %s" % (args.out, exc)) from exc
        return obj
    key = jsonio.key_from_obj(jsonio.load_json(args.key))
    if args.verb == "digest":
        from .hashing import digest, encode_bytes
        from .quotient import coordinates

        try:
            with open(args.infile, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise DomainError("cannot read %s: %s" % (args.infile, exc)) from exc
        q = key.ring()
        tup = encode_bytes(data, key.params, q)
        out = digest(key, tup)
        return {
            "digest": format_polynomial(out),
            "vector": [jsonio.int_str(x) for x in coordinates(out, q)],
        }
    from .hashing import find_collision_bruteforce, verify_collision

    alpha, beta = find_collision_bruteforce(key, budget=args.budget)
    return {
        "alpha": [format_polynomial(f) for f in alpha],
        "beta": [format_polynomial(f) for f in beta],
        "valid": verify_collision(key, alpha, beta),
    }


_HANDLERS = {
    "groebner": _cmd_groebner,
    "quotient": _cmd_quotient,
    "lattice": _cmd_lattice,
    "cyclic": _cmd_cyclic,
    "hardness": _cmd_hardness,
    "hash": _cmd_hash,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # bare `quotient --ideal ...` means `quotient info`
    if argv and argv[0] == "quotient" and (len(argv) == 1 or argv[1].startswith("-")):
        if "--help" not in argv and "-h" not in argv:
            argv.insert(1, "info")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _Usage as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 1
    try:
        result = _HANDLERS[args.command](args)
    except ResourceError as exc:
        print("resource error: %s" % exc, file=sys.stderr)
        return 3
    except IdealLatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(jsonio.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
