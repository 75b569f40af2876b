"""Per-layer tracing from outside the program.

``install`` rebinds ideallat's layer functions, in every ideallat module
namespace that holds them, to wrappers that record a span per call: name,
start, end, parent span and operation id.  Spans stay in memory until the
run ends.  ``layer_metrics`` turns them into the per-layer metrics, using
self times: a span's duration minus that of its direct children.
"""

import sys
import time

# name, unit; the order is the order of the report
METRICS = [
    ("groebner.pairs_reduced", "count"),
    ("groebner.zero_reductions", "count"),
    ("groebner.useful_pair_ratio", "ratio"),
    ("groebner.reduce_steps", "count"),
    ("groebner.reduce_full_s", "s"),
    ("groebner.buchberger_s", "s"),
    ("groebner.short_reduce_s", "s"),
    ("quotient.build_quotient_calls", "count"),
    ("quotient.build_quotient_s", "s"),
    ("quotient.quotient_mul_calls", "count"),
    ("quotient.quotient_mul_s", "s"),
    ("quotient.coordinates_calls", "count"),
    ("quotient.coordinates_s", "s"),
    ("lattice.ideal_to_lattice_s", "s"),
    ("lattice.hnf_calls", "count"),
    ("lattice.hnf_s", "s"),
    ("lattice.snf_s", "s"),
    ("lattice.enum_combinations", "count"),
    ("lattice.enum_s", "s"),
    ("hardness.expansion_samples", "count"),
    ("hardness.expansion_s", "s"),
    ("hardness.spp_s", "s"),
    ("hardness.ssub_s", "s"),
    ("hardness.incspp_s", "s"),
    ("hashing.digest_calls", "count"),
    ("hashing.digest_s", "s"),
    ("hashing.in_domain_s", "s"),
    ("hashing.collision_s", "s"),
    ("hashing.keygen_s", "s"),
    ("hashing.validate_calls", "count"),
    ("cli.import_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.handler_s", "s"),
    ("jsonio.load_s", "s"),
    ("jsonio.dumps_s", "s"),
]

# counters that must repeat exactly between two traced runs of one seed
EXACT_COUNTERS = [
    "groebner.pairs_reduced",
    "groebner.zero_reductions",
    "groebner.reduce_steps",
    "lattice.enum_combinations",
    "hardness.expansion_samples",
    "quotient.build_quotient_calls",
    "quotient.quotient_mul_calls",
    "hashing.digest_calls",
]

NAME, START, END, PARENT, OP, NOTE = range(6)


class Tracer:
    """Span store.  Records only while ``active``; ``op`` tags new spans."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.active = False
        self.op = None
        self.last_lattice = None

    def wrap(self, name, fn, note=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer.stack.pop()
            if note is not None:
                span[NOTE] = note(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _combinations(basis, box):
    """(2*box+1)^rank, with ideallat's default box: the largest HNF entry."""
    if not basis:
        return 0
    if box is None:
        box = max(max(abs(x) for x in row) for row in basis)
    return (2 * int(box) + 1) ** len(basis)


def _note_reduce(tracer, result, args, kwargs):
    return (result[2], result[0].is_zero)


def _note_lattice(tracer, result, args, kwargs):
    tracer.last_lattice = result
    return None


def _note_shortest(tracer, result, args, kwargs):
    return _combinations(args[0].hnf, _arg(args, kwargs, 1, "box", None))


def _note_minima(tracer, result, args, kwargs):
    return _combinations(args[0].hnf, _arg(args, kwargs, 2, "box", None))


def _note_coset(tracer, result, args, kwargs):
    return _combinations(args[1].hnf, _arg(args, kwargs, 2, "box", 4))


def _note_ssub(tracer, result, args, kwargs):
    # the ideal lattice ssub_bruteforce enumerates is the last one it built
    return _combinations(tracer.last_lattice.hnf, _arg(args, kwargs, 2, "box", 3))


def _note_expansion(tracer, result, args, kwargs):
    return result.samples


# module, function, span name, note
TRACED = [
    ("groebner", "buchberger", "groebner.buchberger", None),
    ("groebner", "short_reduce", "groebner.short_reduce", None),
    ("groebner", "reduce_full", "groebner.reduce_full", _note_reduce),
    ("groebner", "s_polynomial", "groebner.pair", None),
    ("groebner", "g_polynomial", "groebner.pair", None),
    ("quotient", "build_quotient", "quotient.build_quotient", None),
    ("quotient", "quotient_mul", "quotient.quotient_mul", None),
    ("quotient", "coordinates", "quotient.coordinates", None),
    ("lattice", "ideal_to_lattice", "lattice.ideal_to_lattice", _note_lattice),
    ("lattice", "hnf_with_transform", "lattice.hnf", None),
    ("lattice", "snf", "lattice.snf", None),
    ("lattice", "shortest_nonzero", "lattice.enum", _note_shortest),
    ("lattice", "minima_bruteforce", "lattice.enum", _note_minima),
    ("hardness", "_closest_in_coset", "lattice.enum", _note_coset),
    ("hardness", "expansion_factor", "hardness.expansion", _note_expansion),
    ("hardness", "spp_bruteforce", "hardness.spp", None),
    ("hardness", "ssub_bruteforce", "hardness.ssub", _note_ssub),
    ("hardness", "incspp_via_collisions", "hardness.incspp", None),
    ("hashing", "digest", "hashing.digest", None),
    ("hashing", "in_domain", "hashing.in_domain", None),
    ("hashing", "find_collision_bruteforce", "hashing.collision", None),
    ("hashing", "keygen", "hashing.keygen", None),
    ("hashing", "validate", "hashing.validate", None),
    ("jsonio", "load_json", "jsonio.load", None),
    ("jsonio", "dumps", "jsonio.dumps", None),
    ("cli", "main", "cli.handler", None),
]


def install(tracer):
    """Rebind every traced function wherever an ideallat module holds it."""
    import importlib

    for mod_name, _, _, _ in TRACED:
        importlib.import_module("ideallat." + mod_name)
    modules = [m for n, m in list(sys.modules.items()) if n == "ideallat" or n.startswith("ideallat.")]
    for mod_name, fn_name, span_name, note in TRACED:
        original = getattr(sys.modules["ideallat." + mod_name], fn_name)
        wrapper = tracer.wrap(span_name, original, note)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def layer_metrics(spans, probes):
    """Per-layer metrics from spans; ``probes`` gives cli.import_s and cli.startup_s."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    calls = {}
    self_s = {}
    for i, s in enumerate(spans):
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + (s[END] - s[START] - child[i])

    pairs = zero = nonzero = steps = combos = samples = 0
    for s in spans:
        in_buchberger = s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "groebner.buchberger"
        if s[NAME] == "groebner.pair" and in_buchberger:
            pairs += 1
        elif s[NAME] == "groebner.reduce_full":
            steps += s[NOTE][0]
            if in_buchberger:
                zero += s[NOTE][1]
                nonzero += not s[NOTE][1]
        elif s[NAME] in ("lattice.enum", "hardness.ssub"):
            combos += s[NOTE]
        elif s[NAME] == "hardness.expansion":
            samples += s[NOTE]

    values = {
        "groebner.pairs_reduced": pairs,
        "groebner.zero_reductions": zero,
        "groebner.useful_pair_ratio": nonzero / pairs if pairs else 0.0,
        "groebner.reduce_steps": steps,
        "lattice.enum_combinations": combos,
        "hardness.expansion_samples": samples,
        "cli.import_s": probes["cli.import_s"],
        "cli.startup_s": probes["cli.startup_s"],
    }
    for metric, unit in METRICS:
        if metric in values:
            continue
        layer, _, what = metric.rpartition("_")
        if what == "calls":
            values[metric] = calls.get(layer, 0)
        else:
            values[metric] = self_s.get(layer, 0.0)
    return {m: {"value": values[m], "unit": u} for m, u in METRICS}
