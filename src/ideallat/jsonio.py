"""JSON serialization shared by the CLI and the key files.

Integers travel as decimal strings so arbitrary precision survives every
JSON parser; reals are rendered with 17 significant digits.  ``dumps`` is
canonical (sorted keys, no whitespace), which makes identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json

from .errors import DomainError, ParseError
from .groebner import Ideal
from .poly import MonomialOrder, Polynomial, _is_prime, parse_polynomial


def int_str(v):
    return str(int(v))


def real_str(v):
    return format(float(v), ".17g")


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def poly_to_obj(f):
    return {
        "nvars": f.nvars,
        "modulus": None if f.modulus is None else int_str(f.modulus),
        "terms": [
            {"e": list(e), "c": int_str(c)}
            for e, c in sorted(f.coeffs.items(), reverse=True)
        ],
    }


def _prime_modulus(value):
    """``value`` as a modulus, checked to be prime before any arithmetic."""
    try:
        p = int(value)
    except (TypeError, ValueError) as exc:
        raise ParseError("malformed modulus %r" % (value,)) from exc
    if not _is_prime(p):
        raise DomainError("modulus %d is not prime" % p)
    return p


def _modulus_from_obj(obj):
    mod = obj.get("modulus")
    return None if mod is None else _prime_modulus(mod)


def poly_from_obj(obj, nvars=None, modulus=None):
    if isinstance(obj, str):
        if nvars is None:
            raise ParseError("polynomial text needs a variable count")
        return parse_polynomial(obj, nvars, modulus)
    try:
        nv = int(obj["nvars"])
        mod = _modulus_from_obj(obj)
        coeffs = {tuple(t["e"]): int(t["c"]) for t in obj["terms"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed polynomial object: %s" % exc) from exc
    return Polynomial(coeffs, nv, mod)


def polys_from_obj(obj, nvars, modulus, name):
    """A list of polynomials, or an object holding one under "generators";
    ``name`` says where the list came from in the error."""
    if isinstance(obj, dict):
        obj = obj.get("generators", obj)
    if not isinstance(obj, list):
        raise ParseError("expected a list of polynomials for %s" % name)
    return [poly_from_obj(g, nvars, modulus) for g in obj]


def order_to_str(order):
    if order.priority is None:
        return order.kind
    return "%s:%s" % (order.kind, ",".join(str(i + 1) for i in order.priority))


def order_from_str(text):
    if ":" in text:
        kind, perm = text.split(":", 1)
        try:
            priority = tuple(int(x) - 1 for x in perm.split(","))
        except ValueError as exc:
            raise ParseError("malformed monomial order %r" % (text,)) from exc
        return MonomialOrder(kind, priority)
    return MonomialOrder(text)


def ideal_to_obj(ideal):
    return {
        "nvars": ideal.nvars,
        "modulus": None if ideal.modulus is None else int_str(ideal.modulus),
        "generators": [poly_to_obj(g) for g in ideal.generators],
    }


def ideal_from_obj(obj):
    try:
        nv = int(obj["nvars"])
        mod = _modulus_from_obj(obj)
        gens = [poly_from_obj(g, nv, mod) for g in obj["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed ideal object: %s" % exc) from exc
    return Ideal(gens, nv, mod)


def matrix_to_obj(rows):
    return [[int_str(x) for x in row] for row in rows]


def matrix_from_obj(obj):
    try:
        return [[int(x) for x in row] for row in obj]
    except (TypeError, ValueError) as exc:
        raise ParseError("malformed integer matrix: %s" % exc) from exc


def key_to_obj(key):
    p = key.params
    return {
        "p": int_str(p.p),
        "ideal": ideal_to_obj(p.ideal),
        "order": order_to_str(p.order),
        "d": int_str(p.d),
        "m": int_str(p.m),
        "eta": real_str(p.eta),
        "a": [poly_to_obj(ai) for ai in key.a],
    }


def key_from_obj(obj):
    from .hashing import HashKey, HashParams

    try:
        params = HashParams(
            p=_prime_modulus(obj["p"]),
            ideal=ideal_from_obj(obj["ideal"]),
            order=order_from_str(obj["order"]),
            d=int(obj["d"]),
            m=int(obj["m"]),
            eta=float(obj["eta"]),
        )
        a = tuple(poly_from_obj(ai) for ai in obj["a"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed key object: %s" % exc) from exc
    if len(a) != params.m:
        raise ParseError('malformed key object: "a" has %d entries but m = %d' % (len(a), params.m))
    return HashKey(params=params, a=a)


def params_from_obj(obj):
    from .hashing import HashParams

    try:
        return HashParams(
            p=int(obj["p"]),
            ideal=ideal_from_obj(obj["ideal"]),
            order=order_from_str(obj.get("order", "lex")),
            d=int(obj["d"]),
            m=int(obj["m"]),
            eta=float(obj["eta"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("malformed parameter object: %s" % exc) from exc


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("%s is not valid JSON: %s" % (path, exc)) from exc
