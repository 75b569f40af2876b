"""Multivariate ideal lattices: Groebner bases over the integers,
quotient-ring module structure, lattice extraction, cyclic shifts,
desk-scale hardness oracles and the associated hash family.

The public names below are resolved lazily (PEP 562): ``import ideallat``
loads no submodule, and the first access to a name imports the module that
defines it, so a process pays only for the modules its work uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cyclic": ("Tensor", "cyclic_shift", "element_of", "is_multivariate_cyclic", "tensor_of"),
    "errors": (
        "ArityError",
        "DegenerateCollisionError",
        "DomainError",
        "IdealLatError",
        "InfeasibleError",
        "InfiniteDimensionError",
        "NumericDegeneracyError",
        "ParseError",
        "RepresentationError",
        "ResourceError",
        "ValidationError",
    ),
    "groebner": (
        "GroebnerBasis",
        "Ideal",
        "buchberger",
        "ideal_membership",
        "normal_form",
        "short_reduce",
    ),
    "hardness": (
        "ExpansionReport",
        "VarietyContext",
        "cyclic_to_cyclotomic",
        "cyclotomic_sum_ideal",
        "expansion_factor",
        "incspp_step",
        "incspp_via_collisions",
        "max_coefficient",
        "max_substitution",
        "norm_mod",
        "primality_certificate",
        "spp_bruteforce",
        "ssub_bruteforce",
        "variety_cyclotomic",
    ),
    "hashing": (
        "HashKey",
        "HashParams",
        "digest",
        "find_collision_bruteforce",
        "keygen",
        "validate",
        "verify_collision",
    ),
    "lattice": (
        "IntegerLattice",
        "MinimaReport",
        "hnf",
        "ideal_to_lattice",
        "is_full_rank_ideal",
        "is_saturated",
        "minima_bruteforce",
        "snf",
    ),
    "poly": (
        "MonomialOrder",
        "Polynomial",
        "format_polynomial",
        "inf_norm",
        "leading_data",
        "maxdeg",
        "parse_polynomial",
    ),
    "quotient": (
        "QuotientRing",
        "build_quotient",
        "coordinates",
        "from_coordinates",
        "lattice_ideal",
        "multiplication_matrix",
        "quotient_mul",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError("module %r has no attribute %r" % (__name__, name)) from None
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
