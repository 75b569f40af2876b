"""Multivariate ideal lattices: Groebner bases over the integers,
quotient-ring module structure, lattice extraction, cyclic shifts,
desk-scale hardness oracles and the associated hash family."""

from .cyclic import Tensor, cyclic_shift, element_of, is_multivariate_cyclic, tensor_of
from .errors import (
    ArityError,
    DegenerateCollisionError,
    DomainError,
    IdealLatError,
    InfeasibleError,
    InfiniteDimensionError,
    NumericDegeneracyError,
    ParseError,
    RepresentationError,
    ResourceError,
    ValidationError,
)
from .groebner import (
    GroebnerBasis,
    Ideal,
    buchberger,
    ideal_membership,
    normal_form,
    short_reduce,
)
from .hardness import (
    ExpansionReport,
    VarietyContext,
    cyclic_to_cyclotomic,
    cyclotomic_sum_ideal,
    expansion_factor,
    incspp_step,
    incspp_via_collisions,
    max_coefficient,
    max_substitution,
    norm_mod,
    primality_certificate,
    spp_bruteforce,
    ssub_bruteforce,
    variety_cyclotomic,
)
from .hashing import (
    HashKey,
    HashParams,
    digest,
    find_collision_bruteforce,
    keygen,
    validate,
    verify_collision,
)
from .lattice import (
    IntegerLattice,
    MinimaReport,
    hnf,
    ideal_to_lattice,
    is_full_rank_ideal,
    is_saturated,
    minima_bruteforce,
    snf,
)
from .poly import (
    MonomialOrder,
    Polynomial,
    format_polynomial,
    inf_norm,
    leading_data,
    maxdeg,
    parse_polynomial,
)
from .quotient import (
    QuotientRing,
    build_quotient,
    coordinates,
    from_coordinates,
    lattice_ideal,
    multiplication_matrix,
    quotient_mul,
)

__version__ = "0.1.0"
