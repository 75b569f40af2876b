"""Module structure of Z[x1..xn]/a from a short reduced Groebner basis.

For each monomial the leading-coefficient content (the gcd of basis
leading coefficients whose leading monomial divides it) determines one
factor of the quotient's module decomposition: content 0 gives a free
coordinate, content 1 collapses, anything else is torsion.  The quotient
is free exactly when the short reduced basis is monic, and then the
ordered standard monomials give integer coordinates for every residue.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import DomainError, InfiniteDimensionError, RepresentationError
from .groebner import GroebnerBasis, Ideal, buchberger, normal_form, short_reduce
from .poly import MonomialOrder, Polynomial, leading_data, mono_divides, var_name


@dataclass
class QuotientRing:
    """The quotient ring with its module data.

    ``basis`` lists the free-coordinate monomials ascending under the
    order; this fixes the coordinate system for all lattice extraction and
    must never change.  ``N`` counts free plus torsion module generators.
    For a non-free quotient, coordinates are refused but N and the torsion
    witnesses (monomial -> content) stay available for diagnostics.
    """

    gb: GroebnerBasis
    basis: list
    N: int
    free: bool
    torsion: dict = field(default_factory=dict)
    # variable index -> matrix of multiplication by that variable, filled
    # on first use by ``multiplication_matrix``
    var_matrices: dict = field(default_factory=dict, compare=False, repr=False)
    # ``basis`` as a set, for support tests
    basis_set: frozenset = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.basis_set = frozenset(self.basis)

    @property
    def nvars(self):
        return self.gb.nvars

    @property
    def modulus(self):
        return self.gb.modulus

    def basis_polynomials(self):
        return [
            Polynomial.monomial(e, self.nvars, 1, self.modulus) for e in self.basis
        ]


def build_quotient(ideal, order=None, pair_budget=None):
    """Short reduced basis, standard monomials, dimension and freeness.

    Raises InfiniteDimensionError when some variable has no pure-power
    leading monomials of unit coefficient content, naming the variable.
    """
    order = order or MonomialOrder("lex")
    kwargs = {} if pair_budget is None else {"pair_budget": pair_budget}
    gb = short_reduce(buchberger(ideal, order, **kwargs))
    return quotient_from_basis(gb)


def quotient_from_basis(gb):
    """Assemble the module data for an already short-reduced basis."""
    order = gb.order
    heads = [leading_data(g, order) for g in gb.elements]  # (lc, lm) pairs
    nv = gb.nvars

    # bounding box: along each axis the pure-power contents must reach 1,
    # otherwise infinitely many monomials carry torsion.  Constants are
    # exponent-zero pure powers on every axis.
    constant_content = 0
    for lc, lm in heads:
        if not any(lm):
            constant_content = math.gcd(constant_content, lc)
    bounds = []
    for i in range(nv):
        pures = sorted(
            (lm[i], lc)
            for lc, lm in heads
            if all(lm[j] == 0 for j in range(nv) if j != i) and lm[i] > 0
        )
        running = constant_content
        bound = 0 if running == 1 else None
        if bound is None:
            for exp, lc in pures:
                running = math.gcd(running, lc)
                if running == 1:
                    bound = exp
                    break
        if bound is None:
            raise InfiniteDimensionError(var_name(i, nv))
        bounds.append(bound)

    basis = []
    torsion = {}
    for alpha in itertools.product(*(range(b) for b in bounds)):
        gen = math.gcd(*(lc for lc, lm in heads if mono_divides(lm, alpha)))
        if gen == 1:
            continue
        if gen == 0:
            basis.append(alpha)
        else:
            torsion[alpha] = gen
    basis.sort(key=order.key)
    return QuotientRing(
        gb=gb,
        basis=basis,
        N=len(basis) + len(torsion),
        free=not torsion,
        torsion=torsion,
    )


def residue(f, q):
    """Canonical representative of f in q: its normal form on ``q.gb``.

    A standard monomial has content 0: no leading monomial of the basis
    divides it.  So an f of the ring's modulus supported on the standard
    monomials is its own normal form and is returned as it is.
    """
    if f.modulus == q.modulus and f.coeffs.keys() <= q.basis_set:
        return f
    return normal_form(f, q.gb)


def coordinates(f, q):
    """Integer coordinate vector of f's residue on the standard basis."""
    if not q.free:
        witness = next(iter(q.torsion.items()), None)
        raise RepresentationError(
            "quotient is not free (torsion at %r with content %r); "
            "integer coordinates are unavailable" % witness
        )
    r = residue(f, q)
    extra = r.coeffs.keys() - q.basis_set
    if extra:
        raise DomainError("normal form has support outside the standard basis: %r" % extra)
    return [r.coeffs.get(e, 0) for e in q.basis]


def from_coordinates(vec, q):
    """Inverse of ``coordinates``; accepts any integer vector of length N."""
    if not q.free:
        raise RepresentationError("quotient is not free; coordinates are unavailable")
    if len(vec) != len(q.basis):
        raise DomainError("expected %d coordinates, got %d" % (len(q.basis), len(vec)))
    return Polynomial(
        {e: c for e, c in zip(q.basis, vec)}, q.nvars, q.modulus
    )


def quotient_mul(f, g, q):
    """Product of residues, reduced onto the standard monomials."""
    return residue(f * g, q)


def row_combination(coeffs, rows, acc):
    """acc + sum of c * row over paired coefficients and rows (integer vectors)."""
    for c, row in zip(coeffs, rows):
        if c:
            acc = [a + c * x for a, x in zip(acc, row)]
    return acc


def multiplication_matrix(f, q):
    """N x N integer matrix whose row k is the coordinate vector of f*basis[k].

    Rows are residues mod p when the ring has a modulus.  The standard
    monomials form an order ideal, so basis[k] = x_j*basis[i] for some
    earlier i, and row k is row i times the matrix of multiplication by x_j
    (the Auzinger-Stetter / FGLM view); only the row of the monomial 1
    takes a normal form of f.
    """
    f._check_compat(Polynomial.zero(q.nvars, q.modulus))
    rows = [coordinates(f, q)]
    index = {e: k for k, e in enumerate(q.basis)}
    for e in q.basis[1:]:
        j = next(i for i, x in enumerate(e) if x)
        if j not in q.var_matrices:
            q.var_matrices[j] = [
                coordinates(Polynomial.monomial(b[:j] + (b[j] + 1,) + b[j + 1 :], q.nvars, 1, q.modulus), q)
                for b in q.basis
            ]
        parent = rows[index[e[:j] + (e[j] - 1,) + e[j + 1 :]]]
        row = row_combination(parent, q.var_matrices[j], [0] * q.N)
        rows.append([x % q.modulus for x in row] if q.modulus else row)
    return rows if q.basis else []


def lattice_ideal(lattice_or_rows, modulus=None):
    """Binomial generators x^(v+) - x^(v-) from the rows of a lattice basis."""
    rows = getattr(lattice_or_rows, "gens", lattice_or_rows)
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        raise DomainError("empty lattice basis")
    nv = len(rows[0])
    gens = []
    for v in rows:
        if not any(v):
            raise DomainError("zero basis vector in lattice ideal construction")
        plus = tuple(x if x > 0 else 0 for x in v)
        minus = tuple(-x if x < 0 else 0 for x in v)
        gens.append(
            Polynomial({plus: 1}, nv, modulus) - Polynomial({minus: 1}, nv, modulus)
        )
    return Ideal(gens, nv, modulus)
