"""Collision-resistant hash family on a residue class ring mod p.

Keys are tuples of random ring elements; hashing a domain tuple is the
sum of keywise ring products.  Domain membership is measured on centered
lifts of reduced representatives: mod-p residues near p are small negative
numbers, which is the only reading under which a bound d much smaller
than p means anything.

The brute-force collision finder enumerates domain tuples in
lexicographic order and reports the first repeated digest, so its output
is deterministic: the returned alpha is the lexicographically smallest
tuple with that digest.  Lax parameter validation only checks the
collision-richness bound and is labelled insecure; strict mode enforces
the modulus lower bound as well.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import DomainError, ResourceError, ValidationError
from .groebner import Ideal, normal_form
from .poly import MonomialOrder, Polynomial, _is_prime, inf_norm
from .quotient import build_quotient, from_coordinates, multiplication_matrix, row_combination


@dataclass
class HashParams:
    """Ring, domain bound, key length and expansion bound for one family."""

    p: int
    ideal: Ideal            # over Z; lifted to Z_p internally
    order: MonomialOrder
    d: int
    m: int
    eta: float
    N: int | None = None

    def lifted_ideal(self):
        gens = [
            Polynomial(g.coeffs, g.nvars, self.p) for g in self.ideal.generators
        ]
        return Ideal(gens, self.ideal.nvars, self.p)


@dataclass
class HashKey:
    params: HashParams
    a: tuple
    quotient: object = field(default=None, repr=False)
    # M_{a_i}, the multiplication matrices of the key elements; never serialised
    matrices: list = field(default=None, repr=False, compare=False)

    def ring(self):
        if self.quotient is None:
            self.quotient = build_quotient(self.params.lifted_ideal(), self.params.order)
        return self.quotient

    def mul_matrices(self):
        if self.matrices is None:
            self.matrices = [multiplication_matrix(ai, self.ring()) for ai in self.a]
        return self.matrices


def validate(params, strict=False):
    """Check every named invariant; returns params with N filled in.

    Violations are collected and reported together, each with both sides
    of the failed inequality evaluated.
    """
    _checked_quotient(params, strict)
    return params


def _checked_quotient(params, strict):
    """The checks of ``validate``; fills in params.N and returns the quotient."""
    violations = []
    if not _is_prime(params.p):
        violations.append("modulus: p = %d is not prime" % params.p)
    if params.d < 1:
        violations.append("domain bound: d = %d but log(2d) needs d >= 1" % params.d)
    if params.m < 1:
        violations.append("key length: m = %d must be positive" % params.m)
    if params.d >= 1 and params.m >= 1 and _is_prime(params.p):
        richness = math.log(params.p) / math.log(2 * params.d)
        if not params.m > richness:
            violations.append(
                "collision richness: m = %d is not greater than log p/log 2d = %.6g"
                % (params.m, richness)
            )
    q = None
    if _is_prime(params.p):
        q = build_quotient(params.lifted_ideal(), params.order)
        if not q.free:
            violations.append("ring: quotient mod p is not free")
        if params.N is not None and params.N != q.N:
            violations.append(
                "dimension: declared N = %d but the quotient has dimension %d"
                % (params.N, q.N)
            )
    if strict and q is not None:
        bound = 8 * params.eta * params.d * params.m * q.N**1.5 * math.sqrt(math.log(q.N))
        if not params.p >= bound:
            violations.append(
                "strict modulus bound: p = %d below 8*eta*d*m*N^1.5*sqrt(log N) = %.6g"
                % (params.p, bound)
            )
    if violations:
        raise ValidationError(violations)
    params.N = q.N
    return q


def keygen(params, seed, strict=False):
    """Key of m ring elements with coordinates uniform in [0, p), after the
    checks of ``validate`` in the given mode."""
    import random

    q = _checked_quotient(params, strict)
    rng = random.Random(seed)
    a = []
    for _ in range(params.m):
        coords = [rng.randrange(params.p) for _ in range(q.N)]
        a.append(from_coordinates(coords, q))
    return HashKey(params=params, a=tuple(a), quotient=q)


def in_domain(key, f):
    """Membership in D: centered residue norm at most d."""
    return _domain_residue(key, f) is not None


def _domain_residue(key, f):
    """Normal form of f in the key's ring mod p, or None outside D."""
    q = key.ring()
    r = normal_form(_lift_mod_p(f, key.params.p), q.gb)
    return r if inf_norm(r.centered_lift()) <= key.params.d else None


def digest(key, b):
    """Hash of a domain tuple: sum of a_i * b_i in the ring, computed as
    the sum of coords(b_i) * M_{a_i} mod p."""
    q = key.ring()
    if len(b) != key.params.m:
        raise DomainError("expected a tuple of %d elements" % key.params.m)
    residues = []
    for i, bi in enumerate(b):
        residues.append(_domain_residue(key, bi))
        if residues[-1] is None:
            raise DomainError("tuple entry %d lies outside the domain bound d = %d" % (i, key.params.d))
    return _digest_of_residues(key, q, residues)


def _digest_of_residues(key, q, residues):
    """``digest`` of a tuple whose entries are already reduced into D."""
    acc = [0] * q.N
    for ai, r, mat in zip(key.a, residues, key.mul_matrices()):
        ai._check_compat(r)  # the ArityError of the product a_i * b_i
        acc = row_combination([r.coeffs.get(e, 0) for e in q.basis], mat, acc)
    return from_coordinates([a % key.params.p for a in acc], q)


def _lift_mod_p(f, p):
    if f.modulus == p:
        return f
    if f.modulus is not None:
        raise DomainError("tuple entry has a foreign modulus")
    return Polynomial(f.coeffs, f.nvars, p)


def verify_collision(key, alpha, beta):
    """True iff alpha != beta, both lie in the domain, and digests agree."""
    if len(alpha) != key.params.m or len(beta) != key.params.m:
        return False
    if all(a == b for a, b in zip(alpha, beta)):
        return False
    residues = []
    for f in itertools.chain(alpha, beta):
        residues.append(_domain_residue(key, f))
        if residues[-1] is None:
            return False
    q, m = key.ring(), key.params.m
    return _digest_of_residues(key, q, residues[:m]) == _digest_of_residues(key, q, residues[m:])


def find_collision_bruteforce(key, budget=10**6):
    """First collision in lexicographic enumeration order of D^m.

    Guaranteed to exist when (2d+1)^(N*m) exceeds p^N; raises when the
    domain is smaller than the range and the sweep finishes empty-handed.
    """
    q = key.ring()
    params = key.params
    total = (2 * params.d + 1) ** (q.N * params.m)
    if total > budget:
        raise ResourceError(
            "domain of size %d exceeds the enumeration budget %d" % (total, budget)
        )
    # multiplication-by-a_i tables over the small domain make each digest a sum
    singles = list(itertools.product(range(-params.d, params.d + 1), repeat=q.N))
    tables = [
        {c: tuple(a % params.p for a in row_combination(c, mat, [0] * q.N)) for c in singles}
        for mat in key.mul_matrices()
    ]
    seen = {}
    for tup in itertools.product(singles, repeat=params.m):
        vec = [0] * q.N
        for i, coords in enumerate(tup):
            part = tables[i][coords]
            vec = [(a + b) % params.p for a, b in zip(vec, part)]
        sig = tuple(vec)
        if sig in seen:
            alpha = _tuple_to_polys(seen[sig], q)
            beta = _tuple_to_polys(tup, q)
            return alpha, beta
        seen[sig] = tup
    raise DomainError("no collision found: the domain does not exceed the range")


def _tuple_to_polys(tup, q):
    return tuple(Polynomial(dict(zip(q.basis, coords)), q.nvars, None) for coords in tup)


def collision_oracle(key, budget=10**6):
    """Oracle closure for the reduction harness: key polys in, centered
    collision tuples out."""

    def oracle(a_polys):
        probe = HashKey(params=key.params, a=tuple(a_polys), quotient=key.ring())
        return find_collision_bruteforce(probe, budget=budget)

    return oracle


def encode_bytes(data, params, q):
    """Bytes to a domain tuple: base-(2d+1) digits, centered, little-endian
    over the basis monomials.  Desk-scale container format, no security claim."""
    base = 2 * params.d + 1
    capacity = q.N * params.m
    value = int.from_bytes(data, "little")
    digits = []
    while value:
        value, r = divmod(value, base)
        digits.append(r - params.d)
    if len(digits) > capacity:
        raise DomainError(
            "input needs %d base-%d digits but the parameters hold %d"
            % (len(digits), base, capacity)
        )
    digits += [0] * (capacity - len(digits))
    return _tuple_to_polys([digits[i * q.N : (i + 1) * q.N] for i in range(params.m)], q)
