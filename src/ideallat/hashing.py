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
from operator import add, mul

from .errors import DomainError, ResourceError, ValidationError
from .groebner import Ideal
from .poly import MonomialOrder, Polynomial, _is_prime
from .quotient import build_quotient, from_coordinates, multiplication_matrix, residue


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
    # the N columns of the stacked matrix [M_{a_1}; ...; M_{a_m}] (residues
    # mod p), so that each digest coordinate is one dot product; never serialised
    columns: list = field(default=None, repr=False, compare=False)

    def ring(self):
        if self.quotient is None:
            self.quotient = build_quotient(self.params.lifted_ideal(), self.params.order)
        return self.quotient

    def stacked_columns(self):
        # checked here, not at construction: HashKey(params, a=()) holds params
        if len(self.a) != self.params.m:
            raise DomainError("key has %d elements but m = %d" % (len(self.a), self.params.m))
        if self.columns is None:
            q = self.ring()
            stacked = [row for ai in self.a for row in multiplication_matrix(ai, q)]
            self.columns = list(zip(*stacked))
        return self.columns


def validate(params, strict=False):
    """Check every named invariant; returns params with N filled in.

    Violations are collected and reported together, each with both sides
    of the failed inequality evaluated.
    """
    _checked_quotient(params, strict)
    return params


def check_ranges(params):
    """Raise ValidationError unless p is prime, d >= 1, m >= 1 and eta is
    finite and positive: the ranges every use of the parameters needs,
    without ``validate``'s collision-richness bound or quotient."""
    violations = _range_violations(params)[1]
    if violations:
        raise ValidationError(violations)
    return params


def _range_violations(params):
    """(whether p is prime, the messages of the failed range checks)."""
    prime = _is_prime(params.p)
    violations = [] if prime else ["modulus: p = %d is not prime" % params.p]
    if params.d < 1:
        violations.append("domain bound: d = %d but log(2d) needs d >= 1" % params.d)
    if params.m < 1:
        violations.append("key length: m = %d must be positive" % params.m)
    if not (math.isfinite(params.eta) and params.eta > 0):
        violations.append("expansion bound: eta = %r must be finite and positive" % params.eta)
    return prime, violations


def _checked_quotient(params, strict):
    """The checks of ``validate``; fills in params.N and returns the quotient."""
    prime, violations = _range_violations(params)
    in_range = not violations
    if params.d >= 1 and params.m >= 1 and prime:
        richness = math.log(params.p) / math.log(2 * params.d)
        if not params.m > richness:
            violations.append(
                "collision richness: m = %d is not greater than log p/log 2d = %.6g"
                % (params.m, richness)
            )
    q = None
    if prime:
        q = build_quotient(params.lifted_ideal(), params.order)
        if not q.free:
            violations.append("ring: quotient mod p is not free")
        if params.N is not None and params.N != q.N:
            violations.append(
                "dimension: declared N = %d but the quotient has dimension %d"
                % (params.N, q.N)
            )
    if strict and in_range:
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
    return _domain_coords(key, f) is not None


def _domain_coords(key, f):
    """Coordinates of f mod (I, p) on the standard monomials, or None when
    the centered residue norm exceeds d.

    Standard monomials are irreducible, so an f supported on them is its
    own normal form; only other entries are reduced.  The coordinates are
    congruent mod p to the residues, not reduced into [0, p).
    """
    q = key.ring()
    p = key.params.p
    if f.modulus != p and f.modulus is not None:
        raise DomainError("tuple entry has a foreign modulus")
    coeffs = f.coeffs
    if not coeffs.keys() <= q.basis_set:
        coeffs = residue(Polynomial._trusted(coeffs, f.nvars, p), q).coeffs
    # the centered residue of c lies in [-d, d] iff (c + d) mod p <= 2d,
    # which holds for every c once 2d >= p - 1 and for none once d < 0
    d = key.params.d
    if max(map(p.__rmod__, map(d.__add__, coeffs.values())), default=d) > 2 * d:
        return None
    return list(map(coeffs.get, q.basis, itertools.repeat(0, len(q.basis))))


def _key_product(key, b, vec):
    """Coordinates in [0, p) of sum a_i * b_i, given ``vec``, the
    concatenated coordinates of the entries of the tuple b."""
    columns = key.stacked_columns()
    for ai, bi in zip(key.a, b):
        if ai.nvars != bi.nvars:
            ai._check_compat(bi)  # the ArityError of the product a_i * b_i
    p = key.params.p
    return [sum(map(mul, vec, col)) % p for col in columns]


def digest(key, b):
    """Hash of a domain tuple: sum of a_i * b_i in the ring.

    The stacked key matrix [M_{a_1}; ...; M_{a_m}] maps the m*N
    coordinates of the tuple to the N of the digest: one dot product mod p
    per column.
    """
    q = key.ring()
    if len(b) != key.params.m:
        raise DomainError("expected a tuple of %d elements" % key.params.m)
    vec = []
    for i, bi in enumerate(b):
        coords = _domain_coords(key, bi)
        if coords is None:
            raise DomainError("tuple entry %d lies outside the domain bound d = %d" % (i, key.params.d))
        vec += coords
    out = _key_product(key, b, vec)
    return Polynomial._trusted(dict(zip(q.basis, out)), q.nvars, key.params.p)


def verify_collision(key, alpha, beta):
    """True iff alpha != beta, both lie in the domain, and digests agree."""
    if len(alpha) != key.params.m or len(beta) != key.params.m:
        return False
    if all(a == b for a, b in zip(alpha, beta)):
        return False
    vec = []
    for f in itertools.chain(alpha, beta):
        coords = _domain_coords(key, f)
        if coords is None:
            return False
        vec += coords
    half = len(vec) // 2
    return _key_product(key, alpha, vec[:half]) == _key_product(key, beta, vec[half:])


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
    # multiplication-by-a_i tables over the small domain make each digest a
    # sum; block i of the stacked columns is the matrix of a_i
    singles = list(itertools.product(range(-params.d, params.d + 1), repeat=q.N))
    columns = key.stacked_columns()
    tables = []
    for i in range(len(key.a)):
        block = [col[i * q.N : (i + 1) * q.N] for col in columns]
        tables.append({c: tuple(sum(map(mul, c, x)) % params.p for x in block) for c in singles})
    # the sum over the first m - 1 entries is formed once per head and
    # shared by every last entry: one vector add per tuple
    p, seen = params.p, {}
    if tables:
        *head_tables, last = tables
        for head in itertools.product(singles, repeat=len(head_tables)):
            base = [0] * q.N
            for table, coords in zip(head_tables, head):
                base = list(map(add, base, table[coords]))
            for coords, part in last.items():
                sig = tuple([(a + b) % p for a, b in zip(base, part)])
                tup = head + (coords,)
                if sig in seen:
                    return _tuple_to_polys(seen[sig], q), _tuple_to_polys(tup, q)
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
