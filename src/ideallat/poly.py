"""Sparse multivariate polynomial arithmetic over Z and Z_p.

A monomial is an exponent tuple of length ``nvars``.  A polynomial maps
monomials to nonzero arbitrary-precision integer coefficients; when a prime
modulus is set, coefficients are kept as least-nonnegative residues in
``[0, p)``.  Values are immutable after construction and every operation is
a pure function, so objects can be shared freely across threads.
"""

from __future__ import annotations

import functools
import math
import re
from operator import neg

from .errors import ArityError, DomainError, ParseError

VAR_ALIASES = ("x", "y", "z")


def var_name(i, nvars):
    """Canonical display name of variable ``i``: x,y,z for nvars <= 3, else x1..xn."""
    if nvars <= 3:
        return VAR_ALIASES[i]
    return "x%d" % (i + 1)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True iff x^a divides x^b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(b, a):
    """Exponent vector of x^b / x^a; caller guarantees divisibility."""
    return tuple(y - x for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
# n - 1 is trial-divided up to this bound for a Pocklington proof
_TRIAL_BOUND = 10**6
# Brent's rho gives up once its cycle search passes this length (2^17 steps in all)
_RHO_STEPS = 1 << 16


def _is_prime(n):
    """Exact primality: deterministic Miller-Rabin below ``_MR_EXACT_BELOW``;
    above it a passing n needs a Pocklington proof (``_pocklington``)."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n < _MR_EXACT_BELOW:
        return True
    return _pocklington(n)


@functools.lru_cache(maxsize=64)
def _pocklington(n):
    """Prove n prime from the factored part F of n - 1; n is odd and has
    passed Miller-Rabin.

    n is prime when F^2 > n and every prime q | F has a base a with
    a^(n-1) = 1 (mod n) and gcd(a^((n-1)/q) - 1, n) = 1 (Pocklington 1914;
    Brillhart, Lehmer & Selfridge 1975).  F collects the primes of n - 1
    up to ``_TRIAL_BOUND``, then splits the cofactor with ``_rho`` into
    parts that ``_is_prime`` certifies.  A Fermat witness proves n
    composite; otherwise DomainError.  Proofs are memoized, refusals are
    raised again on every call.
    """
    m, primes = n - 1, []
    q = 2
    while q <= _TRIAL_BOUND and q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1 if q == 2 else 2
    # no prime up to q divides the cofactor's parts, so a part below q^2 is prime
    parts, m = [m] if m > 1 else [], 1
    while parts:
        c = parts.pop()
        try:
            prime = q * q > c or _is_prime(c)
        except DomainError:
            prime = False
        if prime:
            primes.append(c)
        elif d := _rho(c):
            parts += [d, c // d]
        else:
            m *= c
    f = (n - 1) // m
    proven = f * f > n
    for a in _MR_BASES:
        if pow(a, n - 1, n) != 1:
            return False
        primes = [q for q in primes if math.gcd(pow(a, (n - 1) // q, n) - 1, n) != 1]
    if proven and not primes:
        return True
    raise DomainError("cannot certify modulus %d as prime" % n)


def _rho(n):
    """A proper factor of the odd composite n by Pollard's rho with Brent's
    cycle search (Brent 1980), iterating y -> y^2 + 1 from 2; None when the
    search passes ``_RHO_STEPS`` or the cycle closes modulo n itself."""
    y, r = 2, 1
    while r <= _RHO_STEPS:
        x = y
        for _ in range(r):
            y = (y * y + 1) % n
            g = math.gcd(x - y, n)
            if g != 1:
                return g if g != n else None
        r *= 2
    return None


def format_monomial(e, nvars):
    if not any(e):
        return "1"
    parts = []
    for i, k in enumerate(e):
        if k == 0:
            continue
        parts.append(var_name(i, nvars) if k == 1 else "%s^%d" % (var_name(i, nvars), k))
    return "*".join(parts)


class MonomialOrder:
    """A total, multiplicative well-order on exponent tuples.

    ``kind`` is one of ``lex``, ``grlex``, ``grevlex``.  ``priority`` lists
    variable indices from most to least significant; the default identity
    makes the last variable smallest (for two variables, y < x).
    """

    KINDS = ("lex", "grlex", "grevlex")

    def __init__(self, kind="lex", priority=None):
        if kind not in self.KINDS:
            raise DomainError("unknown monomial order %r" % (kind,))
        self.kind = kind
        self.priority = None if priority is None else tuple(priority)
        if self.priority is not None and sorted(self.priority) != list(range(len(self.priority))):
            raise DomainError("priority must be a permutation of 0..n-1, got %r" % (priority,))
        # key(a) < key(b) iff monomial a precedes b; desc_key reverses the
        # order with a flat tuple of ints, so a heap of (desc_key(e), e) pops
        # the largest monomial first and compares keys without Python code
        perm = self.priority
        p = tuple if perm is None else (lambda e: tuple([e[i] for i in perm]))
        if kind == "lex":
            key = p
        elif kind == "grlex":
            key = lambda e: (sum(e), *p(e))
        else:
            # grevlex: higher total degree wins; ties broken by the smaller
            # exponent in the least significant position
            key = lambda e: (sum(e), *map(neg, reversed(p(e))))
        self.key = key
        self.desc_key = lambda e: tuple(map(neg, key(e)))

    def __reduce__(self):
        # the keys are closures, which pickle cannot store: rebuild them
        return MonomialOrder, (self.kind, self.priority)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.priority == other.priority
        )

    def __repr__(self):
        if self.priority is None:
            return "MonomialOrder(%r)" % self.kind
        return "MonomialOrder(%r, priority=%r)" % (self.kind, self.priority)


# ---------------------------------------------------------------------------
# polynomials

class Polynomial:
    """Immutable sparse polynomial over Z or Z_p.

    ``coeffs`` maps exponent tuples to nonzero integers; zero coefficients
    are never stored.  With ``modulus`` set, coefficients are the
    least-nonnegative residues mod the (prime) modulus.
    """

    def __init__(self, coeffs, nvars, modulus=None):
        self.nvars = int(nvars)
        self.modulus = modulus
        clean = {}
        for e, c in coeffs.items():
            e = tuple(int(x) for x in e)
            if len(e) != self.nvars:
                raise ArityError("exponent %r has wrong length for %d variables" % (e, self.nvars))
            if any(x < 0 for x in e):
                raise DomainError("negative exponent in %r" % (e,))
            c = int(c)
            if modulus is not None:
                c %= modulus
            if c:
                clean[e] = clean.get(e, 0) + c
                if modulus is not None:
                    clean[e] %= modulus
                if not clean[e]:
                    del clean[e]
        self.coeffs = clean

    @classmethod
    def _trusted(cls, coeffs, nvars, modulus):
        """Polynomial from a dict built out of valid polynomials' terms.

        Skips the checks of ``__init__``: exponents must already be tuples
        of ``nvars`` non-negative ints and coefficients ints.  Only the
        canonical form is restored: residues mod p, zero terms dropped.
        """
        self = cls.__new__(cls)
        self.nvars = nvars
        self.modulus = modulus
        if modulus is None:
            self.coeffs = {e: c for e, c in coeffs.items() if c}
        else:
            self.coeffs = {e: c % modulus for e, c in coeffs.items() if c % modulus}
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars, modulus=None):
        return cls({}, nvars, modulus)

    @classmethod
    def constant(cls, c, nvars, modulus=None):
        return cls({(0,) * nvars: c}, nvars, modulus)

    @classmethod
    def variable(cls, i, nvars, power=1, modulus=None):
        e = [0] * nvars
        e[i] = power
        return cls({tuple(e): 1}, nvars, modulus)

    @classmethod
    def monomial(cls, e, nvars, c=1, modulus=None):
        return cls({tuple(e): c}, nvars, modulus)

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def _check_compat(self, other):
        if self.nvars != other.nvars:
            raise ArityError("variable counts differ: %d vs %d" % (self.nvars, other.nvars))
        if self.modulus != other.modulus:
            raise ArityError("moduli differ: %r vs %r" % (self.modulus, other.modulus))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other, self.nvars, self.modulus)
        self._check_compat(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Polynomial._trusted(out, self.nvars, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(
            {e: -c for e, c in self.coeffs.items()}, self.nvars, self.modulus
        )

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial.constant(other, self.nvars, self.modulus)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial._trusted(
                {e: c * other for e, c in self.coeffs.items()}, self.nvars, self.modulus
            )
        self._check_compat(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = mono_mul(e1, e2)
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial._trusted(out, self.nvars, self.modulus)

    __rmul__ = __mul__

    def term_multiple(self, c, e):
        """c * x^e * self, the single-term product used by division."""
        return Polynomial(
            {mono_mul(e, e1): c * c1 for e1, c1 in self.coeffs.items()},
            self.nvars,
            self.modulus,
        )

    def centered_lift(self):
        """View of a mod-p polynomial with coefficients in [-(p-1)/2, (p-1)/2].

        Norms of residues are only meaningful on this view.  Returns an
        integer polynomial; the identity on polynomials over Z.
        """
        if self.modulus is None:
            return self
        p = self.modulus
        half = p // 2
        return Polynomial(
            {e: c - p if c > half else c for e, c in self.coeffs.items()}, self.nvars, None
        )

    # -- comparisons / hashing ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.modulus == other.modulus
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.modulus, frozenset(self.coeffs.items())))

    def __repr__(self):
        return format_polynomial(self)

    __str__ = __repr__


# ---------------------------------------------------------------------------
# leading data and norms

_DEFAULT_ORDER = MonomialOrder("lex")


def leading_data(f, order=None):
    """(leading coefficient, leading monomial) of a nonzero polynomial."""
    if f.is_zero:
        raise DomainError("the zero polynomial has no leading term")
    order = order or _DEFAULT_ORDER
    lm = max(f.coeffs, key=order.key)
    return f.coeffs[lm], lm


def inf_norm(f):
    """Largest coefficient magnitude; 0 for the zero polynomial.

    Coefficients are taken as stored: reduce mod-p inputs with
    ``centered_lift`` first when a centered norm is wanted.
    """
    if f.is_zero:
        return 0
    return max(abs(c) for c in f.coeffs.values())


def maxdeg(f, i):
    """Largest exponent of variable ``i``; 0 for the zero polynomial."""
    if f.is_zero:
        return 0
    return max(e[i] for e in f.coeffs)


# ---------------------------------------------------------------------------
# canonical text form
#
# Grammar: term (("+"|"-") term)*, term = [int]["*"]var[^exp]["*"var[^exp]..],
# vars named x1..xn with x,y,z accepted as aliases when nvars <= 3.
# Whitespace is insignificant.

_TERM_RE = re.compile(r"^([+-]?\d+)?(.*)$")
_FACTOR_RE = re.compile(r"^(x\d+|[xyz])(?:\^(\d+))?$")


def _var_index(name, nvars):
    if len(name) == 1:
        if nvars > 3:
            raise ParseError("alias %r only valid for up to 3 variables" % name)
        idx = VAR_ALIASES.index(name)
    else:
        idx = int(name[1:]) - 1
    if not 0 <= idx < nvars:
        raise ParseError("variable %r out of range for %d variables" % (name, nvars))
    return idx


def parse_polynomial(text, nvars, modulus=None):
    """Parse the canonical text grammar into a Polynomial."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty polynomial text")
    # split into signed chunks; exponents are non-negative so +/- only
    # ever separate terms.
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ParseError("cannot tokenize %r" % text)
    coeffs = {}
    for chunk in chunks:
        sign = 1
        body = chunk
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        if not body:
            raise ParseError("dangling sign in %r" % text)
        m = _TERM_RE.match(body)
        coeff_txt, rest = m.group(1), m.group(2)
        coeff = int(coeff_txt) if coeff_txt else 1
        if rest.startswith("*"):
            rest = rest[1:]
        e = [0] * nvars
        if rest:
            for factor in rest.split("*"):
                fm = _FACTOR_RE.match(factor)
                if not fm:
                    raise ParseError("bad factor %r in %r" % (factor, text))
                idx = _var_index(fm.group(1), nvars)
                e[idx] += int(fm.group(2)) if fm.group(2) else 1
        elif coeff_txt is None:
            raise ParseError("empty term in %r" % text)
        key = tuple(e)
        coeffs[key] = coeffs.get(key, 0) + sign * coeff
    return Polynomial(coeffs, nvars, modulus)


def format_polynomial(f):
    """Canonical text form; terms in descending default-lex order."""
    if f.is_zero:
        return "0"
    parts = []
    for e in sorted(f.coeffs, reverse=True):
        c = f.coeffs[e]
        mono = format_monomial(e, f.nvars)
        if mono == "1":
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = "%d*%s" % (abs(c), mono)
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
