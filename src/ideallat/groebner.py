"""Strong Groebner bases over Z and Z_p via Buchberger completion.

Over the integers the completion closes both S-polynomial pairs (monomial
lcm with coefficient lcm) and GCD-polynomial pairs (Bezout combination of
the leading coefficients), which yields a *strong* basis: every element of
the ideal has its whole leading term divisible by the leading term of some
basis element.  Division reduces a term c*x^e by g whenever lm(g) divides
x^e and the Euclidean quotient of c by lc(g) is nonzero; the remainder
coefficient is kept in [0, lc).  Over Z_p leading coefficients are
normalized to 1 and the same code path degenerates to the classical field
algorithm.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import add, le, sub

from .errors import DomainError, ResourceError
from .poly import (
    MonomialOrder,
    Polynomial,
    _is_prime,
    leading_data,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

DEFAULT_PAIR_BUDGET = 10**6


@dataclass
class Ideal:
    """A finitely generated ideal of Z[x1..xn] or Z_p[x1..xn]."""

    generators: list
    nvars: int
    modulus: int | None = None

    def __post_init__(self):
        if self.modulus is not None and not _is_prime(self.modulus):
            raise DomainError("modulus %d is not prime" % self.modulus)
        if not self.generators:
            raise DomainError("an ideal needs at least one generator")
        for g in self.generators:
            if g.nvars != self.nvars or g.modulus != self.modulus:
                raise DomainError("generator %r does not live in the declared ring" % (g,))
            if g.is_zero:
                raise DomainError("zero generators are not allowed")


@dataclass
class GroebnerBasis:
    """A strong Groebner basis with its order and status flags.

    Elements are stored in descending leading-monomial order.  When
    tracked, ``representations[i]`` expresses ``elements[i]`` as a
    multiplier list over the originating generators, so membership
    certificates can be re-expanded exactly.
    """

    elements: list
    order: MonomialOrder
    is_short_reduced: bool = False
    is_monic: bool = False
    representations: list | None = None
    nvars: int = 0
    modulus: int | None = None

    def __post_init__(self):
        if self.elements:
            self.nvars = self.elements[0].nvars
            self.modulus = self.elements[0].modulus


def _xgcd(a, b):
    """(g, u, v) with u*a + v*b = g = gcd(a, b) and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# ---------------------------------------------------------------------------
# division

def _reducers(elements, order):
    """``(order key, index, lm, lc, terms)`` per element, sorted: the
    smallest head first, then the lowest index, the order in which
    reducers are tried."""
    key = order.key
    return sorted(
        (key(lm), i, lm, lc, list(g.coeffs.items()))
        for i, g in enumerate(elements)
        for lc, lm in [leading_data(g, order)]
    )


def reduce_full(f, elements, order, record=False, step_budget=None):
    """Fully reduce ``f`` by ``elements``.

    Returns ``(remainder, quotients, steps)`` with
    f = sum_i quotients[i] * elements[i] + remainder (quotients are dicts
    monomial -> coefficient, None unless ``record``).  ``steps`` counts
    single term reductions.  Among applicable reducers the one with the
    smallest leading monomial, then lowest index, is chosen, making the
    result deterministic.

    Monomials are visited in one descending sweep: a reduction step only
    creates strictly smaller monomials, so a monomial left irreducible
    stays irreducible.
    """
    modulus = f.modulus
    if elements and elements[0].modulus != modulus:
        raise DomainError("cannot reduce a polynomial against a basis over a different ring")
    desc = order.desc_key
    heads = _reducers(elements, order)
    r = dict(f.coeffs)
    quotients = [dict() for _ in elements] if record else None
    steps = 0
    heap = [(desc(e), e) for e in r]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1]
        while e in r:
            c = r[e]
            for _, i, lm, lc, terms in heads:
                if all(map(le, lm, e)) and c // lc:
                    break
            else:
                break
            if step_budget is not None and steps >= step_budget:
                raise ResourceError("reduction step budget of %d exceeded" % step_budget)
            q = c // lc
            shift = tuple(map(sub, e, lm))
            for e1, c1 in terms:
                em = tuple(map(add, shift, e1))
                v = r.get(em, 0) - q * c1
                if modulus is not None:
                    v %= modulus
                if v:
                    if em not in r:
                        heapq.heappush(heap, (desc(em), em))
                    r[em] = v
                elif em in r:
                    del r[em]
            if record:
                quotients[i][shift] = quotients[i].get(shift, 0) + q
            steps += 1
    return Polynomial._trusted(r, f.nvars, modulus), quotients, steps


def reduction_plan(elements, order, monos):
    """The sweep ``reduce_full`` makes over any polynomial on ``monos``.

    With every leading coefficient 1 the reducer chosen for a monomial
    does not depend on its coefficient, and one step clears the monomial,
    so the sweep is the same for every such polynomial; only which steps
    fire (those on a nonzero coefficient) varies.  Monomials are numbered
    by their place in ``monos``, then in the order the sweep first reaches
    them.  Returns ``(reached, steps, irreducible)``: the monomials in that
    numbering; per reducible monomial, in visit order, ``(index, tail)`` with
    ``tail`` the ``(index, coefficient)`` terms of its reducer shifted
    onto it, head skipped; and the indices of the irreducible ones.
    """
    desc = order.desc_key
    heads = _reducers(elements, order)
    if any(lc != 1 for _, _, _, lc, _ in heads):
        raise DomainError("a reduction plan needs a monic basis")
    index = {e: i for i, e in enumerate(monos)}
    heap = [(desc(e), e) for e in monos]
    heapq.heapify(heap)
    steps, irreducible = [], []
    while heap:
        e = heapq.heappop(heap)[1]
        for _, _, lm, _, terms in heads:
            if all(map(le, lm, e)):
                break
        else:
            irreducible.append(index[e])
            continue
        shift = tuple(map(sub, e, lm))
        targets = []
        for e1, c1 in terms:
            if e1 == lm:
                continue
            em = tuple(map(add, shift, e1))
            if em not in index:
                index[em] = len(index)
                heapq.heappush(heap, (desc(em), em))
            targets.append((index[em], c1))
        steps.append((index[e], tuple(targets)))
    return list(index), steps, irreducible


def normal_form(f, gb):
    """Canonical remainder of ``f`` modulo the basis."""
    r, _, _ = reduce_full(f, gb.elements, gb.order)
    return r


def ideal_membership(f, gb):
    """True iff ``f`` reduces to zero (exact for a strong basis)."""
    return normal_form(f, gb).is_zero


# ---------------------------------------------------------------------------
# pair polynomials

def _pair_cofactors(lmf, lcf, lmg, lcg, kind, modulus):
    """(cf, tf, cg, tg) with cf*x^tf*f + cg*x^tg*g the S-polynomial (kind 0)
    or G-polynomial (kind 1) of f and g, given their heads."""
    gamma = mono_lcm(lmf, lmg)
    if kind == 1:
        _, cf, cg = _xgcd(lcf, lcg)
    elif modulus is not None:
        cf, cg = 1, -1
    else:
        l = abs(lcf * lcg) // math.gcd(lcf, lcg)
        cf, cg = l // lcf, -(l // lcg)
    return cf, mono_div(gamma, lmf), cg, mono_div(gamma, lmg)


def _pair_polynomial(f, g, order, kind):
    (lcf, lmf), (lcg, lmg) = leading_data(f, order), leading_data(g, order)
    cf, tf, cg, tg = _pair_cofactors(lmf, lcf, lmg, lcg, kind, f.modulus)
    return f.term_multiple(cf, tf) + g.term_multiple(cg, tg)


def s_polynomial(f, g, order):
    return _pair_polynomial(f, g, order, 0)


def g_polynomial(f, g, order):
    """Bezout combination with leading term gcd(lc f, lc g) * lcm(lm f, lm g)."""
    return _pair_polynomial(f, g, order, 1)


# ---------------------------------------------------------------------------
# completion

def buchberger(ideal, order=None, pair_budget=DEFAULT_PAIR_BUDGET, track=True,
               step_budget=None):
    """Complete the generators into a minimal strong Groebner basis.

    Pairs are processed smallest lcm first and every reduction step is
    deterministic, so the output depends only on (ideal, order).  Three
    criteria skip pairs whose reduction cannot add anything; over Z_p every
    lc is 1 and they are the classical field criteria:

    - product criterion (Buchberger 1979; over Z in the form of Lichtblau
      2012, "Effective computation of strong Groebner bases over Euclidean
      domains"): an S-pair whose leading monomials share no variable and
      whose leading coefficients are coprime;
    - chain criterion (Buchberger 1979, Gebauer & Moeller 1988; over Z in
      the form of Kandri-Rody & Kapur 1988 and Lichtblau 2012): an S-pair
      (i, j) with some k outside {i, j} such that lm_k divides
      lcm(lm_i, lm_j), lc_k divides lcm(lc_i, lc_j), and the S-pairs
      (i, k) and (j, k) have already left the queue;
    - G-pair criterion (Lichtblau 2012): a G-pair whose head
      gcd(lc_i, lc_j) * lcm(lm_i, lm_j) is already divisible by the leading
      term of a basis element.

    Termination is guaranteed by Noetherianity.  ``pair_budget`` bounds
    the number of pairs reduced, that is pairs whose S- or G-polynomial
    is formed; pairs skipped by a criterion do not count.  ``step_budget``,
    when given, bounds the term reductions inside any one normal form.
    Either budget raises a ResourceError when exceeded.  An order whose
    variable priority does not cover exactly the ideal's variables raises
    a DomainError.
    """
    order = order or MonomialOrder("lex")
    modulus = ideal.modulus
    nv = ideal.nvars
    if order.priority is not None and len(order.priority) != nv:
        raise DomainError(
            "monomial order ranks %d variables, the ideal has %d" % (len(order.priority), nv)
        )
    basis = []
    heads = []  # (lm, lc) of basis[k], positive lc over Z
    derivs = []  # how basis[k] was made, expanded into representations at the end
    pairs = []
    queued = set()  # S-pairs (i, j), i < j, still on the heap

    def push_pairs(j):
        lmj, lcj = heads[j]
        for i in range(j):
            lmi, lci = heads[i]
            gamma = mono_lcm(lmi, lmj)
            # product criterion: disjoint heads, coprime leading coefficients
            if gamma != mono_mul(lmi, lmj) or math.gcd(lci, lcj) != 1:
                heapq.heappush(pairs, (order.key(gamma), i, j, 0))
                queued.add((i, j))
            # a gcd pair is informative only when neither lc divides the other
            if modulus is None and lci % lcj != 0 and lcj % lci != 0:
                heapq.heappush(pairs, (order.key(gamma), i, j, 1))

    def left_queue(a, b):
        return (min(a, b), max(a, b)) not in queued

    def useless(i, j, kind):
        (lmi, lci), (lmj, lcj) = heads[i], heads[j]
        gamma = mono_lcm(lmi, lmj)
        if kind == 1:
            g = math.gcd(lci, lcj)
            return any(mono_divides(lm, gamma) and g % lc == 0 for lm, lc in heads)
        l = lci * lcj // math.gcd(lci, lcj)
        return any(
            k != i and k != j and mono_divides(lm, gamma) and l % lc == 0
            and left_queue(i, k) and left_queue(j, k)
            for k, (lm, lc) in enumerate(heads)
        )

    def append(poly, deriv):
        # scale by the unit u that makes lc positive over Z, 1 over Z_p
        lc, lm = leading_data(poly, order)
        if modulus is not None:
            u, lc = pow(lc, -1, modulus), 1
        else:
            u = 1 if lc > 0 else -1
            lc *= u
        basis.append(poly * u)
        heads.append((lm, lc))
        if track:
            derivs.append(deriv + (u,))
        push_pairs(len(basis) - 1)

    for i, g in enumerate(ideal.generators):
        append(g, (i,))

    reductions = 0
    while pairs:
        _, i, j, kind = heapq.heappop(pairs)
        if kind == 0:
            queued.discard((i, j))
        if useless(i, j, kind):
            continue
        reductions += 1
        if reductions > pair_budget:
            raise ResourceError("pair budget of %d reductions exceeded" % pair_budget)
        cand = (s_polynomial if kind == 0 else g_polynomial)(basis[i], basis[j], order)
        if cand.is_zero:
            continue
        r, quot, _ = reduce_full(cand, basis, order, record=track, step_budget=step_budget)
        if r.is_zero:
            continue
        append(r, (i, j, kind, quot))

    # stored by descending leading monomial; the sort is stable
    kept = sorted(_minimalize(heads, order), key=lambda k: order.key(heads[k][0]), reverse=True)
    reps = _representations(derivs, heads, kept, len(ideal.generators), nv, modulus) if track else None
    return GroebnerBasis(
        [basis[k] for k in kept],
        order,
        is_monic=all(heads[k][1] == 1 for k in kept),
        representations=[reps[k] for k in kept] if track else None,
    )


def _representations(derivs, heads, wanted, n_gens, nv, modulus):
    """Representations over the generators of the basis elements ``wanted``.

    ``derivs[k]`` records how element k was made from earlier elements:
    (generator index, unit) or (i, j, kind, reduction quotients, unit).
    Only ``wanted`` and the elements they were made from are expanded, so
    a completion that exceeds its budget expands nothing.
    """
    needed = set(wanted)
    for k in range(len(derivs) - 1, -1, -1):
        if k in needed and len(derivs[k]) == 5:
            i, j, _, quot, _ = derivs[k]
            needed.update([i, j] + [idx for idx, qd in enumerate(quot) if qd])
    reps = {}
    for k in sorted(needed):
        if len(derivs[k]) == 2:
            g, u = derivs[k]
            reps[k] = [Polynomial.zero(nv, modulus) for _ in range(n_gens)]
            reps[k][g] = Polynomial.constant(u, nv, modulus)
        else:
            i, j, kind, quot, u = derivs[k]
            reps[k] = [p * u for p in _pair_rep(heads, reps, i, j, kind, quot, nv, modulus)]
    return reps


def _pair_rep(heads, reps, i, j, kind, quot, nv, modulus):
    """Representation of the reduced pair polynomial over the original generators."""
    cf, tf, cg, tg = _pair_cofactors(*heads[i], *heads[j], kind, modulus)
    pf = Polynomial.monomial(tf, nv, cf, modulus)
    pg = Polynomial.monomial(tg, nv, cg, modulus)
    rep = [pf * a + pg * b for a, b in zip(reps[i], reps[j])]
    return _subtract_quotients(rep, quot, reps, nv, modulus)


def _subtract_quotients(rep, quot, reps, nv, modulus):
    """rep - sum_k quot[k] * reps[k], for the quotients of ``reduce_full``."""
    for k, qd in enumerate(quot):
        if qd:
            qp = Polynomial(qd, nv, modulus)
            rep = [a - qp * b for a, b in zip(rep, reps[k])]
    return rep


def _minimalize(heads, order):
    """Indices of elements whose leading term no other kept element's divides.

    ``heads`` lists (lm, lc) per element.  Processing heads in ascending
    order keeps the small elements, and for a strong basis dropping a
    covered element preserves both the strong property and the generated
    ideal.
    """
    ranked = sorted(
        ((h, i) for i, h in enumerate(heads)),
        key=lambda t: (order.key(t[0][0]), abs(t[0][1]), t[1]),
    )
    kept = []
    for (lm, lc), i in ranked:
        covered = any(
            mono_divides(lm2, lm) and lc % lc2 == 0 for (lm2, lc2), _ in kept
        )
        if not covered:
            kept.append(((lm, lc), i))
    return sorted(i for _, i in kept)


# ---------------------------------------------------------------------------
# short reduction

def short_reduce(gb):
    """The unique short reduced basis for the stored order.

    Each element keeps its head and has its tail fully reduced by the
    basis, so recomputing from any permutation of generators of the same
    ideal yields an identical set.  Precondition: ``gb`` is a minimal
    strong basis, as ``buchberger`` returns; its heads are then the short
    reduced ones.  Let alpha be a necessary leading monomial and d the gcd
    of the leading coefficients of its contributors, the elements whose
    leading monomial divides alpha.  Their Bezout combination has leading
    term d*x^alpha, so strongness gives an element h with lm_h | alpha and
    lc_h | d; h is a contributor, so d | lc_h and lc_h = d, and lm_h = alpha
    or alpha would not be necessary.  ``_minimalize`` keeps only such
    heads, which are pairwise distinct, so ``reduce_full`` picks the same
    reducer whatever the list order.
    """
    order = gb.order
    reps = gb.representations
    track = reps is not None
    elements = []
    new_reps = [] if track else None
    for k, f in enumerate(gb.elements):
        lc, lm = leading_data(f, order)
        head = Polynomial.monomial(lm, f.nvars, lc, f.modulus)
        r, quot, _ = reduce_full(f - head, gb.elements, order, record=track)
        elements.append(head + r)
        if track:
            new_reps.append(_subtract_quotients(list(reps[k]), quot, reps, f.nvars, f.modulus))
    return GroebnerBasis(elements, order, is_short_reduced=True, is_monic=gb.is_monic,
                         representations=new_reps)


def expand_representation(rep, generators):
    """Re-expand a representation exactly; certifies membership quotients."""
    acc = Polynomial.zero(generators[0].nvars, generators[0].modulus)
    for h, g in zip(rep, generators):
        acc = acc + h * g
    return acc
