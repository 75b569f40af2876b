"""Integer lattices: Hermite and Smith normal forms, extraction of the
lattice of an ideal in a free quotient, brute-force successive minima and
saturation testing.

The HNF convention is pinned because coordinate vectors feed golden tests:
row style, upper echelon, positive pivots, entries above each pivot
reduced into [0, pivot).  All elimination is exact integer arithmetic, in
one loop that computes every HNF and, through alternating transposes, the
SNF.  The unimodular transform U is built only on request
(``hnf_with_transform``, for ``solve_left`` and ``intersect``): each row
then carries its row of the identity as extra columns, which the same loop
updates but never pivots on, and U is split off at the end.  ``hnf``,
``snf`` and lattice extraction never pay for it.

Every exact lattice search (shortest vector, successive minima, and the
coset and substitution searches of ``hardness``) walks one coefficient
box through ``enumerate_box``, which holds the one box and budget check:
the box defaults to the largest basis entry and must be at least 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import DomainError, ResourceError
from .quotient import multiplication_matrix, row_combination

DEFAULT_ENUM_BUDGET = 2_000_000


def _copy_matrix(rows):
    return [list(map(int, r)) for r in rows]


def hnf(rows):
    """Canonical Hermite normal form of the row span; zero rows dropped."""
    H, _, rank = hnf_with_transform(rows, transform=False)
    return H[:rank]


def hnf_with_transform(rows, transform=True):
    """(H, U, rank) with U unimodular, U*rows = H in echelon form.

    H keeps its zero rows at the bottom so that U[rank:] is a basis of the
    left kernel of the input matrix.  With ``transform`` each row carries
    its row of the identity as extra columns, which the elimination updates
    but never pivots on, and U is split off at the end; without it U is
    None.
    """
    A = _copy_matrix(rows)
    if not A:
        return [], ([] if transform else None), 0
    m, n = len(A), len(A[0])
    if transform:
        for i, row in enumerate(A):
            row.extend(1 if i == j else 0 for j in range(m))
    r = 0
    for col in range(n):
        # euclidean elimination below the pivot row; row r is zero left of col
        while True:
            nz = [i for i in range(r, m) if A[i][col]]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(A[i][col]), i))
            if piv != r:
                A[piv], A[r] = A[r], A[piv]
            if len(nz) == 1:
                break
            for i in range(r + 1, m):
                if A[i][col]:
                    q = A[i][col] // A[r][col]
                    A[i][col:] = [a - q * b for a, b in zip(A[i][col:], A[r][col:])]
        if r < m and A[r][col]:
            if A[r][col] < 0:
                A[r] = [-a for a in A[r]]
            for i in range(r):
                q = A[i][col] // A[r][col]
                if q:
                    A[i][col:] = [a - q * b for a, b in zip(A[i][col:], A[r][col:])]
            r += 1
            if r == m:
                break
    if not transform:
        return A, None, r
    return [row[:n] for row in A], [row[n:] for row in A], r


def snf(rows):
    """Invariant factors d1 | d2 | ... of the integer matrix.

    Row HNFs of the matrix and of its transpose alternate until the matrix
    is diagonal (Kannan & Bachem 1979; Cohen, GTM 138, 2.4); row and
    column operations keep the invariant factors, and ``hnf`` drops zero
    rows, so from the second round on the matrix is square of full rank.
    This terminates: after each round the first unsettled pivot is the gcd
    of its column (or row) within the unsettled block, so it is positive
    and never increases, and once it stays the same through a transpose
    round its row and column are cleared and it is settled.
    """
    A = hnf(rows)
    while any(a for i, row in enumerate(A) for j, a in enumerate(row) if i != j):
        A = hnf(list(zip(*A)))
    factors = [row[i] for i, row in enumerate(A)]
    # enforce the divisibility chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = math.gcd(a, b)
            factors[i], factors[j] = g, a * b // g
    return factors


class IntegerLattice:
    """Sublattice of Z^n generated by the rows of ``gens``.

    The canonical HNF basis and the SNF invariant factors are computed
    lazily and cached; instances are immutable afterwards.
    """

    def __init__(self, gens, ambient_dim=None):
        self.gens = _copy_matrix(gens)
        if self.gens:
            self.ambient_dim = len(self.gens[0])
            if any(len(r) != self.ambient_dim for r in self.gens):
                raise DomainError("ragged generator matrix")
        else:
            if ambient_dim is None:
                raise DomainError("empty generator list needs an explicit ambient dimension")
            self.ambient_dim = ambient_dim
        self._hnf = None
        self._snf = None

    @property
    def hnf(self):
        if self._hnf is None:
            self._hnf = hnf(self.gens)
        return self._hnf

    @property
    def rank(self):
        return len(self.hnf)

    @property
    def snf_factors(self):
        if self._snf is None:
            # the transpose of the HNF: its first round is one snf would do anyway
            self._snf = snf(list(zip(*self.hnf)))
        return self._snf

    def contains(self, v):
        """Membership of an integer vector via reduction against the HNF."""
        v = list(map(int, v))
        if len(v) != self.ambient_dim:
            raise DomainError("vector has wrong dimension")
        return _echelon_solve(self.hnf, v) is not None

    def __eq__(self, other):
        return isinstance(other, IntegerLattice) and self.hnf == other.hnf and self.ambient_dim == other.ambient_dim

    def __repr__(self):
        return "IntegerLattice(%r)" % (self.hnf,)


def _echelon_solve(echelon, v):
    """Integer y with y*echelon = v for rows in echelon form, or None."""
    y = []
    for row in echelon:
        col = next(j for j, a in enumerate(row) if a)
        q, r = divmod(v[col], row[col])
        if r:
            return None
        y.append(q)
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return None if any(v) else y


def solve_left(rows, v):
    """Integer x with x*rows = v, or None when no such x exists."""
    H, U, rank = hnf_with_transform(rows)
    y = _echelon_solve(H[:rank], list(map(int, v)))
    if y is None:
        return None
    return row_combination(y, U, [0] * len(rows))


def intersect(l1, l2):
    """Intersection lattice via the left kernel of the stacked bases."""
    if l1.ambient_dim != l2.ambient_dim:
        raise DomainError("ambient dimensions differ")
    b1, b2 = l1.hnf, l2.hnf
    if not b1 or not b2:
        return IntegerLattice([], ambient_dim=l1.ambient_dim)
    stacked = b1 + b2
    _, U, rank = hnf_with_transform(stacked)
    rows = []
    for krow in U[rank:]:
        vec = row_combination(krow, b1, [0] * l1.ambient_dim)
        if any(vec):
            rows.append(vec)
    return IntegerLattice(rows, ambient_dim=l1.ambient_dim)


def ideal_to_lattice(q, gens_of_a):
    """Lattice of the ideal generated by ``gens_of_a`` in the free quotient.

    Rows are the coordinates of every generator times every basis
    monomial, the stacked multiplication matrices M_g; their HNF is the
    canonical lattice basis.
    """
    if not q.free:
        raise DomainError("ideal lattices exist only in free quotients")
    rows = [row for g in gens_of_a for row in multiplication_matrix(g, q)]
    return IntegerLattice(rows, ambient_dim=len(q.basis))


def is_full_rank_ideal(q, gens_of_a):
    return ideal_to_lattice(q, gens_of_a).rank == q.N


def is_saturated(lattice):
    """True iff every invariant factor of the basis is 1."""
    return all(d == 1 for d in lattice.snf_factors)


@dataclass
class MinimaReport:
    """Successive minima found inside a coefficient box.

    Values are exact within the searched box: every lattice vector whose
    HNF-basis coefficients are bounded by ``search_bound`` in absolute
    value was enumerated.
    """

    lambdas: list
    witnesses: list
    search_bound: int


def _check_box(basis, box, budget):
    """The box to search: the largest basis entry by default, at least 1."""
    if box is None:
        box = max(max(abs(x) for x in row) for row in basis)
    box = int(box)
    if box < 1:
        raise DomainError("box must be at least 1")
    total = (2 * box + 1) ** len(basis)
    if total > budget:
        raise ResourceError(
            "enumeration of %d combinations exceeds the budget of %d" % (total, budget)
        )
    return box


def enumerate_box(basis, box=None, budget=DEFAULT_ENUM_BUDGET, offset=None):
    """offset + c*basis for every c in [-box, box]^rank, c = 0 included;
    the box is checked at the call, before the first vector."""
    box = _check_box(basis, box, budget)
    if offset is None:
        offset = [0] * len(basis[0])
    return (
        row_combination(c, basis, offset)
        for c in itertools.product(range(-box, box + 1), repeat=len(basis))
    )


def shortest_nonzero(lattice, box=None, budget=DEFAULT_ENUM_BUDGET):
    """(lambda1, ties): the minimum norm in the box and every vector achieving it."""
    basis = lattice.hnf
    if not basis:
        raise DomainError("the zero lattice has no shortest vector")
    best, ties = None, []
    for v in enumerate_box(basis, box, budget):
        norm = max(abs(x) for x in v)
        if not norm:
            continue
        if best is None or norm < best:
            best, ties = norm, [tuple(v)]
        elif norm == best:
            ties.append(tuple(v))
    ties.sort()
    return best, ties


def minima_bruteforce(lattice, k, box=None, budget=DEFAULT_ENUM_BUDGET, threads=1):
    """First ``k`` successive minima in the infinity norm.

    Enumerates all integer combinations of the HNF basis with coefficients
    in [-box, box]; the default box is the largest HNF entry.  Witnesses
    are the lexicographically smallest vectors among ties.  ``threads`` is
    ignored: the search runs on one thread and results never depended on it.
    """
    if k < 1:
        raise DomainError("the number of minima must be at least 1, got %d" % k)
    basis = lattice.hnf
    r = len(basis)
    if r < k:
        raise DomainError("lattice rank %d is below the requested count %d" % (r, k))
    box = _check_box(basis, box, budget)
    vecs = enumerate_box(basis, box, budget)
    candidates = sorted((max(abs(x) for x in v), tuple(v)) for v in vecs if any(v))
    lambdas = []
    witnesses = []
    for norm, vec in candidates:
        if len(lambdas) == k:
            break
        # independent over Q iff the HNF of the witnesses gains a row
        if len(hnf(witnesses + [vec])) > len(witnesses):
            lambdas.append(norm)
            witnesses.append(list(vec))
    if len(lambdas) < k:
        raise ResourceError(
            "only %d independent vectors found within the box; enlarge it" % len(lambdas)
        )
    return MinimaReport(lambdas=lambdas, witnesses=witnesses, search_bound=box)
