"""HNF/SNF, lattice extraction, successive minima and saturation, checked
against mutual-membership, unimodular-invariance and small searches."""

import hashlib
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from ideallat.errors import DomainError, ResourceError
from ideallat.groebner import Ideal
from ideallat.lattice import (
    IntegerLattice,
    hnf,
    hnf_with_transform,
    ideal_to_lattice,
    intersect,
    is_full_rank_ideal,
    is_saturated,
    minima_bruteforce,
    shortest_nonzero,
    snf,
    solve_left,
)
from ideallat.poly import Polynomial, parse_polynomial
from ideallat.quotient import build_quotient


def P(text, nvars, modulus=None):
    return parse_polynomial(text, nvars, modulus)


def rational_rank(rows):
    """Oracle: rank over Q by fraction-free Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col] != 0:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def spans_same(rows_a, rows_b):
    """Oracle: mutual membership of both generating sets."""
    la, lb = IntegerLattice(rows_a), IntegerLattice(rows_b)
    return all(lb.contains(r) for r in rows_a) and all(la.contains(r) for r in rows_b)


class TestHNF:
    def test_worked_example_by_mutual_membership(self):
        rows = [[2, 0], [1, 1]]
        result = hnf(rows)
        assert result == [[1, 1], [0, 2]]
        assert spans_same(rows, result)

    def test_identity_and_diag(self):
        assert hnf([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]
        assert snf([[1, 0], [0, 1]]) == [1, 1]
        assert snf([[2, 0], [0, 6]]) == [2, 6]

    def test_canonical_shape(self, rng):
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            H = hnf(rows)
            pivots = []
            for row in H:
                j = next(k for k, a in enumerate(row) if a)
                assert row[j] > 0
                pivots.append(j)
                for other in H[: H.index(row)]:
                    assert 0 <= other[j] < row[j]
            assert pivots == sorted(pivots)

    def test_invariant_under_unimodular_row_ops(self, rng):
        for _ in range(30):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            mixed = [list(r) for r in rows]
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i == j:
                    continue
                c = rng.randint(-3, 3)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
            if rng.random() < 0.5:
                i = rng.randrange(n)
                mixed[i] = [-a for a in mixed[i]]
            assert hnf(rows) == hnf(mixed)

    def test_transform_is_exact(self, rng):
        for _ in range(30):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            H, U, rank = hnf_with_transform(rows)
            for i in range(m):
                got = [
                    sum(U[i][k] * rows[k][j] for k in range(m)) for j in range(n)
                ]
                assert got == H[i]
            assert all(not any(H[i]) for i in range(rank, m))

    @pytest.mark.parametrize("shape", ["tall", "wide", "rank_deficient", "zero_rows"])
    def test_hnf_is_the_transform_loop_without_u(self, shape):
        """hnf() keeps no transform; its rows are exactly the transform loop's."""
        rng = random.Random("hnf/" + shape)
        for _ in range(15):
            if shape == "tall":
                m, n = rng.randint(6, 12), rng.randint(2, 5)
            else:
                m, n = rng.randint(2, 6), rng.randint(6, 12)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            if shape == "rank_deficient":
                base = rows[: rng.randint(1, m - 1)]
                rows = [
                    [sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(n)]
                    for coeffs in ([rng.randint(-3, 3) for _ in base] for _ in range(m))
                ]
            elif shape == "zero_rows":
                for _ in range(rng.randint(1, 3)):
                    rows.insert(rng.randint(0, len(rows)), [0] * n)
            H, U, rank = hnf_with_transform(rows)
            assert hnf(rows) == H[:rank]
            assert rank == rational_rank(rows)
            for u, h in zip(U, H):
                assert [sum(a * row[j] for a, row in zip(u, rows)) for j in range(n)] == h

    def test_determinant_equals_product_of_snf(self, rng):
        for _ in range(25):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            H = hnf(rows)
            if len(H) < n:
                continue
            det = 1
            for i, row in enumerate(H):
                det *= row[next(j for j, a in enumerate(row) if a)]
            prod = 1
            for d in snf(rows):
                prod *= d
            assert det == prod

    def test_solve_left(self, rng):
        for _ in range(30):
            n = rng.randint(2, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(1, n))]
            coeffs = [rng.randint(-4, 4) for _ in rows]
            v = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
            x = solve_left(rows, v)
            assert x is not None
            got = [sum(xi * row[j] for xi, row in zip(x, rows)) for j in range(n)]
            assert got == v


class TestSNFOracle:
    def test_smith_by_minors_gcd(self, rng):
        """Oracle: d_1...d_k equals gcd of all k x k minors."""

        def minor_gcd(rows, k):
            import math

            m, n = len(rows), len(rows[0])
            g = 0
            for rsel in itertools.combinations(range(m), k):
                for csel in itertools.combinations(range(n), k):
                    sub = [[rows[i][j] for j in csel] for i in rsel]
                    g = math.gcd(g, _det(sub))
            return g

        def _det(mat):
            if len(mat) == 1:
                return mat[0][0]
            out = 0
            for j in range(len(mat)):
                sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
                out += (-1) ** j * mat[0][j] * _det(sub)
            return out

        for _ in range(15):
            m = rng.randint(2, 3)
            n = rng.randint(2, 3)
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            factors = snf(rows)
            prod = 1
            for k, d in enumerate(factors, start=1):
                prod *= d
                assert prod == minor_gcd(rows, k)
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0


def _snf_digest(shape):
    """sha256 prefix of snf() over seeded wide matrices, wide rank-deficient
    ones and their HNFs: the inputs that snf() takes through the HNF of
    the transpose."""
    rng = random.Random("snf/" + shape)
    h = hashlib.sha256()
    for _ in range(20):
        m, n = rng.randint(2, 5), rng.randint(5, 8)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        if shape != "wide":
            base = rows[: rng.randint(1, m - 1)]
            rows = [
                [sum(c * row[j] for c, row in zip(coeffs, base)) for j in range(n)]
                for coeffs in ([rng.randint(-3, 3) for _ in base] for _ in range(m))
            ]
        if shape == "hnf":
            rows = hnf(rows)
        h.update(repr(snf(rows)).encode())
    return h.hexdigest()[:16]


class TestSNFWide:
    """Wide and rank-deficient inputs, where the edging loop used to run on
    the matrix as given."""

    # computed by the edging loop on the matrix as given
    GOLDEN = {
        "wide": "926fd65a04f0ff25",
        "rank_deficient": "d1ca378246c0daa4",
        "hnf": "2052fb0663242469",
    }

    @pytest.mark.parametrize("shape", sorted(GOLDEN))
    def test_factors_are_unchanged(self, shape):
        assert _snf_digest(shape) == self.GOLDEN[shape]

    def test_matches_sympy(self, rng):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form

        for _ in range(30):
            m, n = rng.randint(1, 4), rng.randint(2, 6)
            base = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(rng.randint(1, m))]
            rows = [
                [sum(rng.randint(-2, 2) * row[j] for row in base) for j in range(n)]
                for _ in range(m)
            ]
            D = smith_normal_form(sympy.Matrix(rows), domain=sympy.ZZ)
            theirs = [abs(int(D[i, i])) for i in range(min(m, n)) if D[i, i]]
            assert snf(rows) == theirs

    def test_rank_deficient_ideal_lattice_of_77_finishes(self):
        """x^7-1 and y^11-1 vanish at (1, 1), so a generator whose
        coefficients sum to 0 spans a lattice of rank 76 in Z^77; its 76x77
        HNF has entries of hundreds of bits."""
        code = "\n".join([
            "import json, random",
            "from ideallat import Ideal, MonomialOrder, Polynomial, build_quotient, ideal_to_lattice",
            "rng = random.Random(77)",
            "coeffs = {(i, j): rng.randint(-4, 4) for i in range(7) for j in range(11)}",
            "coeffs[(0, 0)] -= sum(coeffs.values())",
            "ring = Ideal([Polynomial({(7, 0): 1, (0, 0): -1}, 2),"
            " Polynomial({(0, 11): 1, (0, 0): -1}, 2)], 2)",
            "q = build_quotient(ring, MonomialOrder('lex'))",
            "lat = ideal_to_lattice(q, [Polynomial(coeffs, 2)])",
            "print(json.dumps([lat.rank, lat.snf_factors]))",
        ])
        # about a second here; the edging loop on the 76x77 HNF ran for minutes
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        rank, factors = json.loads(proc.stdout)
        assert rank == len(factors) == 76
        assert all(d > 0 for d in factors)
        assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


EXTRACT_SHAPES = ((3, 5), (5, 7), (7, 11))


@pytest.fixture(scope="module")
def torus_quotients():
    """Z[x, y]/<x^a - 1, y^b - 1> for each extraction shape (a, b)."""
    out = []
    for a, b in EXTRACT_SHAPES:
        ring = Ideal([Polynomial({(a, 0): 1, (0, 0): -1}, 2), Polynomial({(0, b): 1, (0, 0): -1}, 2)], 2)
        out.append(build_quotient(ring))
    return out


def _extract_lattices(seed, quotients):
    """The lattice of one dense generator with coefficients in [-4, 4] per
    shape, drawn as the benchmark's extraction inputs of the same seed."""
    rng = random.Random(seed)
    for (a, b), q in zip(EXTRACT_SHAPES, quotients):
        while True:
            coeffs = {e: rng.randint(-4, 4) for e in itertools.product(range(a), range(b))}
            coeffs = {e: c for e, c in coeffs.items() if c}
            if coeffs:
                break
        yield ideal_to_lattice(q, [Polynomial(coeffs, 2)])


class TestSNFExtract:
    """Ideal lattices of N = 15, 35 and 77, full rank and rank-deficient."""

    # seed -> (ranks, sha256 prefix of the three factor lists), computed by
    # the edging loop; seeds 4, 5, 6 and 10 take three HNF rounds
    GOLDEN = {
        1: ([15, 35, 77], "08d8fe13df3dcce8"),
        4: ([15, 34, 77], "66f16e422f0dd2b9"),
        5: ([14, 35, 77], "e13d4001a63b4dbf"),
        6: ([15, 35, 77], "5bbb7a7dc338dbb6"),
        10: ([14, 35, 77], "2c81c4262df75ed5"),
        11: ([15, 35, 77], "86cda86833a13735"),
    }

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_factors_are_unchanged(self, seed, torus_quotients):
        h = hashlib.sha256()
        ranks = []
        for lat in _extract_lattices(seed, torus_quotients):
            ranks.append(lat.rank)
            h.update(repr(lat.snf_factors).encode())
        assert (ranks, h.hexdigest()[:16]) == self.GOLDEN[seed]

    def test_square_input_where_the_edging_loop_stalled(self):
        """A 7x7 matrix on which the edging loop had not finished after
        300 s; the factors are sympy's and multiply to the determinant
        4236380."""
        rows = [
            [2, 3, -2, 2, -3, -3, -7],
            [0, -1, -8, 4, 9, 3, -2],
            [1, -5, 9, -5, -9, -3, 5],
            [-3, -8, -9, 2, -1, 6, 6],
            [6, -7, 5, 8, -7, 1, -4],
            [9, 7, -8, 9, -7, -9, 9],
            [1, -6, -6, 6, -9, 8, -2],
        ]
        assert snf(rows) == [1, 1, 1, 1, 1, 2, 2118190]

    def test_cached_factors_match_snf_of_the_generators(self):
        """``snf_factors`` starts from the HNF it already holds; seeded
        matrices up to 6x6, 30% of them with a dependent row."""
        rng = random.Random("snf_factors")
        for _ in range(500):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.3:
                a, b = rng.sample(range(m), 2)
                rows[a] = [rng.randint(-3, 3) * x for x in rows[b]]
            assert IntegerLattice(rows).snf_factors == snf(rows)


class TestExtraction:
    def test_worked_example(self):
        q = build_quotient(Ideal([P("x^2", 2), P("y", 2)], 2))
        lat = ideal_to_lattice(q, [P("6*x", 2)])
        assert lat.hnf == [[0, 6]]

    def test_unit_ideal_gives_full_lattice(self):
        q = build_quotient(Ideal([P("x^2", 2), P("y", 2)], 2))
        lat = ideal_to_lattice(q, [P("1", 2)])
        assert lat.hnf == [[1, 0], [0, 1]]

    def test_non_prime_quotient_rank_drop(self):
        # oracle: explicit products (x+1)*1 = (1,1), (x+1)*x = (1,1)
        q = build_quotient(Ideal([P("x^2-1", 1)], 1))
        lat = ideal_to_lattice(q, [P("x+1", 1)])
        assert lat.hnf == [[1, 1]]
        assert lat.rank == 1 == rational_rank(lat.gens)

    def test_full_rank_flags(self):
        q_prime = build_quotient(Ideal([P("x^2+x+1", 1)], 1))
        assert is_full_rank_ideal(q_prime, [P("x+2", 1)])
        assert rational_rank(ideal_to_lattice(q_prime, [P("x+2", 1)]).gens) == 2
        q_split = build_quotient(Ideal([P("x^2-1", 1)], 1))
        assert not is_full_rank_ideal(q_split, [P("x+1", 1)])
        assert not is_full_rank_ideal(q_prime, [Polynomial.zero(1)])


class TestMinima:
    def test_single_generator(self):
        rep = minima_bruteforce(IntegerLattice([[0, 6]]), 1, box=3)
        assert rep.lambdas == [6]
        assert [abs(x) for x in rep.witnesses[0]] == [0, 6]

    def test_standard_lattice(self):
        rep = minima_bruteforce(IntegerLattice([[1, 0], [0, 1]]), 2, box=2)
        assert rep.lambdas == [1, 1]

    def test_hand_enumeration_agrees(self):
        # oracle: fresh exhaustive enumeration with |coords| <= 4, greedy
        # over increasing norm with exact independence.  Note (1,-1) =
        # (1,1) - (0,2) lies in the lattice, so both minima equal 1.
        basis = [[1, 1], [0, 2]]
        cands = []
        for a in range(-4, 5):
            for b in range(-4, 5):
                if (a, b) == (0, 0):
                    continue
                v = (a, a + 2 * b)
                cands.append((max(abs(x) for x in v), v))
        cands.sort()
        lams, picked = [], []
        for norm, v in cands:
            if len(picked) == 2:
                break
            if not picked or picked[0][0] * v[1] != picked[0][1] * v[0]:
                picked.append(v)
                lams.append(norm)
        assert lams == [1, 1]
        rep = minima_bruteforce(IntegerLattice(basis), 2, box=4)
        assert rep.lambdas == lams
        assert rep.search_bound == 4

    def test_threads_do_not_change_output(self):
        lat = IntegerLattice([[3, 1, 0], [0, 2, 5], [1, 1, 1]])
        a = minima_bruteforce(lat, 3, box=3, threads=1)
        b = minima_bruteforce(lat, 3, box=3, threads=4)
        assert (a.lambdas, a.witnesses) == (b.lambdas, b.witnesses)

    def test_budget_guard(self):
        lat = IntegerLattice([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        with pytest.raises(ResourceError):
            minima_bruteforce(lat, 1, box=50, budget=1000)

    def test_shortest_ties_sorted(self):
        lam, ties = shortest_nonzero(IntegerLattice([[1, 0], [0, 1]]), box=1)
        assert lam == 1
        assert ties == sorted(ties)

    @pytest.mark.parametrize("box", [0, -2])
    def test_box_below_one_is_a_domain_error(self, box):
        lat = IntegerLattice([[1, 0], [0, 1]])
        with pytest.raises(DomainError, match="box must be at least 1"):
            shortest_nonzero(lat, box=box)
        with pytest.raises(DomainError, match="box must be at least 1"):
            minima_bruteforce(lat, 1, box=box)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_is_a_domain_error(self, k):
        with pytest.raises(DomainError, match="at least 1"):
            minima_bruteforce(IntegerLattice([[3, 1], [0, 2]]), k, box=2)


class TestSaturation:
    def brute_saturated(self, lat, span=4, dmax=10):
        """Oracle: search for alpha outside L with d*alpha inside."""
        n = lat.ambient_dim
        for alpha in itertools.product(range(-span, span + 1), repeat=n):
            if not any(alpha) or lat.contains(alpha):
                continue
            for d in range(2, dmax + 1):
                if lat.contains([d * a for a in alpha]):
                    return False
        return True

    def test_examples(self):
        assert not is_saturated(IntegerLattice([[0, 6]]))
        assert is_saturated(IntegerLattice([[1, 1]]))
        assert is_saturated(IntegerLattice([[1, 0], [0, 1]]))

    def test_witness_for_six(self):
        lat = IntegerLattice([[0, 6]])
        assert not lat.contains([0, 1])
        assert lat.contains([0, 6])

    def test_agrees_with_bruteforce(self, rng):
        for _ in range(25):
            n = rng.randint(1, 3)
            rows = [
                [rng.randint(-3, 3) for _ in range(n)]
                for _ in range(rng.randint(1, n))
            ]
            if not any(any(r) for r in rows):
                continue
            lat = IntegerLattice(rows)
            assert is_saturated(lat) == self.brute_saturated(lat)


class TestIntersection:
    def test_known_intersection(self):
        a = IntegerLattice([[1, -1]])
        b = IntegerLattice([[1, 1]])
        inter = intersect(a, b)
        # {k(1,-1)} meets {k(1,1)} only at 0
        assert inter.rank == 0
        c = intersect(IntegerLattice([[2, 0], [0, 2]]), IntegerLattice([[3, 0], [0, 1]]))
        assert c.hnf == [[6, 0], [0, 2]]

    def test_membership_characterization(self, rng):
        for _ in range(15):
            n = rng.randint(2, 3)
            a = IntegerLattice([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            b = IntegerLattice([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            inter = intersect(a, b)
            for row in inter.hnf:
                assert a.contains(row) and b.contains(row)
            for v in itertools.product(range(-3, 4), repeat=n):
                if a.contains(v) and b.contains(v):
                    assert inter.contains(v)
