"""Quotient-module structure: dimension, freeness, coordinates, ring
products and lattice-ideal generators."""

import ast
import pathlib
import random

import pytest

import ideallat
from ideallat.errors import DomainError, InfiniteDimensionError, RepresentationError, ResourceError
from ideallat.groebner import Ideal, buchberger, ideal_membership, normal_form, short_reduce
from ideallat.hardness import cyclotomic_sum_ideal
from ideallat.poly import MonomialOrder, Polynomial, parse_polynomial
from ideallat.quotient import (
    build_quotient,
    coordinates,
    from_coordinates,
    lattice_ideal,
    multiplication_matrix,
    quotient_mul,
    residue,
)

from conftest import random_ideal, random_polynomial


def P(text, nvars, modulus=None):
    return parse_polynomial(text, nvars, modulus)


def longdiv_mod(f_coeffs, divisor_coeffs):
    """Oracle: univariate polynomial long division remainder over Z,
    valid for a monic divisor.  Coefficient lists are little-endian."""
    r = list(f_coeffs)
    d = len(divisor_coeffs) - 1
    assert divisor_coeffs[-1] == 1
    while len(r) - 1 >= d:
        lead = r[-1]
        for i, c in enumerate(divisor_coeffs):
            r[len(r) - 1 - d + i] -= lead * c
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return r


class TestBuildQuotient:
    def test_worked_example(self):
        q = build_quotient(Ideal([P("3*x^2", 2), P("5*x^2", 2), P("y", 2)], 2))
        assert q.free and q.N == 2
        assert q.basis == [(0, 0), (1, 0)]
        assert q.gb.is_monic

    def test_ternary_box_dimension(self):
        q = build_quotient(Ideal([P("x^2-1", 3), P("y^2-1", 3), P("z^3-1", 3)], 3))
        assert q.free and q.N == 12
        expected = {
            (a, b, c) for a in range(2) for b in range(2) for c in range(3)
        }
        assert set(q.basis) == expected

    def test_torsion_example_by_hand(self):
        # oracle: hand-applied module decomposition of Z[x]/<2x, x^2>:
        # monomial 1 is free, monomial x carries content 2, x^2 collapses.
        q = build_quotient(Ideal([P("2*x", 1), P("x^2", 1)], 1))
        assert not q.free
        assert q.N == 2
        assert q.torsion == {(1,): 2}
        assert q.basis == [(0,)]

    def test_infinite_dimension_names_variable(self):
        with pytest.raises(InfiniteDimensionError) as exc:
            build_quotient(Ideal([P("x*y - 1", 2)], 2))
        assert exc.value.variable in ("x", "y")

    def test_unit_ideal_collapses(self):
        q = build_quotient(Ideal([P("1", 2)], 2))
        assert q.free and q.N == 0 and q.basis == []

    def test_free_iff_monic_on_corpus(self, rng):
        done = 0
        while done < 30:
            ideal = random_ideal(rng)
            try:
                q = build_quotient(ideal, pair_budget=1500)
            except InfiniteDimensionError:
                continue
            except ResourceError:
                continue
            done += 1
            assert q.free == q.gb.is_monic
            if not q.free:
                witness = next(iter(q.torsion.values()))
                assert witness not in (0, 1)
                with pytest.raises(RepresentationError):
                    coordinates(Polynomial.constant(1, ideal.nvars), q)


class TestCoordinates:
    def test_worked_example_vector(self):
        q = build_quotient(Ideal([P("x^2", 2), P("y", 2)], 2))
        assert coordinates(P("6*x", 2), q) == [0, 6]

    def test_zero_maps_to_zero(self):
        q = build_quotient(Ideal([P("x^2", 2), P("y", 2)], 2))
        assert coordinates(Polynomial.zero(2), q) == [0, 0]

    def test_cubic_root_of_unity_by_long_division(self):
        # oracle: long division of x^3 by x^2+x+1 leaves remainder 1
        assert longdiv_mod([0, 0, 0, 1], [1, 1, 1]) == [1]
        q = build_quotient(Ideal([P("x^2+x+1", 1)], 1))
        assert coordinates(P("x^3", 1), q) == [1, 0]

    def test_round_trip_and_additivity(self, rng):
        q = build_quotient(Ideal([P("x^2-1", 2), P("y^3-1", 2)], 2))
        for _ in range(40):
            f = random_polynomial(rng, 2)
            g = random_polynomial(rng, 2)
            vf, vg = coordinates(f, q), coordinates(g, q)
            assert coordinates(f + g, q) == [a + b for a, b in zip(vf, vg)]
            assert coordinates(from_coordinates(vf, q), q) == vf

    def test_refused_on_torsion(self):
        q = build_quotient(Ideal([P("2*x", 1), P("x^2", 1)], 1))
        with pytest.raises(RepresentationError):
            coordinates(P("x", 1), q)
        with pytest.raises(RepresentationError):
            from_coordinates([1], q)


class TestResidue:
    RINGS = [
        (["x^2+x+1"], 1, None),
        (["x^2-1", "y^3-1"], 2, 17),
        (["2*x", "x^2"], 1, None),  # torsion at x
    ]

    @pytest.mark.parametrize("gens, nvars, modulus", RINGS)
    def test_standard_monomials_are_their_own_residue(self, rng, gens, nvars, modulus):
        q = build_quotient(Ideal([P(t, nvars, modulus) for t in gens], nvars, modulus))
        for _ in range(20):
            f = Polynomial({e: rng.randint(-9, 9) for e in q.basis}, nvars, modulus)
            assert residue(f, q) is f
            assert normal_form(f, q.gb) == f

    @pytest.mark.parametrize("gens, nvars, modulus", RINGS)
    def test_off_the_basis_it_is_the_normal_form(self, rng, gens, nvars, modulus):
        q = build_quotient(Ideal([P(t, nvars, modulus) for t in gens], nvars, modulus))
        for _ in range(20):
            f = random_polynomial(rng, nvars, max_deg=4, modulus=modulus)
            assert residue(f, q) == normal_form(f, q.gb)

    @pytest.mark.parametrize("f", [P("x", 1, 5), P("x^2", 1, 5), Polynomial.zero(1, 5)])
    def test_foreign_modulus_raises_as_normal_form_does(self, f):
        q = build_quotient(Ideal([P("x^2+x+1", 1, 17)], 1, 17))
        with pytest.raises(DomainError) as want:
            normal_form(f, q.gb)
        with pytest.raises(DomainError) as got:
            residue(f, q)
        assert str(got.value) == str(want.value)


def test_normal_form_is_taken_only_in_groebner_and_quotient():
    """Every other module reaches normal forms through quotient.residue;
    __init__ only lists the name in its export table."""
    users = []
    for path in sorted(pathlib.Path(ideallat.__file__).parent.glob("*.py")):
        if path.name in ("groebner.py", "quotient.py"):
            continue
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            exports = [
                n for n in tree.body
                if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == "_EXPORTS"
            ]
            assert len(exports) == 1
            tree.body.remove(exports[0])
        for node in ast.walk(tree):
            # identifiers, attributes, imports, definitions and string constants
            if "normal_form" in [getattr(node, a, None) for a in ("id", "attr", "name", "asname", "value")]:
                users.append("%s:%d" % (path.name, node.lineno))
    assert users == []


class TestQuotientMul:
    def test_square_relations(self):
        q1 = build_quotient(Ideal([P("x^2-1", 1)], 1))
        assert quotient_mul(P("x", 1), P("x", 1), q1) == P("1", 1)
        q2 = build_quotient(Ideal([P("x^2+x+1", 1)], 1))
        # oracle: long division of x^2 by x^2+x+1 -> remainder -x-1
        assert longdiv_mod([0, 0, 1], [1, 1, 1]) == [-1, -1]
        assert quotient_mul(P("x", 1), P("x", 1), q2) == P("-x-1", 1)

    def test_zero_annihilates(self):
        q = build_quotient(Ideal([P("x^2-1", 1)], 1))
        assert quotient_mul(P("x+3", 1), Polynomial.zero(1), q).is_zero

    def test_bilinear(self, rng):
        q = build_quotient(Ideal([P("x^3-1", 1)], 1))
        for _ in range(25):
            f, g, h = (random_polynomial(rng, 1) for _ in range(3))
            lhs = quotient_mul(f + g, h, q)
            rhs = quotient_mul(f, h, q) + quotient_mul(g, h, q)
            assert lhs == rhs


def _products_matrix(f, q):
    """Oracle: the coordinates of f times every basis monomial, one product each."""
    return [coordinates(quotient_mul(f, b, q), q) for b in q.basis_polynomials()]


MATRIX_RINGS = {
    "x3-1,y5-1": lambda: Ideal([P("x^3-1", 2), P("y^5-1", 2)], 2),
    "cyclotomic-sum-3-5": lambda: cyclotomic_sum_ideal((3, 5)),
    "x2-1,y2-1,z3-1": lambda: Ideal([P("x^2-1", 3), P("y^2-1", 3), P("z^3-1", 3)], 3),
    "x32+1-mod-12289": lambda: Ideal([P("x^32+1", 1, 12289)], 1, 12289),
}


class TestMultiplicationMatrix:
    @pytest.mark.parametrize("name", sorted(MATRIX_RINGS))
    def test_rows_equal_reduced_products(self, name, rng):
        q = build_quotient(MATRIX_RINGS[name]())
        assert q.free
        samples = [Polynomial.zero(q.nvars, q.modulus), Polynomial.constant(1, q.nvars, q.modulus)]
        samples += [
            random_polynomial(rng, q.nvars, max_deg=6, max_terms=6, modulus=q.modulus)
            for _ in range(6)
        ]
        for f in samples:
            assert multiplication_matrix(f, q) == _products_matrix(f, q)
        # the per-variable matrices are now cached; a cold ring agrees
        assert q.var_matrices
        cold = build_quotient(MATRIX_RINGS[name]())
        assert multiplication_matrix(samples[-1], cold) == multiplication_matrix(samples[-1], q)

    def test_rows_are_residues_mod_p(self):
        q = build_quotient(MATRIX_RINGS["x32+1-mod-12289"]())
        mat = multiplication_matrix(P("x^31", 1, 12289), q)
        # x^31 * x = x^32 = -1
        assert mat[1] == [12288] + [0] * 31
        assert all(0 <= x < 12289 for row in mat for x in row)

    def test_refused_on_torsion(self):
        q = build_quotient(Ideal([P("2*x", 1), P("x^2", 1)], 1))
        assert not q.free
        with pytest.raises(RepresentationError):
            multiplication_matrix(P("x+1", 1), q)

    def test_build_quotient_leaves_cache_empty(self):
        for make in MATRIX_RINGS.values():
            assert build_quotient(make()).var_matrices == {}


class TestLatticeIdeal:
    def test_sign_split(self):
        ideal = lattice_ideal([[1, -1]])
        assert ideal.generators == [P("x1 - x2", 2)]
        ideal = lattice_ideal([[2, 0, -3]])
        assert ideal.generators == [P("x1^2 - x3^3", 3)]

    def test_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            lattice_ideal([[0, 0]])

    def test_completion_membership(self):
        # x1^3 - 1 is in <x1 - x2, x2^3 - 1> (oracle: explicit combination)
        gens = lattice_ideal([[1, -1], [0, 3]]).generators
        f = P("x^3-1", 2)
        combo = P("x^2 + x*y + y^2", 2) * gens[0] + P("1", 2) * gens[1]
        assert combo == f
        gb = short_reduce(buchberger(Ideal(gens, 2), MonomialOrder("lex")))
        assert ideal_membership(f, gb)

    def test_lattice_ideal_basis_is_monic(self, rng):
        for _ in range(20):
            n = rng.randint(2, 3)
            rows = []
            for _ in range(rng.randint(1, n)):
                row = [rng.randint(-3, 3) for _ in range(n)]
                if any(row):
                    rows.append(row)
            if not rows:
                continue
            ideal = lattice_ideal(rows)
            gb = short_reduce(buchberger(ideal, MonomialOrder("lex"), pair_budget=20_000))
            assert gb.is_monic


class TestDimensionFormulas:
    @pytest.mark.parametrize("shape", [(2,), (3,), (2, 2), (2, 3), (2, 2, 3)])
    def test_cyclic_family(self, shape):
        n = len(shape)
        gens = [
            Polynomial.variable(i, n, power=r) - 1 for i, r in enumerate(shape)
        ]
        q = build_quotient(Ideal(gens, n))
        prod = 1
        for r in shape:
            prod *= r
        assert q.N == prod and q.free

    @pytest.mark.parametrize("shape", [(2,), (3,), (2, 3), (3, 3), (5,)])
    def test_cyclotomic_family(self, shape):
        from ideallat.hardness import cyclotomic_sum_ideal

        q = build_quotient(cyclotomic_sum_ideal(shape))
        prod = 1
        for r in shape:
            prod *= r - 1
        assert q.N == prod and q.free
