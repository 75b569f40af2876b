"""Tensor view, axis shifts and shift-closure of ideal lattices."""

import random

import pytest

from ideallat.cyclic import (
    Tensor,
    cyclic_shift,
    element_of,
    is_multivariate_cyclic,
    tensor_of,
    tensor_from_vector,
    vector_of,
)
from ideallat.errors import DomainError
from ideallat.groebner import Ideal
from ideallat.lattice import IntegerLattice, ideal_to_lattice
from ideallat.poly import Polynomial, parse_polynomial
from ideallat.quotient import build_quotient, coordinates, quotient_mul


def P(text, nvars):
    return parse_polynomial(text, nvars)


def cyclic_quotient(shape):
    n = len(shape)
    gens = [Polynomial.variable(i, n, power=r) - 1 for i, r in enumerate(shape)]
    return build_quotient(Ideal(gens, n))


def random_reduced(rng, shape):
    import itertools

    coeffs = {}
    for e in itertools.product(*(range(r) for r in shape)):
        c = rng.randint(-5, 5)
        if c:
            coeffs[e] = c
    return Polynomial(coeffs, len(shape))


class TestTensorBijection:
    def test_univariate_pair(self):
        t = tensor_of(P("3 + 7*x", 1), (2,))
        assert t.data == (3, 7)
        assert element_of(t) == P("3 + 7*x", 1)

    def test_cube_basis_size(self):
        q = cyclic_quotient((2, 2, 3))
        assert q.N == 12
        # tensor coordinates coincide with quotient coordinates
        rng = random.Random(3)
        for _ in range(20):
            f = random_reduced(rng, (2, 2, 3))
            assert list(tensor_of(f, (2, 2, 3)).data) == coordinates(f, q)

    def test_round_trip_random(self, rng):
        for _ in range(40):
            shape = rng.choice([(2,), (3,), (2, 2), (2, 3), (2, 2, 3)])
            f = random_reduced(rng, shape)
            assert element_of(tensor_of(f, shape)) == f
            vec = [rng.randint(-9, 9) for _ in range(len(tensor_of(f, shape).data))]
            t = tensor_from_vector(vec, shape)
            assert vector_of(t) == vec

    def test_out_of_range_exponent(self):
        with pytest.raises(DomainError):
            tensor_of(P("x^2", 1), (2,))


class TestShift:
    def test_swap_on_pair(self):
        t = tensor_from_vector([3, 7], (2,))
        assert cyclic_shift(t, 1).data == (7, 3)

    def test_full_rotation_is_identity(self, rng):
        for shape in [(2,), (3,), (2, 3), (2, 2, 3)]:
            f = random_reduced(rng, shape)
            t = tensor_of(f, shape)
            for axis, r in enumerate(shape, start=1):
                cur = t
                for _ in range(r):
                    cur = cyclic_shift(cur, axis)
                assert cur == t

    def test_axis2_slices_rotate(self):
        # oracle: direct index computation on shape (2, 3), axis 2:
        # slices (S0, S1, S2) become (S2, S0, S1)
        data = [1, 2, 3, 4, 5, 6]  # rows (1,2,3) and (4,5,6)
        t = tensor_from_vector(data, (2, 3))
        out = cyclic_shift(t, 2)
        assert list(out.data) == [3, 1, 2, 6, 4, 5]

    def test_bad_axis(self):
        t = tensor_from_vector([1, 2], (2,))
        with pytest.raises(DomainError):
            cyclic_shift(t, 3)

    def test_multiplication_is_shift(self, rng):
        for shape in [(2,), (3,), (2, 2), (2, 3), (2, 2, 3)]:
            q = cyclic_quotient(shape)
            for _ in range(20):
                f = random_reduced(rng, shape)
                t = tensor_of(f, shape)
                for axis in range(1, len(shape) + 1):
                    xi = Polynomial.variable(axis - 1, len(shape))
                    shifted = tensor_of(quotient_mul(xi, f, q), shape)
                    assert shifted == cyclic_shift(t, axis)

    def test_shifts_commute_and_are_linear(self, rng):
        shape = (2, 2, 3)
        for _ in range(25):
            f = random_reduced(rng, shape)
            g = random_reduced(rng, shape)
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            tf, tg = tensor_of(f, shape), tensor_of(g, shape)
            for i in range(1, 4):
                for j in range(1, 4):
                    assert cyclic_shift(cyclic_shift(tf, i), j) == cyclic_shift(
                        cyclic_shift(tf, j), i
                    )
                combo = tensor_of(a * f + b * g, shape)
                lhs = cyclic_shift(combo, i)
                rhs_data = tuple(
                    a * x + b * y
                    for x, y in zip(cyclic_shift(tf, i).data, cyclic_shift(tg, i).data)
                )
                assert lhs.data == rhs_data


class TestShiftClosure:
    def test_ideal_lattices_are_cyclic(self, rng):
        for shape in [(3,), (2, 2), (2, 3)]:
            q = cyclic_quotient(shape)
            for _ in range(8):
                gens = [random_reduced(rng, shape) for _ in range(rng.randint(1, 2))]
                gens = [g for g in gens if not g.is_zero]
                if not gens:
                    continue
                lat = ideal_to_lattice(q, gens)
                if lat.rank == 0:
                    continue
                assert is_multivariate_cyclic(lat, shape)

    def test_non_closed_lattice(self):
        lat = IntegerLattice([[1, 0]])
        assert not is_multivariate_cyclic(lat, (2,))

    def test_full_lattice(self):
        lat = IntegerLattice([[1, 0], [0, 1]])
        assert is_multivariate_cyclic(lat, (2,))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            is_multivariate_cyclic(IntegerLattice([[1, 0]]), (3,))

    @pytest.mark.parametrize("shape", [(2, 0), (0,), (-1, -2)])
    def test_shape_axes_must_be_positive(self, shape):
        with pytest.raises(DomainError, match="tensor axes must have positive length"):
            is_multivariate_cyclic(IntegerLattice([], ambient_dim=0), shape)
