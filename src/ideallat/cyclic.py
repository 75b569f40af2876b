"""Tensor view of residues modulo <x1^r1 - 1, ..., xn^rn - 1> and the
axis-wise cyclic shifts that characterize multivariate cyclic lattices.

Storage is row major with the last axis fastest, which makes the flat
tensor data coincide with the coordinate vector on the ascending standard
monomial basis under the default lex order; lattice extraction and tensor
arithmetic therefore share one coordinate system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .poly import Polynomial


def _size(shape):
    """Entry count of a tensor of this shape, whose axes must be positive."""
    if any(r < 1 for r in shape):
        raise DomainError("tensor axes must have positive length")
    return math.prod(shape)


def _strides(shape):
    strides = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return strides


@dataclass(frozen=True)
class Tensor:
    """Integer tensor of shape (r1, ..., rn) stored as a flat row-major list."""

    shape: tuple
    data: tuple

    def __post_init__(self):
        size = _size(self.shape)
        if len(self.data) != size:
            raise DomainError(
                "tensor data has %d entries, shape %r needs %d" % (len(self.data), self.shape, size)
            )

    def __getitem__(self, idx):
        flat = sum(i * s for i, s in zip(idx, _strides(self.shape)))
        return self.data[flat]


def tensor_of(f, shape):
    """Tensor of a residue already reduced modulo <x_i^{r_i} - 1>."""
    shape = tuple(int(r) for r in shape)
    if f.nvars != len(shape):
        raise DomainError("polynomial has %d variables, shape %r" % (f.nvars, shape))
    strides = _strides(shape)
    data = [0] * math.prod(shape)
    for e, c in f.coeffs.items():
        if any(x >= r for x, r in zip(e, shape)):
            raise DomainError("exponent %r out of range for shape %r" % (e, shape))
        data[sum(x * s for x, s in zip(e, strides))] = c
    return Tensor(shape=shape, data=tuple(data))


def element_of(t, modulus=None):
    """Residue polynomial with the tensor's entries as coefficients."""
    shape = t.shape
    strides = _strides(shape)
    coeffs = {}
    for flat, c in enumerate(t.data):
        if not c:
            continue
        e = []
        rem = flat
        for s in strides:
            e.append(rem // s)
            rem %= s
        coeffs[tuple(e)] = c
    return Polynomial(coeffs, len(shape), modulus)


def vector_of(t):
    """Flat coordinate list; matches the quotient basis under default lex."""
    return list(t.data)


def tensor_from_vector(vec, shape):
    shape = tuple(int(r) for r in shape)
    return Tensor(shape=shape, data=tuple(int(x) for x in vec))


def cyclic_shift(t, axis):
    """Rotate slices along ``axis`` (1-based) by one: slice j receives j-1 mod r."""
    n = len(t.shape)
    if not 1 <= axis <= n:
        raise DomainError("axis %d out of range for %d axes" % (axis, n))
    ax = axis - 1
    strides = _strides(t.shape)
    r = t.shape[ax]
    out = [0] * len(t.data)
    for flat, c in enumerate(t.data):
        j = (flat // strides[ax]) % r
        target = flat + ((j + 1) % r - j) * strides[ax]
        out[target] = c
    return Tensor(shape=t.shape, data=tuple(out))


def shift_vector(vec, shape, axis):
    return vector_of(cyclic_shift(tensor_from_vector(vec, shape), axis))


def is_multivariate_cyclic(lattice, shape):
    """True iff the lattice is closed under every axis shift.

    Checking the HNF basis rows suffices because the shifts are linear.
    """
    shape = tuple(int(r) for r in shape)
    size = _size(shape)
    if lattice.ambient_dim != size:
        raise DomainError(
            "lattice lives in dimension %d, shape %r needs %d"
            % (lattice.ambient_dim, shape, size)
        )
    for row in lattice.hnf:
        for axis in range(1, len(shape) + 1):
            if not lattice.contains(shift_vector(row, shape, axis)):
                return False
    return True
