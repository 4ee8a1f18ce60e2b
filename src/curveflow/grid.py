"""Discrete calculus on the periodic parameter interval of a closed curve.

Fields live on the uniform nodes j/n, j = 0..n-1, of [0, 1) with periodic
wrap-around.  Derivatives are pseudospectral (the Nyquist mode zeroed for odd
derivative orders), quadrature is the exact mean on the torus, and the stiff
fourth-order solve is a per-mode division to a given mean.

The spectral operators take one of two routes, chosen by n alone when a
``Grid`` is made, so that a batch row and a single field always take the
same arithmetic:

- above ``_DENSE_MAX_N`` nodes, a real FFT pair;
- up to ``_DENSE_MAX_N`` nodes, products with dense matrices, the
  matrix multiplication transform that beats the FFT on short rows (Boyd,
  Chebyshev and Fourier Spectral Methods, 2nd ed., 2001, ch. 10).
  ``derivs`` and ``solve_stiff`` multiply by the real DFT matrix, apply the
  FFT route's per-mode multiplier and multiply by the inverse DFT matrix;
  ``cumint`` is one product with its running-integral matrix.  Each matrix
  is the FFT route applied to the identity, so every symbol is defined once.

``solve_stiff`` sets its solution's mode 0, the only mode that carries a
mean, to a target mean, and applies the stacked symbols 1, ik and (ik)^2
to the solved modes, so one inverse transform returns the solution with its
first two derivatives (Trefethen, Spectral Methods in MATLAB, 2000, ch. 3).
The semi-implicit step projects its turning that way and carries the
derivatives to the next step's assembly.

On the dense route a field v enters as v - v[..., :1], whose first value is
exactly 0; that slot carries v[..., :1] instead, and the matrices map it to
the operator's exact image of a constant c: 0 for a derivative, c * r for
the running integral; the stiff solve writes its target mean there and
maps it to that constant.  A constant field then maps exactly: a circle
stays exactly a circle.  Two rules keep batch rows bitwise equal to single
fields, because a GEMM row does not depend on how many rows share the
product:

- every product has at least two rows, since NumPy sends a one-row product
  through GEMV, which rounds differently.  The rule lives where a field is
  centred: ``_centred`` writes a lone field (or a stack of one) into two or
  more identical rows of one buffer, and the operators carry those rows
  through; ``derivs`` multiplies its k rows (two for one order) by the k
  stacked symbols, so each row is one derivative of the field;
- every matrix's width is a multiple of 8 (zero columns pad it); OpenBLAS's
  rows depend on the row count at widths 2 or 4 mod 8 from 18 up.

A third rule holds outside the products: a lone field's per-field values
(its length) are raised to a power only as arrays.  ``**`` on a NumPy
scalar or a float calls the C library's pow, which rounds L^4 differently
from the array loop for about one length in twenty in [0.5, 20] (and x^2
differently from x * x for about one in a thousand); +, -, * and / round
alike on every path.

The matrices and symbols are a grid's constants: read-only attributes
(``functools.cached_property``), each made on first use, so ``Grid(n)``
builds none of them and a step reads them without a lookup.  ``cached`` keeps
what a caller keys by a parameter, such as the symbols of one tuple of
derivative orders.

All operations accept arrays of shape ``(..., n)`` and act along the last
axis, so stacked batches of fields go through the same code path as single
fields, and a stack of several fields shares one transform pair (``derivs``
for several derivative orders, ``cumint`` for several integrands).  They
check nothing: states are validated once, where they enter, by
``flows.check_state``, which calls ``check_field``.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# 24 times the one-sided cubic's weights for an end interval, nearest sample first
_END_WEIGHTS = np.array([9.0, 19.0, -5.0, 1.0])


def cumulative_quadrature(values, h):
    """Running integral of uniformly spaced samples, fourth order.

    Each interval [j, j+1] is integrated with the cubic through its four
    nearest samples (one-sided cubics on the first and last intervals), and
    the per-interval increments are summed.  Exact for cubic polynomials.

    Parameters
    ----------
    values : ndarray, shape (..., m) with m >= 4
    h : float or ndarray
        Sample spacing, or one per row, shaped to broadcast against values.

    Returns
    -------
    ndarray of the same shape, starting at 0.
    """
    v = np.asarray(values, dtype=float)
    m = v.shape[-1]
    if m < 4:
        raise ValueError(f"cumulative quadrature needs at least 4 samples, got {m}")
    out = np.empty_like(v)
    out[..., 0] = 0.0
    # 24 times each interval's increment, summed in place and scaled once
    inc = out[..., 1:]
    inc[..., 0] = v[..., :4] @ _END_WEIGHTS
    inc[..., -1] = v[..., :-5:-1] @ _END_WEIGHTS
    mid = inc[..., 1:-1]
    np.add(v[..., 1 : m - 2], v[..., 2 : m - 1], out=mid)
    mid *= 13.0
    mid -= v[..., 0 : m - 3]
    mid -= v[..., 3:m]
    np.cumsum(inc, axis=-1, out=inc)
    inc *= h / 24.0
    return out


# Largest grid whose spectral operators are dense products (see the module
# docstring); 96 is the measured crossover, and larger grids use the FFT
_DENSE_MAX_N = 96


def _product(rows, matrix):
    """One dense transform: rows @ matrix for 2-D rows, at least two of them
    (see the module docstring)."""
    return rows @ matrix


def _fields(rows, shape):
    """The fields of the given shape in a dense product's rows: the leading
    rows (a lone field's first copy) and the first n columns (zero columns
    pad the matrices)."""
    if rows.shape == shape:
        return rows
    if len(shape) == 1:
        return rows[0, : shape[0]]
    return rows[: math.prod(shape[:-1]), : shape[-1]].reshape(shape)


def _padded(width):
    """width rounded up to a multiple of 8."""
    return -(-width // 8) * 8


def _frozen(array):
    """The array, made read-only: a grid's constants are shared by every caller."""
    array.setflags(write=False)
    return array


class Grid:
    """Uniform periodic nodes j/n, j = 0..n-1, on [0, 1), with discrete calculus.

    Parameters
    ----------
    n : int
        Node count; even and at least 8, so the real-valued transforms pair
        modes.
    """

    def __init__(self, n):
        n = int(n)
        if n < 8 or n % 2 != 0:
            raise ValueError(f"grid needs an even n >= 8, got {n}")
        self.n = n
        self.nodes = np.arange(n) / n
        self._cache = {}
        self._dense = n <= _DENSE_MAX_N
        # 2*pi*k for the modes k = 0..n/2, one per complex slot of a spectrum,
        # then 0 in the slots that pad a dense grid's forward matrix
        half = n // 2 + 1
        self._k = np.zeros(_padded(n + 2) // 2 if self._dense else half)
        self._k[:half] = 2.0 * np.pi * np.arange(half)
        self._k4 = self._k**4

    def __repr__(self):
        return f"Grid(n={self.n})"

    # -- helpers ---------------------------------------------------------

    def check_field(self, values):
        """Validate a field at an API boundary: n values per row, all finite.

        The calculus methods below check nothing; the entry points (``run``,
        ``run_ensemble``, reconstruction) validate their states once through
        ``flows.check_state`` instead.
        """
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.n:
            raise ValueError(f"field has {v.shape[-1]} values, grid has {self.n} nodes")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        return v

    def cached(self, key, build):
        """The array stored under key, made by build() on first use.

        Everything cached is derived from the node set, so it is shared by
        every caller on this grid; cached arrays are read-only.
        """
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = _frozen(build())
        return value

    # -- transforms ------------------------------------------------------

    def _centred(self, v, copies):
        """The fields v as rows, each v - v[..., :1] with v[..., :1] in the
        first slot, where the difference is 0 (see the module docstring): a
        stack as its (-1, n) rows, a lone field, or a stack of one, as
        max(copies, 2) identical rows."""
        n = self.n
        if v.size != n:
            centred = v - v[..., :1]
            centred[..., 0] = v[..., 0]
            return centred.reshape(-1, n)
        v0 = v[..., 0]
        centred = v - v0
        centred[..., 0] = v0
        rows = np.empty((max(copies, 2), n))
        rows[:] = centred
        return rows

    def _to_modes(self, v, copies=2):
        """The real Fourier modes of the fields v along the last axis:
        ``rfft(v)``, or on a dense grid the rows of ``_centred(v, copies)``
        times the real DFT matrix (see ``_forward_matrix``), as complex
        rows."""
        if not self._dense:
            return np.fft.rfft(v, axis=-1)
        return _product(self._centred(v, copies), self._forward_matrix).view(complex)

    def _from_modes(self, vh, operator, shape):
        """The fields of the given shape whose real Fourier modes are vh:
        ``irfft(vh)``, or on a dense grid the rows of vh times the
        operator's inverse DFT matrix (see ``_derivs_inverse_matrix``),
        shaped by ``_fields``."""
        if not self._dense:
            return np.fft.irfft(vh, self.n, axis=-1)
        if operator == "solve_stiff":
            matrix = self._solve_inverse_matrix
        else:
            matrix = self._derivs_inverse_matrix
        return _fields(_product(vh.view(float).reshape(-1, len(matrix)), matrix), shape)

    @cached_property
    def _forward_matrix(self):
        """rfft of the unit fields as rows of an (n, width) real matrix:
        columns 2k and 2k + 1 hold mode k's real and imaginary parts, and
        the columns past n + 2 are 0.  Row 0 takes the centred fields' first
        slot, the constant, to mode 0's imaginary part, which the rfft of a
        real field leaves 0."""
        n = self.n
        out = np.zeros((n, _padded(n + 2)))
        out[1:, : n + 2] = np.fft.rfft(np.eye(n)[1:], axis=-1).view(float)
        out[0, 1] = 1.0
        return _frozen(out)

    @cached_property
    def _derivs_inverse_matrix(self):
        """irfft of a unit real or imaginary part of each mode, one row each,
        as a real matrix with a zero row for each padding slot.  The row of
        mode 0's imaginary part, the constant (see ``_forward_matrix``), is
        0, as irfft makes it."""
        n = self.n
        out = np.zeros((_padded(n + 2), _padded(n)))
        out[: n + 2, :n] = np.fft.irfft(np.eye(n + 2).view(complex), n, axis=-1)
        return _frozen(out)

    @cached_property
    def _solve_inverse_matrix(self):
        """``_derivs_inverse_matrix`` with 1 in the row of mode 0's imaginary
        part, where ``solve_stiff`` writes its target mean: x's row maps it
        to that constant exactly, and the derivative rows meet it times
        (ik)^j = 0."""
        out = self._derivs_inverse_matrix.copy()
        out[1, : self.n] = 1.0
        return _frozen(out)

    @cached_property
    def _cumint_matrix(self):
        """The FFT route's running integral of the unit fields as rows of an
        (n, width) real matrix, with row 0, for the centred fields'
        constant, the exact running integral of 1: the nodes."""
        n = self.n
        out = np.zeros((n, _padded(n)))
        out[1:, :n] = self._fft_cumint(np.eye(n)[1:])
        out[0, :n] = self.nodes
        return _frozen(out)

    def _symbol(self, order):
        """Fourier multiplier (ik)^order; odd orders drop the Nyquist mode,
        which carries no usable odd derivative."""
        sym = (1j * self._k) ** order
        if order % 2 == 1:
            sym[self.n // 2] = 0.0
        return sym

    # -- derivatives -----------------------------------------------------

    def derivs(self, values, orders):
        """Derivatives of several orders (each 1..4) along the last axis.

        Returns shape (len(orders), ..., n): one forward transform, and the
        stacked multipliers applied in one inverse transform.  On a dense
        grid a lone field's rows, one per order, meet the stacked symbols
        row by row.
        """
        orders = tuple(orders)
        sym = self.cached(("symbols", orders), lambda: self._symbols(orders))
        return self._stacked(self._to_modes(values, len(orders)), sym, "derivs", values.shape)

    def _stacked(self, vh, sym, operator, shape):
        """The fields of the given shape whose modes are vh times each of the
        k stacked symbols sym, shape (k, *shape), from one inverse transform.
        On a dense grid a lone field's k rows (two for k = 1) meet the
        symbols row by row."""
        k = len(sym)
        if self._dense and math.prod(shape) == self.n:
            vh *= sym
        else:
            vh = vh * sym.reshape((k,) + (1,) * (vh.ndim - 1) + sym.shape[-1:])
        return self._from_modes(vh, operator, (k,) + shape)

    def _symbols(self, orders):
        for order in orders:
            if order not in (1, 2, 3, 4):
                raise ValueError(f"derivative order must be in 1..4, got {order}")
        return np.stack([self._symbol(o) for o in orders])

    def deriv(self, values, order):
        """Discrete derivative of the given order (1..4) along the last axis."""
        return self.derivs(values, (order,))[0]

    # -- quadrature ------------------------------------------------------

    def integrate(self, values):
        """Integral over the parameter interval [0, 1]: the mean.

        Written as the sum over n, which is what ``np.mean`` computes, bit
        for bit, without its dispatch overhead.
        """
        return np.add.reduce(values, axis=-1) / self.n

    def cumint(self, values):
        """Running integral r -> integral of the field from 0 to r.

        The mean (the zero mode) contributes linearly and the zero-mean
        remainder is integrated spectrally, so periodic integrands are
        handled without seam error; a stack of fields shares one transform
        pair, or on a dense grid one product with the running-integral
        matrix.
        """
        if not self._dense:
            return self._fft_cumint(values)
        return _fields(_product(self._centred(values, 2), self._cumint_matrix), values.shape)

    def _fft_cumint(self, v):
        """cumint through one real FFT pair: the route above ``_DENSE_MAX_N``,
        and on a dense grid the source of the running-integral matrix."""
        anti = np.fft.rfft(v, axis=-1)
        out = (anti[..., :1].real / self.n) * self.nodes  # the mean, integrated linearly
        anti *= self._antiderivative_symbol
        periodic = np.fft.irfft(anti, self.n, axis=-1)
        del anti
        out += periodic
        out -= periodic[..., :1]
        return out

    @cached_property
    def _antiderivative_symbol(self):
        """1/(ik), zero on the mean (integrated linearly instead) and on the
        Nyquist mode, whose antiderivative vanishes at the nodes."""
        k = self._k[: self.n // 2 + 1]
        inv = np.zeros(k.shape, dtype=complex)
        inv[1:-1] = 1.0 / (1j * k[1:-1])
        return _frozen(inv)

    # -- stiff fourth-order operator --------------------------------------

    def solve_stiff(self, rhs, length, dt, mean):
        """Solve (I + dt*(1/L^4) d^4/dr^4) x = rhs along the last axis, with
        the mean of x set to ``mean``.

        ``length`` and ``mean`` may be scalars or arrays matching the batch
        shape of ``rhs`` (one per stacked field).  The solve sets the mean in
        mode 0, the only mode that carries a mean, and returns [x, x', x''],
        shape (3, *B, n): the solved modes times the stacked symbols 1, ik
        and (ik)^2 in one inverse transform.
        """
        # the power of an array, never of a scalar: a NumPy scalar's or a
        # float's ** rounds differently, and a lone field must get its batch
        # row's bits
        scale = dt / np.asarray(length, dtype=float) ** 4
        vh = self._to_modes(rhs, 3)
        if rhs.ndim > 1:  # one length per row of vh: the dense route's rows are (-1, slots)
            scale = scale.reshape(-1, 1) if self._dense else scale[..., None]
        vh /= 1.0 + self._k4 * scale
        if self._dense:  # mode 0's imaginary part is the constant (see _forward_matrix)
            modes = vh.view(float)
            modes[:, 0] = 0.0
            modes[:, 1] = np.reshape(mean, -1) if rhs.ndim > 2 else mean
        else:
            vh[..., 0] = self.n * mean
        return self._stacked(vh, self._solve_symbols, "solve_stiff", rhs.shape)

    @cached_property
    def _solve_symbols(self):
        """The stacked symbols 1, ik and (ik)^2 that give [x, x', x'']."""
        return _frozen(np.stack([self._symbol(o) for o in (0, 1, 2)]))

    # -- spectral utilities ------------------------------------------------

    def resample(self, values, m):
        """Trigonometric interpolation of the field onto m nodes."""
        m = int(m)
        if m < 8 or m % 2 != 0:
            raise ValueError(f"resample target must be even and >= 8, got {m}")
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.n:
            raise ValueError(f"field has {v.shape[-1]} values, grid has {self.n} nodes")
        if m == self.n:
            return v.copy()
        vh = np.fft.rfft(v, axis=-1)
        n = self.n
        if m > n:
            out = np.zeros(v.shape[:-1] + (m // 2 + 1,), dtype=complex)
            out[..., : n // 2 + 1] = vh
            out[..., n // 2] *= 0.5  # self-conjugate mode becomes an interior pair
        else:
            out = vh[..., : m // 2 + 1].copy()
            out[..., m // 2] = 2.0 * out[..., m // 2].real
        return np.fft.irfft(out, m, axis=-1) * (m / n)
