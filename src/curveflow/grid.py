"""Discrete calculus on the periodic parameter interval of a closed curve.

Fields live on the uniform nodes j/n, j = 0..n-1, of [0, 1) with periodic
wrap-around.  Derivatives are pseudospectral (the Nyquist mode zeroed for odd
derivative orders), quadrature is the exact mean on the torus, and the stiff
fourth-order solve is a per-mode division.

The spectral operators take one of two routes, chosen by n alone, so that a
batch row and a single field always take the same arithmetic:

- above ``_DENSE_MAX_N`` nodes, a real FFT pair;
- up to ``_DENSE_MAX_N`` nodes, products with cached dense matrices, the
  matrix multiplication transform that beats the FFT on short rows (Boyd,
  Chebyshev and Fourier Spectral Methods, 2nd ed., 2001, ch. 10).
  ``derivs`` and ``solve_stiff`` multiply by the real DFT matrix, apply the
  FFT route's per-mode multiplier and multiply by the inverse DFT matrix;
  ``cumint`` is one product with its running-integral matrix.  Each matrix
  is the FFT route applied to the identity, so every symbol is defined once.

On the dense route a field v enters as v - v[..., :1], whose first value is
exactly 0; that slot carries v[..., :1] instead, and the matrices map it to
the operator's exact image of a constant c: 0 for a derivative, c for the
stiff solve, c * r for the running integral.  A constant field then maps
exactly: a circle stays exactly a circle.  Two rules keep batch rows
bitwise equal to single fields, because a GEMM row does not depend on how
many rows share the product:

- every product has at least two rows: a one-row field is multiplied as the
  first of two equal rows, since NumPy sends a one-row product through GEMV,
  which rounds differently;
- every matrix's width is a multiple of 8 (zero columns pad it); OpenBLAS's
  rows depend on the row count at widths 2 or 4 mod 8 from 18 up.

All operations accept arrays of shape ``(..., n)`` and act along the last
axis, so stacked batches of fields go through the same code path as single
fields, and a stack of several fields shares one transform pair (``derivs``
for several derivative orders, ``cumint`` for several integrands).  They
check the node count but not finiteness: states are validated once, where
they enter, by ``flows.check_state``, which calls ``check_field``.
"""

from __future__ import annotations

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
    h : float
        Sample spacing.

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
    """One dense transform: rows @ matrix, for 2-D rows of at least two rows
    (see the module docstring)."""
    return rows @ matrix


def _padded(width):
    """width rounded up to a multiple of 8."""
    return -(-width // 8) * 8


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

    def __repr__(self):
        return f"Grid(n={self.n})"

    # -- helpers ---------------------------------------------------------

    def check_field(self, values):
        """Validate a field at an API boundary: n values per row, all finite.

        The calculus methods below check only the node count; the entry
        points (``run``, ``run_ensemble``, reconstruction) validate their
        states once through ``flows.check_state`` instead.
        """
        v = self._field(values)
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        return v

    def _field(self, values):
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.n:
            raise ValueError(f"field has {v.shape[-1]} values, grid has {self.n} nodes")
        return v

    def cached(self, key, build):
        """The array stored under key, made by build() on first use.

        Everything cached is derived from the node set, so it is shared by
        every caller on this grid; cached arrays are read-only.
        """
        value = self._cache.get(key)
        if value is None:
            value = build()
            value.setflags(write=False)
            self._cache[key] = value
        return value

    def _dense(self):
        return self.n <= _DENSE_MAX_N

    def _slots(self):
        """Complex mode slots per row of a spectrum: n/2 + 1, or on a dense
        grid half the forward matrix's padded width, the extra slots 0."""
        return _padded(self.n + 2) // 2 if self._dense() else self.n // 2 + 1

    def _wavenumbers(self, slots):
        """2*pi*k for the modes k = 0..n/2, then 0 in any padding slots."""

        def build():
            k = np.zeros(slots)
            k[: self.n // 2 + 1] = 2.0 * np.pi * np.arange(self.n // 2 + 1)
            return k

        return self.cached(("wavenumbers", slots), build)

    # -- transforms ------------------------------------------------------

    def _centred(self, v):
        """The fields v as v - v[..., :1] with v[..., :1] in the first slot,
        where the difference is 0; a one-row field becomes two equal rows
        (see the module docstring)."""
        shape = v.shape
        if v.size == self.n:
            v, shape = v.reshape(1, self.n), (2, self.n)
        centred = np.subtract(v, v[..., :1], out=np.empty(shape))
        centred[..., 0] = v[..., 0]
        return centred

    def _unpad(self, out, v):
        """An operator's output for the fields v in v's shape: on a dense
        grid a one-row field's padding row is dropped."""
        if not (self._dense() and v.size == self.n):
            return out
        return out[..., :1, :].reshape(out.shape[:-2] + v.shape)

    def _to_modes(self, v):
        """The real Fourier modes of the fields v along the last axis:
        ``rfft(v)``, or on a dense grid one product of the centred fields
        with the cached real DFT matrix (see ``_forward_matrix``)."""
        n = self.n
        if not self._dense():
            return np.fft.rfft(v, axis=-1)
        centred = self._centred(v)
        modes = _product(centred.reshape(-1, n), self.cached("forward", self._forward_matrix))
        return modes.view(complex).reshape(centred.shape[:-1] + (-1,))

    def _from_modes(self, vh, operator):
        """The fields of n nodes whose real Fourier modes are vh: ``irfft(vh)``,
        or on a dense grid one product with the operator's cached inverse DFT
        matrix (see ``_inverse_matrix``)."""
        n = self.n
        if not self._dense():
            return np.fft.irfft(vh, n, axis=-1)
        matrix = self.cached(("inverse", operator), lambda: self._inverse_matrix(operator))
        out = _product(vh.view(float).reshape(-1, matrix.shape[0]), matrix)
        return out[:, :n].reshape(vh.shape[:-1] + (n,))

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
        return out

    def _inverse_matrix(self, operator):
        """irfft of a unit real or imaginary part of each mode, one row each,
        as a real matrix with a zero row for each padding slot.  The row of
        mode 0's imaginary part, the constant (see ``_forward_matrix``), is 0
        for ``derivs`` as irfft makes it, and 1, the constant's exact image,
        for ``solve_stiff``."""
        n = self.n
        out = np.zeros((_padded(n + 2), _padded(n)))
        out[: n + 2, :n] = np.fft.irfft(np.eye(n + 2).view(complex), n, axis=-1)
        if operator == "solve_stiff":
            out[1, :n] = 1.0
        return out

    def _cumint_matrix(self):
        """The FFT route's running integral of the unit fields as rows of an
        (n, width) real matrix, with row 0, for the centred fields'
        constant, the exact running integral of 1: the nodes."""
        n = self.n
        out = np.zeros((n, _padded(n)))
        out[1:, :n] = self._fft_cumint(np.eye(n)[1:])
        out[0, :n] = self.nodes
        return out

    def _symbol(self, order):
        """Fourier multiplier (ik)^order; odd orders drop the Nyquist mode,
        which carries no usable odd derivative."""
        sym = (1j * self._wavenumbers(self._slots())) ** order
        if order % 2 == 1:
            sym[self.n // 2] = 0.0
        return sym

    # -- derivatives -----------------------------------------------------

    def derivs(self, values, orders):
        """Derivatives of several orders (each 1..4) along the last axis.

        Returns shape (len(orders), ..., n): one forward transform, and the
        stacked multipliers applied in one inverse transform.
        """
        orders = tuple(orders)
        v = self._field(values)
        sym = self.cached(("symbols", orders, self._slots()), lambda: self._symbols(orders))
        vh = self._to_modes(v)
        vh = vh * sym.reshape((len(orders),) + (1,) * (vh.ndim - 1) + sym.shape[-1:])
        return self._unpad(self._from_modes(vh, "derivs"), v)

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
        return np.add.reduce(self._field(values), axis=-1) / self.n

    def cumint(self, values):
        """Running integral r -> integral of the field from 0 to r.

        The mean (the zero mode) contributes linearly and the zero-mean
        remainder is integrated spectrally, so periodic integrands are
        handled without seam error; a stack of fields shares one transform
        pair, or on a dense grid one product with the cached running-integral
        matrix.
        """
        v = self._field(values)
        if not self._dense():
            return self._fft_cumint(v)
        centred = self._centred(v)
        out = _product(centred.reshape(-1, self.n), self.cached("cumint", self._cumint_matrix))
        return self._unpad(out[:, : self.n].reshape(centred.shape), v)

    def _fft_cumint(self, v):
        """cumint through one real FFT pair: the route above ``_DENSE_MAX_N``,
        and on a dense grid the source of the running-integral matrix."""
        anti = np.fft.rfft(v, axis=-1)
        out = (anti[..., :1].real / self.n) * self.nodes  # the mean, integrated linearly
        anti *= self.cached("antiderivative", self._antiderivative_symbol)
        periodic = np.fft.irfft(anti, self.n, axis=-1)
        del anti
        out += periodic
        out -= periodic[..., :1]
        return out

    def _antiderivative_symbol(self):
        """1/(ik), zero on the mean (integrated linearly instead) and on the
        Nyquist mode, whose antiderivative vanishes at the nodes."""
        k = self._wavenumbers(self.n // 2 + 1)
        inv = np.zeros(k.shape, dtype=complex)
        inv[1:-1] = 1.0 / (1j * k[1:-1])
        return inv

    # -- stiff fourth-order operator --------------------------------------

    def solve_stiff(self, rhs, length, dt):
        """Solve (I + dt*(1/L^4) d^4/dr^4) x = rhs along the last axis.

        ``length`` may be a scalar or an array matching the batch shape of
        ``rhs`` (one length per stacked field).
        """
        v = self._field(rhs)
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        L = np.asarray(length, dtype=float)
        if not (L > 0).all():
            raise ValueError("length must be positive")
        if v.size == self.n:
            L = L.reshape(())  # one field, one length, however the row is shaped
        slots = self._slots()
        sym = self.cached(("wavenumbers4", slots), lambda: self._wavenumbers(slots) ** 4)
        denom = 1.0 + dt * sym / L[..., None] ** 4
        vh = self._to_modes(v)
        return self._unpad(self._from_modes(vh / denom, "solve_stiff"), v)

    # -- spectral utilities ------------------------------------------------

    def resample(self, values, m):
        """Trigonometric interpolation of the field onto m nodes."""
        m = int(m)
        if m < 8 or m % 2 != 0:
            raise ValueError(f"resample target must be even and >= 8, got {m}")
        v = self._field(values)
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
