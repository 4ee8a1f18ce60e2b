"""Discrete calculus on the periodic parameter interval of a closed curve.

Fields live on the uniform nodes j/n, j = 0..n-1, of [0, 1) with periodic
wrap-around.  Derivatives are pseudospectral (real FFT with the Nyquist mode
zeroed for odd derivative orders), quadrature is the exact mean on the torus,
and the stiff fourth-order solve is a per-mode division.

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

    def _wavenumbers(self):
        return self.cached("wavenumbers", lambda: 2.0 * np.pi * np.arange(self.n // 2 + 1))

    def _symbol(self, order):
        """Fourier multiplier (ik)^order; odd orders drop the Nyquist mode,
        which carries no usable odd derivative."""
        sym = (1j * self._wavenumbers()) ** order
        if order % 2 == 1:
            sym[-1] = 0.0
        return sym

    # -- derivatives -----------------------------------------------------

    def derivs(self, values, orders):
        """Derivatives of several orders (each 1..4) along the last axis.

        Returns shape (len(orders), ..., n): one forward transform, and the
        stacked multipliers applied in one inverse transform.
        """
        orders = tuple(orders)
        v = self._field(values)
        sym = self.cached(("symbols", orders), lambda: self._symbols(orders))
        vh = np.fft.rfft(v, axis=-1)
        vh = vh * sym.reshape((len(orders),) + (1,) * (v.ndim - 1) + sym.shape[-1:])
        return np.fft.irfft(vh, self.n, axis=-1)

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
        pair.
        """
        v = self._field(values)
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
        k = self._wavenumbers()
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
        sym = self.cached("wavenumbers4", lambda: self._wavenumbers() ** 4)  # (modes,)
        denom = 1.0 + dt * sym / L[..., None] ** 4
        return np.fft.irfft(np.fft.rfft(v, axis=-1) / denom, self.n, axis=-1)

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
