"""Discrete calculus on the unit parameter interval.

Fields live on uniform nodes in ``r``: on ``[0, 1)`` with periodic wrap-around
(closed curves) or on ``[0, 1]`` including both endpoints (open curves).
Closed-topology derivatives are pseudospectral (real FFT with the Nyquist mode
zeroed for odd derivative orders); open-topology derivatives use fourth-order
finite differences, centered in the interior with one-sided stencils of the
same order at the ends.  Quadrature follows the same split: the exact mean on
the torus, an end-corrected composite rule of fourth order on the interval.

All operations accept arrays of shape ``(..., n)`` and act along the last
axis, so stacked batches of fields go through the same code path as single
fields, and a stack of several fields shares one transform pair (``derivs``
for several derivative orders, ``cumint`` for several integrands).  They
check the node count but not finiteness: callers validate their inputs once
at the API boundary with ``check_field``.
"""

from __future__ import annotations

import numpy as np

CLOSED = "closed"
OPEN = "open"

_TOPOLOGIES = (CLOSED, OPEN)

# Widths of the centered stencils that reach fourth-order accuracy for each
# derivative order, and of the (possibly offset) stencils used near the ends.
_CENTERED_WIDTH = {1: 5, 2: 5, 3: 7, 4: 7}
_EDGE_WIDTH = {1: 5, 2: 6, 3: 7, 4: 8}

# Composite quadrature weights on the interval: trapezoid plus the first two
# end corrections, which is exact on cubics (error O(h^4) f'''').
_END_WEIGHTS = (3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0)


def _fd_weights(z, x, m):
    """Finite-difference weights for the m-th derivative at z from nodes x.

    Standard recursive construction (Fornberg); works for arbitrary node
    placement, which is what lets the same code produce centered, offset
    and fully one-sided stencils.
    """
    n = len(x)
    w = np.zeros((n, m + 1))
    c1 = 1.0
    c4 = x[0] - z
    w[0, 0] = 1.0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, m]


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
    inc = np.empty(v.shape[:-1] + (m - 1,), dtype=float)
    inc[..., 0] = (9.0 * v[..., 0] + 19.0 * v[..., 1] - 5.0 * v[..., 2] + v[..., 3]) / 24.0
    inc[..., -1] = (9.0 * v[..., -1] + 19.0 * v[..., -2] - 5.0 * v[..., -3] + v[..., -4]) / 24.0
    inc[..., 1 : m - 2] = (
        -v[..., 0 : m - 3]
        + 13.0 * v[..., 1 : m - 2]
        + 13.0 * v[..., 2 : m - 1]
        - v[..., 3:m]
    ) / 24.0
    out = np.empty_like(v)
    out[..., 0] = 0.0
    out[..., 1:] = np.cumsum(inc, axis=-1) * h
    return out


class Grid:
    """Uniform nodes on the rescaled domain, with discrete calculus.

    Parameters
    ----------
    topology : str
        "closed" (periodic, nodes j/n for j = 0..n-1) or "open"
        (nodes j/(n-1) for j = 0..n-1, both endpoints included).
    n : int
        Node count; at least 8, and even for the closed topology so the
        real-valued transforms pair modes.
    """

    def __init__(self, topology, n):
        if topology not in _TOPOLOGIES:
            raise ValueError(f"topology must be one of {_TOPOLOGIES}, got {topology!r}")
        n = int(n)
        if n < 8:
            raise ValueError(f"grid needs n >= 8, got {n}")
        if topology == CLOSED and n % 2 != 0:
            raise ValueError(f"closed topology needs even n, got {n}")
        self.topology = topology
        self.n = n
        if topology == CLOSED:
            self.nodes = np.arange(n) / n
            self.h = 1.0 / n
        else:
            self.nodes = np.arange(n) / (n - 1)
            self.h = 1.0 / (n - 1)
        self._cache = {}

    def __repr__(self):
        return f"Grid(topology={self.topology!r}, n={self.n})"

    # -- helpers ---------------------------------------------------------

    @property
    def closed(self):
        return self.topology == CLOSED

    def check_field(self, values):
        """Validate a field at an API boundary: n values per row, all finite.

        The calculus methods below check only the node count; public entry
        points (flow assembly, ``run``, ``run_ensemble``, reconstruction)
        validate their inputs once here instead of on every derivative.
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

    def _fd_matrix(self, order):
        return self.cached(("fd", order), lambda: self._build_fd_matrix(order))

    def _build_fd_matrix(self, order):
        n = self.n
        width_c = _CENTERED_WIDTH[order]
        width_e = _EDGE_WIDTH[order]
        if n < order + 4:
            raise ValueError(f"open-topology derivative of order {order} needs n >= {order + 4}")
        d = np.zeros((n, n))
        half = width_c // 2
        for i in range(n):
            if half <= i <= n - 1 - half:
                lo = i - half
                width = width_c
            elif i < half:
                lo = 0
                width = min(width_e, n)
            else:
                width = min(width_e, n)
                lo = n - width
            idx = np.arange(lo, lo + width)
            d[i, idx] = _fd_weights(self.nodes[i], self.nodes[idx], order)
        return d

    # -- derivatives -----------------------------------------------------

    def derivs(self, values, orders):
        """Derivatives of several orders (each 1..4) along the last axis.

        Returns shape (len(orders), ..., n).  Closed grids take one forward
        transform and apply the stacked multipliers in one inverse transform.
        """
        orders = tuple(orders)
        for order in orders:
            if order not in (1, 2, 3, 4):
                raise ValueError(f"derivative order must be in 1..4, got {order}")
        v = self._field(values)
        if not self.closed:
            # a row-wise contraction: a matrix product would round one field
            # differently from the same field inside a stack
            return np.stack(
                [np.einsum("...j,ij->...i", v, self._fd_matrix(order)) for order in orders]
            )
        sym = self.cached(("symbols", orders), lambda: np.stack([self._symbol(o) for o in orders]))
        vh = np.fft.rfft(v, axis=-1)
        vh = vh * sym.reshape((len(orders),) + (1,) * (v.ndim - 1) + sym.shape[-1:])
        return np.fft.irfft(vh, self.n, axis=-1)

    def deriv(self, values, order):
        """Discrete derivative of the given order (1..4) along the last axis."""
        return self.derivs(values, (order,))[0]

    # -- quadrature ------------------------------------------------------

    def integrate(self, values):
        """Integral over the parameter interval [0, 1]."""
        v = self._field(values)
        if self.closed:
            return v.mean(axis=-1)
        # a row-wise sum rather than a matrix product, whose rounding would
        # depend on how many fields are stacked
        return (v * self.cached("quad_weights", self._quad_weights)).sum(axis=-1)

    def _quad_weights(self):
        w = np.ones(self.n)
        for i, c in enumerate(_END_WEIGHTS):
            w[i] = c
            w[-1 - i] = c
        return w * self.h

    def cumint(self, values):
        """Running integral r -> integral of the field from 0 to r.

        Closed topology: the mean (the zero mode) contributes linearly and
        the zero-mean remainder is integrated spectrally, so periodic
        integrands are handled without seam error; a stack of fields shares
        one transform pair.  Open topology: fourth-order composite rule.
        """
        v = self._field(values)
        if not self.closed:
            return cumulative_quadrature(v, self.h)
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

    def stiff_symbol(self, length):
        """Representation of (1/L^4) d^4/dr^4.

        Closed: the per-mode Fourier multipliers (2 pi m)^4 / L^4.
        Open: the dense finite-difference matrix of the same operator.
        """
        if not np.ndim(length) == 0:
            raise ValueError("stiff_symbol takes a scalar length")
        if not (length > 0):
            raise ValueError(f"length must be positive, got {length}")
        if self.closed:
            return self._wavenumbers() ** 4 / float(length) ** 4
        return self._fd_matrix(4) / float(length) ** 4

    def solve_stiff(self, rhs, length, dt):
        """Solve (I + dt*(1/L^4) d^4/dr^4) x = rhs along the last axis.

        ``length`` may be a scalar or an array matching the batch shape of
        ``rhs`` (one length per stacked field).
        """
        v = self._field(rhs)
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        L = np.asarray(length, dtype=float)
        if not np.all(L > 0):
            raise ValueError("length must be positive")
        if self.closed:
            sym = self._wavenumbers() ** 4  # (modes,)
            denom = 1.0 + dt * sym / L[..., None] ** 4 if L.ndim else 1.0 + dt * sym / L**4
            return np.fft.irfft(np.fft.rfft(v, axis=-1) / denom, self.n, axis=-1)
        d4 = self._fd_matrix(4)
        eye = np.eye(self.n)
        if L.ndim == 0:
            a = eye + (dt / float(L) ** 4) * d4
            return np.linalg.solve(a, v[..., None])[..., 0] if v.ndim > 1 else np.linalg.solve(a, v)
        out = np.empty_like(v)
        for idx in np.ndindex(*v.shape[:-1]):
            a = eye + (dt / float(L[idx]) ** 4) * d4
            out[idx] = np.linalg.solve(a, v[idx])
        return out

    # -- spectral utilities ------------------------------------------------

    def resample(self, values, m):
        """Trigonometric interpolation of a closed field onto m nodes."""
        if not self.closed:
            raise ValueError("resample is only defined on the closed topology")
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
