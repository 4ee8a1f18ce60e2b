"""Curve reconstruction from (f, L) and geometric diagnostics.

A state determines its curve up to a rigid motion: the tangent angle is the
running integral of curvature, theta(s) = theta0 + integral_0^s k, and the
position is the running integral of the unit tangent, gamma(s) = anchor +
integral_0^s (cos theta, sin theta).  The angle takes one transform pair:
the n-node spectrum of f, times the running-integral multiplier (m/n)/(ik)
of its nonzero modes, goes through one zero-padded (or truncated) inverse
transform onto the m requested samples, and the mean is integrated
linearly.  That is the trigonometric interpolant of f integrated exactly,
the same as resampling f to m nodes and taking that grid's periodic running
integral, in half the transforms.  Positions use the plain composite
fourth-order cumulative rule on the extended, non-wrapped angle array.  The
distinction matters: a state whose total turning is not a multiple of 2*pi
describes a curve that genuinely fails to close, and a periodic quadrature
would silently fold that defect away instead of measuring it.

Closure is never enforced, only measured: ``closure_defect`` is the gap
|gamma(L) - gamma(0)| of the reconstructed polyline.  ``enclosed_area`` is
the signed area, counterclockwise positive, by the trapezoid rule in
arclength; ``area_advisory`` flags it as advisory when the closure defect
exceeds 1e-3 of the length.

A stack of states, f of shape (*B, n) and length of shape B, reconstructs
in one pass: one transform pair, one cos/sin pass and one quadrature call
for all rows, and the diagnostics give one value per row (a float or bool
for a single state).  Row i equals a single reconstruction of state i bit
for bit; the area's sums stay one ``np.dot`` per row for that reason.
``simulate`` reconstructs its snapshots this way, in row blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import State, check_state
from .grid import cumulative_quadrature

_DEFAULT_MIN_SAMPLES = 1024
_ADVISORY_DEFECT = 1e-3


@dataclass
class CurveSample:
    """Reconstructed planar polylines, one per state of a stack of shape B.

    points has samples+1 rows; on a consistent closed state the last row
    lands back on the first up to quadrature error.  theta holds the tangent
    angle at the same parameter values, and tangent its cosine and sine.
    length is a float for a single state (B = ()) and an array of shape B
    otherwise.
    """

    points: np.ndarray   # (*B, m+1, 2)
    theta: np.ndarray    # (*B, m+1)
    tangent: np.ndarray  # (*B, 2, m+1)
    length: float | np.ndarray


def reconstruct(grid, state, anchor=(0.0, 0.0), theta0=0.0, samples=None):
    """Integrate the state, or each state of a stack, into a polyline of
    ``samples`` segments.

    ``state.f`` has shape (*B, n) and ``state.length`` shape B, as
    ``flows.check_state`` admits them; row i of a stack gives the bits of a
    single reconstruction of state i.  ``samples`` defaults to max(n, 1024)
    so that polygon-area and spacing diagnostics are limited by the state,
    not by chord error; it must be an even number >= 8.
    """
    f, length = check_state(grid, state.f, state.length)
    m = int(samples) if samples is not None else max(grid.n, _DEFAULT_MIN_SAMPLES)
    if m < 8 or m % 2:
        raise ValueError(f"samples must be an even number >= 8, got {samples}")
    spectrum = np.fft.rfft(f)
    symbol = grid.cached(("theta", m), lambda: _theta_symbol(grid.n, m))
    periodic = np.fft.irfft(spectrum[..., : symbol.shape[0]] * symbol, m)
    ramp = (spectrum[..., :1].real / grid.n) * (np.arange(m + 1) / m)  # the mean, integrated
    # the periodic part closes up at s = 1; the ramp carries the total turning
    start = periodic[..., :1]
    theta = theta0 + length[..., None] * (ramp + np.concatenate((periodic, start), -1) - start)

    # both tangent components share one quadrature call, on a leading axis
    tangent = np.empty((2,) + theta.shape)
    np.cos(theta, out=tangent[0])
    np.sin(theta, out=tangent[1])
    points = cumulative_quadrature(tangent, length[..., None] / m)
    points = np.moveaxis(points, 0, -1) + np.asarray(anchor, dtype=float)
    return CurveSample(points, theta, np.moveaxis(tangent, 0, -2), _per_row(length))


def _theta_symbol(n, m):
    """Running-integral multiplier from n-node spectra to m nodes: (m/n)/(ik).

    It covers the modes both grids share.  Past n the spectrum is
    zero-padded (``irfft`` pads), and the self-conjugate mode of n nodes
    becomes an interior pair of half the weight; when m <= n the Nyquist mode
    of m nodes is dropped, since its running integral vanishes at the nodes.
    The mean is zero here and is integrated linearly by the caller.
    """
    k = 2.0 * np.pi * np.arange(min(n, m) // 2 + 1)
    symbol = np.zeros(k.shape, dtype=complex)
    symbol[1:] = (m / n) / (1j * k[1:])
    symbol[-1] *= 0.5 if m > n else 0.0
    return symbol


def _per_row(values):
    """A float or bool for a single sample, the array of row values otherwise."""
    return values.item() if values.ndim == 0 else values


def closure_defect(sample):
    """Euclidean gap between the endpoint and the start of each polyline."""
    gap = sample.points[..., -1, :] - sample.points[..., 0, :]
    return _per_row(np.hypot(gap[..., 0], gap[..., 1]))


def area_advisory(sample, defect=None):
    """Whether each sample closes too poorly for its area to be more than
    advisory: a closure defect above 1e-3 of the length.  ``defect`` is the
    sample's ``closure_defect``, when the caller has it already."""
    if defect is None:
        defect = closure_defect(sample)
    return _per_row(np.greater(defect, _ADVISORY_DEFECT * sample.length))


def enclosed_area(sample):
    """Signed enclosed area of each polyline, counterclockwise positive.

    The area 1/2 * integral (x dy - y dx) is 1/2 * integral of
    x sin(theta) - y cos(theta) over arclength, taken by the trapezoid rule
    over the m samples, the duplicate endpoint dropped: spectrally accurate
    on a closed smooth curve, where the inscribed polygon's shoelace area
    falls short by O(m^-2).  On a poorly closing sample (see
    ``area_advisory``) the value is still returned.  The sums are one
    ``np.dot`` per row, since stacked products do not reproduce its bits.
    """
    x, y = np.moveaxis(sample.points[..., :-1, :], -1, 0)
    cos, sin = np.moveaxis(sample.tangent[..., :-1], -2, 0)
    sums = np.empty(x.shape[:-1])
    for i in np.ndindex(sums.shape):
        sums[i] = np.dot(x[i], sin[i]) - np.dot(y[i], cos[i])
    return _per_row(0.5 * (sample.length / x.shape[-1]) * sums)
