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
    """Reconstructed planar polyline.

    points has samples+1 rows; on a consistent closed state the last row
    lands back on the first up to quadrature error.  theta holds the tangent
    angle at the same parameter values, and tangent its cosine and sine.
    """

    points: np.ndarray   # (m+1, 2)
    theta: np.ndarray    # (m+1,)
    tangent: np.ndarray  # (2, m+1)
    length: float


def reconstruct(grid, state, anchor=(0.0, 0.0), theta0=0.0, samples=None):
    """Integrate the state into a polyline of ``samples`` segments.

    ``samples`` defaults to max(n, 1024) so that polygon-area and spacing
    diagnostics are limited by the state, not by chord error; it must be an
    even number >= 8.
    """
    f, length = check_state(grid, state.f, state.length)
    if f.ndim != 1:
        raise ValueError("reconstruct expects a single state, not a batch")
    length = float(length)

    m = int(samples) if samples is not None else max(grid.n, _DEFAULT_MIN_SAMPLES)
    if m < 8 or m % 2:
        raise ValueError(f"samples must be an even number >= 8, got {samples}")
    spectrum = np.fft.rfft(f)
    symbol = grid.cached(("theta", m), lambda: _theta_symbol(grid.n, m))
    periodic = np.fft.irfft(spectrum[: symbol.shape[0]] * symbol, m)
    ramp = (spectrum[0].real / grid.n) * (np.arange(m + 1) / m)  # the mean, integrated
    # the periodic part closes up at s = 1; the ramp carries the total turning
    theta = theta0 + length * (ramp + np.append(periodic, periodic[0]) - periodic[0])

    tangent = np.empty((2, m + 1))
    np.cos(theta, out=tangent[0])
    np.sin(theta, out=tangent[1])
    points = cumulative_quadrature(tangent, length / m).T + np.asarray(anchor, dtype=float)
    return CurveSample(points=points, theta=theta, tangent=tangent, length=length)


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


def closure_defect(sample):
    """Euclidean gap between the endpoint and the start of the polyline."""
    gap = sample.points[-1] - sample.points[0]
    return float(np.hypot(gap[0], gap[1]))


def area_advisory(sample):
    """Whether the sample closes too poorly for its area to be more than
    advisory: a closure defect above 1e-3 of the length."""
    return closure_defect(sample) > _ADVISORY_DEFECT * sample.length


def enclosed_area(sample):
    """Signed enclosed area, counterclockwise positive.

    The area 1/2 * integral (x dy - y dx) is 1/2 * integral of
    x sin(theta) - y cos(theta) over arclength, taken by the trapezoid rule
    over the m samples, the duplicate endpoint dropped: spectrally accurate
    on a closed smooth curve, where the inscribed polygon's shoelace area
    falls short by O(m^-2).  On a poorly closing sample (see
    ``area_advisory``) the value is still returned.
    """
    (x, y), (cos, sin) = sample.points[:-1].T, sample.tangent[:, :-1]
    ds = sample.length / len(x)
    return float(0.5 * ds * (np.dot(x, sin) - np.dot(y, cos)))
