"""Curve reconstruction from (f, L) and geometric diagnostics.

A state determines its curve up to a rigid motion: the tangent angle is the
running integral of curvature, theta(s) = theta0 + integral_0^s k, and the
position is the running integral of the unit tangent, gamma(s) = anchor +
integral_0^s (cos theta, sin theta).  On a closed grid the state is resampled
(trigonometric interpolation) to the requested density first; the angle uses
the grid's periodic running integral, which is exact for the sampled modes,
while positions use the plain composite fourth-order cumulative rule on the
extended, non-wrapped angle array.  The distinction matters: a state whose
total turning is not a multiple of 2*pi describes a curve that genuinely
fails to close, and a periodic quadrature would silently fold that defect
away instead of measuring it.

Closure is never enforced, only measured: ``closure_defect`` is the gap
|gamma(L) - gamma(0)| of the reconstructed polyline.  ``enclosed_area`` is
the signed shoelace area, counterclockwise positive; when the closure defect
exceeds 1e-3 of the length the value is still returned but flagged advisory
via a warning.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .flows import State
from .grid import CLOSED, Grid, cumulative_quadrature

_DEFAULT_MIN_SAMPLES = 1024
_ADVISORY_DEFECT = 1e-3


@dataclass
class CurveSample:
    """Reconstructed planar polyline.

    points has samples+1 rows; on a consistent closed state the last row
    lands back on the first up to quadrature error.  theta holds the tangent
    angle at the same parameter values.
    """

    points: np.ndarray  # (m+1, 2)
    theta: np.ndarray   # (m+1,)
    length: float
    closed: bool
    anchor: tuple
    theta0: float


def reconstruct(grid, state, anchor=(0.0, 0.0), theta0=0.0, samples=None):
    """Integrate the state into a polyline of ``samples`` segments.

    On closed grids ``samples`` defaults to max(n, 1024) so that polygon-area
    and spacing diagnostics are limited by the state, not by chord error; it
    must be an even number >= 8.  Open grids do not support resampling, so
    ``samples`` must be omitted or equal n-1 there.
    """
    f = grid.check_field(np.asarray(state.f, dtype=float))
    if f.ndim != 1:
        raise ValueError("reconstruct expects a single state, not a batch")
    length = float(state.length)
    if not (length > 0 and math.isfinite(length)):
        raise ValueError(f"length must be positive and finite, got {state.length}")

    if grid.closed:
        m = int(samples) if samples is not None else max(grid.n, _DEFAULT_MIN_SAMPLES)
        if m < 8 or m % 2:
            raise ValueError(f"samples must be an even number >= 8, got {samples}")
        work = Grid(CLOSED, m)
        fm = grid.resample(f, m) if m != grid.n else f
        theta = np.empty(m + 1)
        theta[:m] = theta0 + length * work.cumint(fm)
        theta[m] = theta0 + length * work.integrate(fm)
        h = 1.0 / m
    else:
        if samples is not None and int(samples) != grid.n - 1:
            raise ValueError("open-grid reconstruction cannot resample; omit samples")
        theta = theta0 + length * grid.cumint(f)
        h = grid.h

    tangent = np.stack([np.cos(theta), np.sin(theta)])
    points = cumulative_quadrature(length * tangent, h).T + np.asarray(anchor, dtype=float)
    return CurveSample(
        points=points,
        theta=theta,
        length=length,
        closed=grid.closed,
        anchor=(float(anchor[0]), float(anchor[1])),
        theta0=float(theta0),
    )


def closure_defect(sample):
    """Euclidean gap between the endpoint and the start of the polyline."""
    gap = sample.points[-1] - sample.points[0]
    return float(np.hypot(gap[0], gap[1]))


def enclosed_area(sample, advisory_warning=True):
    """Signed shoelace area, counterclockwise positive.

    The duplicate endpoint is dropped and the polygon closed cyclically; for
    a poorly closing sample (defect above 1e-3 of the length) the value is
    still returned but a warning marks it advisory.
    """
    if advisory_warning:
        defect = closure_defect(sample)
        if defect > _ADVISORY_DEFECT * sample.length:
            warnings.warn(
                f"closure defect {defect:.3g} exceeds {_ADVISORY_DEFECT:g} of the "
                "length; enclosed area is advisory",
                stacklevel=2,
            )
    p = sample.points[:-1] if sample.closed else sample.points
    x, y = p[:, 0], p[:, 1]
    return float(0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polyline_arclength(sample):
    """Chord-sum length of the polyline (approaches L as sampling densifies)."""
    return float(np.sum(np.hypot(*np.diff(sample.points, axis=0).T)))


def functionals(grid, state):
    """Scalar diagnostics of a state: length, bending energy, turning, sup."""
    f = grid.check_field(state.f)
    length = float(state.length)
    return {
        "length": length,
        "bending_energy": float(0.5 * length * grid.integrate(f * f)),
        "total_turning": float(length * grid.integrate(f)),
        "sup_curvature": float(np.max(np.abs(f))),
    }


def write_csv(sample, path):
    """Export the polyline as x,y rows (one header line)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y"])
        for x, y in sample.points:
            writer.writerow([f"{x:.17g}", f"{y:.17g}"])
